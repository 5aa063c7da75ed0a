"""Runs the per-layer probes of ``adapter.PROBES`` and times their calls.

A probe that raises — its symbol was removed or its signature changed —
records ``None`` for its metrics and counts in ``probe.errors``; the
end-to-end run is never failed by a probe.
"""

from __future__ import annotations

import sys
import time
import traceback
from typing import Callable, Dict, Optional, Tuple

import adapter
from summary import median

__all__ = ["measure", "run_probes", "probe_units"]


def measure(
    fn: Callable,
    *,
    setup: Optional[Callable[[int], object]] = None,
    counter: bool = False,
    inner: int = 1,
    budget: float = 0.08,
    min_reps: int = 5,
) -> float:
    """Median seconds of one ``fn`` call.

    ``setup(i)`` (untimed) produces the argument of repetition ``i``;
    ``counter=True`` passes the repetition index instead; ``inner`` times
    that many back-to-back calls per sample for sub-microsecond targets.
    Repeats until ``budget`` seconds have passed (set-up included) and at
    least ``min_reps`` samples exist.
    """
    clock = time.perf_counter
    samples = []
    deadline = clock() + budget
    i = 0
    while len(samples) < min_reps or clock() < deadline:
        if setup is not None:
            argument = setup(i)
            started = clock()
            fn(argument)
            samples.append(clock() - started)
            i += 1
        elif counter:
            started = clock()
            for k in range(i, i + inner):
                fn(k)
            samples.append((clock() - started) / inner)
            i += inner
        else:
            started = clock()
            for __ in range(inner):
                fn()
            samples.append((clock() - started) / inner)
    return median(samples)


def probe_units() -> Dict[str, str]:
    """Every probe metric name with its unit."""
    units: Dict[str, str] = {}
    for names, __ in adapter.PROBES.values():
        units.update(names)
    return units


def run_probes(fixture) -> Tuple[Dict[str, Optional[float]], int]:
    """``(values, errors)`` — one value (or ``None``) per probe metric."""
    values: Dict[str, Optional[float]] = {}
    errors = 0
    for probe_name, (names, builder) in adapter.PROBES.items():
        try:
            result = builder(fixture, measure)
            if not isinstance(result, dict):
                (only,) = names
                result = {only: result}
            for name in names:
                values[name] = float(result[name])
        except Exception:  # a probe never fails the run; say what broke
            errors += 1
            print(f"probe {probe_name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            for name in names:
                values.setdefault(name, None)
    return values, errors
