"""Per-request deadline propagation.

A request entering the serving layer carries a *remaining budget*: the
number of seconds the caller is still willing to wait.  The budget crosses
process boundaries in the ``X-Repro-Deadline`` header (a float of seconds,
not a wall-clock timestamp — clocks on two machines need not agree, but a
duration survives the hop losing only the network transit time), and
crosses *call* boundaries inside a process through an ambient scope held
in a :class:`contextvars.ContextVar`: the gateway opens a
:func:`deadline_scope` around request handling, and everything underneath
— the dispatcher's retry backoff, every ``RemoteEngine`` call — reads
:func:`ambient_deadline` and works within (and forwards downstream) the
*remaining* budget.  Enforcement is cooperative and server-side as well:
each server rejects work whose budget is already exhausted (504) rather
than burning cycles on an answer nobody is waiting for.

A context variable, not a thread-local, because the request does not stay
on one thread: a fan-out with a deadline to enforce runs engine calls on
pool threads, each inside a copy of the submitting thread's context, so
a call sees its *request's* deadline wherever it runs (a thread started
any other way begins with an empty context and sees none).  The module
lives below the broker and imports nothing from the serving package,
which re-exports its public names.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional, Tuple

__all__ = [
    "DEADLINE_HEADER",
    "Deadline",
    "ambient_deadline",
    "deadline_scope",
    "detached_deadline_scope",
]

#: Header carrying the remaining request budget in seconds.
DEADLINE_HEADER = "X-Repro-Deadline"


class Deadline:
    """A monotonic-clock deadline, created from a remaining budget."""

    __slots__ = ("expires_at",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError(f"deadline budget must be >= 0, got {seconds!r}")
        self.expires_at = time.monotonic() + seconds

    def remaining(self) -> float:
        """Seconds of budget left (0.0 once expired, never negative)."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    @classmethod
    def parse_header(cls, value: str) -> "Deadline":
        """Parse an ``X-Repro-Deadline`` header value.

        Raises :class:`ValueError` for non-numeric or negative budgets —
        servers map that to a 400.
        """
        seconds = float(value)
        if seconds != seconds or seconds == float("inf"):
            raise ValueError(f"deadline must be finite, got {value!r}")
        return cls(seconds)

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


#: The enclosing scopes' deadlines, outermost first.  An immutable tuple:
#: a scope *sets* a longer one and resets it on exit, so a context copied
#: mid-request (a dispatch worker's) is never mutated behind its back.
_scopes: ContextVar[Tuple[Deadline, ...]] = ContextVar(
    "repro_deadline_scopes", default=()
)


def ambient_deadline() -> Optional[Deadline]:
    """The tightest deadline of the enclosing scopes, or None."""
    scopes = _scopes.get()
    if not scopes:
        return None
    return min(scopes, key=lambda d: d.expires_at)


@contextmanager
def deadline_scope(deadline: Optional[Deadline]):
    """Make ``deadline`` ambient for the current context.

    ``None`` is a no-op scope so callers need not branch.  Scopes nest;
    the effective ambient deadline is always the tightest one, so an
    inner scope can only shorten the budget, never extend it.
    """
    if deadline is None:
        yield None
        return
    token = _scopes.set(_scopes.get() + (deadline,))
    try:
        yield deadline
    finally:
        _scopes.reset(token)


@contextmanager
def detached_deadline_scope(deadline: Optional[Deadline]):
    """Replace the ambient scopes for the duration of the block.

    Nested :func:`deadline_scope`\\ s can only *tighten* the budget, which
    is exactly wrong for a thread executing a coalesced batch on behalf
    of several requests: the leader's own request deadline must not cap
    its batchmates.  This scope detaches from the caller's scopes entirely
    and makes ``deadline`` (typically the batch's loosest member
    deadline) the sole ambient deadline — or clears ambience when
    ``deadline`` is ``None``.  The caller's scopes are restored on exit.
    """
    token = _scopes.set(() if deadline is None else (deadline,))
    try:
        yield deadline
    finally:
        _scopes.reset(token)
