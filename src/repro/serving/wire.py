"""JSON wire schema for the serving layer.

Everything that crosses the network — queries, hit lists, usefulness
estimates, failure records and whole broker responses — has an explicit
serializer/deserializer pair here.  A database representative crosses only
as a :class:`~repro.fleet.delta.RepresentativeDelta` document (its own
``to_json_dict`` / ``from_json_dict``; a whole representative is the full
delta from version 0).  The encoding rules are chosen so a round trip is
*exact*: floats travel as JSON numbers.  ``json.dumps`` renders a double
via ``repr`` (the shortest string that parses back to the same double)
and ``json.loads`` parses to the nearest double, so every finite float
survives serialize → deserialize bit-for-bit.  Estimates computed from a
decoded representative are therefore byte-identical to estimates computed
from the original — the property suite asserts exactly this.

Every payload carries a ``kind`` tag; decoders validate it so a payload
routed to the wrong decoder fails loudly instead of half-parsing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.core.types import Usefulness
from repro.corpus.query import Query, check_query_length
from repro.engine.results import SearchHit
from repro.metasearch.broker import MetasearchResponse
from repro.metasearch.dispatch import EngineFailure
from repro.metasearch.selection import EstimatedUsefulness, EstimateRow

__all__ = [
    "WireFormatError",
    "decode_hits",
    "encode_hits",
    "estimate_from_wire",
    "estimate_row_from_wire",
    "estimate_row_to_wire",
    "estimate_to_wire",
    "failure_from_wire",
    "failure_to_wire",
    "limit_from_wire",
    "query_from_wire",
    "query_to_wire",
    "response_from_wire",
    "response_to_wire",
    "threshold_from_wire",
    "thresholds_from_wire",
    "usefulness_from_wire",
    "usefulness_to_wire",
    "versions_from_wire",
]


class WireFormatError(ValueError):
    """A payload does not conform to the wire schema."""


def _expect_kind(payload: dict, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise WireFormatError(f"expected a JSON object, got {type(payload).__name__}")
    got = payload.get("kind")
    if got != kind:
        raise WireFormatError(f"expected kind {kind!r}, got {got!r}")
    return payload


def _field(payload: dict, name: str):
    try:
        return payload[name]
    except KeyError:
        raise WireFormatError(f"payload missing required field {name!r}") from None


# -- queries -------------------------------------------------------------------


def query_to_wire(query: Query) -> dict:
    return {
        "kind": "query",
        "terms": list(query.terms),
        "weights": [float(w) for w in query.weights],
    }


def query_from_wire(payload: dict) -> Query:
    """The query of a request; a query longer than
    :data:`~repro.corpus.query.MAX_QUERY_TERMS` is a malformed payload, so
    every route that decodes one — engine, gateway, shard and coordinator
    alike — answers it with 400 before any work."""
    _expect_kind(payload, "query")
    terms = _field(payload, "terms")
    weights = _field(payload, "weights")
    try:
        return check_query_length(Query(
            terms=tuple(str(t) for t in terms),
            weights=tuple(float(w) for w in weights),
        ))
    except (TypeError, ValueError, OverflowError) as exc:
        raise WireFormatError(f"invalid query payload: {exc}") from exc


# -- scalar request fields -----------------------------------------------------
#
# Every route that takes a threshold or a limit reads it here; the serving
# substrate answers a :class:`WireFormatError` raised under a route with 400.


def _float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:  # ints past the float range
        raise WireFormatError(f"bad {name}: {exc}") from exc


def threshold_from_wire(payload: dict) -> float:
    """The required ``threshold`` of a request body or dispatch entry."""
    return _float(_field(payload, "threshold"), "threshold")


def thresholds_from_wire(payload: dict) -> Union[float, List[float]]:
    """The required ``thresholds`` of a batch body: one scalar, or a list."""
    raw = _field(payload, "thresholds")
    if isinstance(raw, list):
        return [_float(t, "thresholds") for t in raw]
    return _float(raw, "thresholds")


def limit_from_wire(payload: dict) -> Optional[int]:
    """The optional ``limit`` of a search body: a count >= 0, or None."""
    limit = payload.get("limit")
    if limit is None:
        return None
    try:
        limit = int(limit)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise WireFormatError(f"bad limit: {exc}") from exc
    if limit < 0:
        raise WireFormatError(f"limit must be >= 0, got {limit}")
    return limit


def versions_from_wire(payload: dict) -> Dict[str, int]:
    """The required ``versions`` of an engine host's ``/dispatch`` or
    ``/healthz`` reply: engine name -> the version the host serves, an int
    in ``[0, 2**63)`` (a count of documents or mutations; not a bool)."""
    raw = _field(payload, "versions")
    if not isinstance(raw, dict) or not all(
        type(version) is int and 0 <= version < 2**63
        for version in raw.values()
    ):
        raise WireFormatError(
            f"versions must map engine names to versions >= 0, got {raw!r:.80}"
        )
    return raw


# -- hits ----------------------------------------------------------------------
#
# Hit lists are hot (every search response carries one), so they encode as
# compact triples rather than keyed objects.  The decoder is a *generator*:
# remote result lists flow straight into ``merge_hits`` without an
# intermediate materialization.


def encode_hits(hits: Iterable[SearchHit]) -> List[list]:
    return [[float(h.similarity), h.doc_id, h.engine] for h in hits]


def decode_hits(rows: Iterable[list]) -> Iterator[SearchHit]:
    for row in rows:
        try:
            similarity, doc_id, engine = row
        except (TypeError, ValueError) as exc:
            raise WireFormatError(f"invalid hit triple: {row!r}") from exc
        yield SearchHit(
            similarity=float(similarity),
            doc_id=str(doc_id),
            engine=None if engine is None else str(engine),
        )


# -- usefulness / estimates / failures ----------------------------------------


def usefulness_to_wire(usefulness: Usefulness) -> dict:
    return {
        "kind": "usefulness",
        "nodoc": float(usefulness.nodoc),
        "avgsim": float(usefulness.avgsim),
    }


def usefulness_from_wire(payload: dict) -> Usefulness:
    _expect_kind(payload, "usefulness")
    return Usefulness(
        nodoc=float(_field(payload, "nodoc")),
        avgsim=float(_field(payload, "avgsim")),
    )


def estimate_to_wire(estimate: EstimatedUsefulness) -> dict:
    return {
        "kind": "estimate",
        "engine": estimate.engine,
        "nodoc": float(estimate.usefulness.nodoc),
        "avgsim": float(estimate.usefulness.avgsim),
    }


def estimate_from_wire(payload: dict) -> EstimatedUsefulness:
    _expect_kind(payload, "estimate")
    return EstimatedUsefulness(
        engine=str(_field(payload, "engine")),
        usefulness=Usefulness(
            nodoc=float(_field(payload, "nodoc")),
            avgsim=float(_field(payload, "avgsim")),
        ),
    )


def estimate_row_to_wire(estimates: Iterable[EstimatedUsefulness]) -> List[dict]:
    """A best-first row as :func:`estimate_to_wire` objects, read straight
    off an :class:`~repro.metasearch.selection.EstimateRow`'s arrays (any
    other sequence is adapted by :meth:`EstimateRow.of`, so it goes out
    ranked): the same bytes, no per-engine object."""
    row = EstimateRow.of(estimates)
    order = row.order
    return [
        {"kind": "estimate", "engine": name, "nodoc": nodoc, "avgsim": avgsim}
        for name, nodoc, avgsim in zip(
            row.engines, row.nodoc[order].tolist(), row.avgsim[order].tolist()
        )
    ]


def estimate_row_from_wire(payload: Iterable[dict]) -> EstimateRow:
    """A list of ``estimate`` objects decoded straight into a ranked
    :class:`~repro.metasearch.selection.EstimateRow`, checked as
    :func:`estimate_from_wire` checks one (kind, fields, no negative
    value)."""
    names, nodoc, avgsim = [], [], []
    for entry in payload:
        _expect_kind(entry, "estimate")
        names.append(str(_field(entry, "engine")))
        nodoc.append(float(_field(entry, "nodoc")))
        avgsim.append(float(_field(entry, "avgsim")))
    nodoc, avgsim = np.array(nodoc), np.array(avgsim)
    if (nodoc < 0.0).any() or (avgsim < 0.0).any():
        raise WireFormatError("an estimate's nodoc and avgsim must be >= 0")
    return EstimateRow.ranked(names, nodoc, avgsim)


def failure_to_wire(failure: EngineFailure) -> dict:
    return {
        "kind": "failure",
        "engine": failure.engine,
        "failure_kind": failure.kind,
        "attempts": failure.attempts,
        "elapsed": float(failure.elapsed),
        "message": failure.message,
    }


def failure_from_wire(payload: dict) -> EngineFailure:
    _expect_kind(payload, "failure")
    return EngineFailure(
        engine=str(_field(payload, "engine")),
        kind=str(_field(payload, "failure_kind")),
        attempts=int(_field(payload, "attempts")),
        elapsed=float(_field(payload, "elapsed")),
        message=str(_field(payload, "message")),
    )


# -- broker responses ----------------------------------------------------------


def response_to_wire(response: MetasearchResponse) -> dict:
    """Encode a broker response.  The trace is timing-only diagnostics and
    excluded from response equality, so it does not cross the wire."""
    return {
        "kind": "response",
        "hits": encode_hits(response.hits),
        "invoked": list(response.invoked),
        "estimates": estimate_row_to_wire(response.estimates),
        "failures": [failure_to_wire(f) for f in response.failures],
        "latencies": {name: float(v) for name, v in response.latencies.items()},
    }


def response_from_wire(payload: dict) -> MetasearchResponse:
    _expect_kind(payload, "response")
    return MetasearchResponse(
        hits=list(decode_hits(_field(payload, "hits"))),
        invoked=[str(name) for name in _field(payload, "invoked")],
        estimates=estimate_row_from_wire(_field(payload, "estimates")),
        failures=[failure_from_wire(f) for f in payload.get("failures", [])],
        latencies={
            str(name): float(v)
            for name, v in payload.get("latencies", {}).items()
        },
    )
