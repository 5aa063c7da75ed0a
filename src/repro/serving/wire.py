"""JSON wire schema for the serving layer.

Everything that crosses the network — queries, hit lists, usefulness
estimates, failure records, whole broker responses, and database
representatives — has an explicit serializer/deserializer pair here.
The encoding rules are chosen so a round trip is *exact*:

* Floats travel as JSON numbers.  ``json.dumps`` renders a double via
  ``repr`` (the shortest string that parses back to the same double) and
  ``json.loads`` parses to the nearest double, so every finite float
  survives serialize → deserialize bit-for-bit.  Estimates computed from
  a decoded representative are therefore byte-identical to estimates
  computed from the original — the property suite asserts exactly this.
* A representative additionally supports the paper's Section 3.2 wire
  sizing: :func:`representative_to_wire` with ``quantize=levels`` ships
  the per-term *one-byte codes* of :func:`~repro.representatives.quantized.
  encode_representative` (base64-packed, so four fields cost ~4
  bytes/term before framing) plus one small decode grid per field per
  database.  This module only serializes them and checks what arrives;
  fitting, coding and the decode clamps are the quantizer's, so a broker
  holding a wire-quantized representative estimates identically to one
  that quantized locally.

Every payload carries a ``kind`` tag; decoders validate it so a payload
routed to the wrong decoder fails loudly instead of half-parsing.
"""

from __future__ import annotations

import base64
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.core.types import Usefulness
from repro.corpus.query import Query
from repro.engine.results import SearchHit
from repro.fleet.delta import RepresentativeSnapshot
from repro.metasearch.broker import MetasearchResponse
from repro.metasearch.dispatch import EngineFailure
from repro.metasearch.selection import EstimatedUsefulness
from repro.representatives.quantized import (
    FIELDS,
    REQUIRED_FIELDS,
    decode_representative,
    encode_representative,
)
from repro.representatives.representative import DatabaseRepresentative

__all__ = [
    "WireFormatError",
    "decode_hits",
    "encode_hits",
    "estimate_from_wire",
    "estimate_to_wire",
    "failure_from_wire",
    "failure_to_wire",
    "limit_from_wire",
    "query_from_wire",
    "query_to_wire",
    "representative_from_wire",
    "representative_to_wire",
    "response_from_wire",
    "response_to_wire",
    "snapshot_from_wire",
    "snapshot_to_wire",
    "threshold_from_wire",
    "thresholds_from_wire",
    "usefulness_from_wire",
    "usefulness_to_wire",
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
    _expect_kind(payload, "query")
    terms = _field(payload, "terms")
    weights = _field(payload, "weights")
    try:
        return Query(
            terms=tuple(str(t) for t in terms),
            weights=tuple(float(w) for w in weights),
        )
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
        "estimates": [estimate_to_wire(e) for e in response.estimates],
        "failures": [failure_to_wire(f) for f in response.failures],
        "latencies": {name: float(v) for name, v in response.latencies.items()},
    }


def response_from_wire(payload: dict) -> MetasearchResponse:
    _expect_kind(payload, "response")
    return MetasearchResponse(
        hits=list(decode_hits(_field(payload, "hits"))),
        invoked=[str(name) for name in _field(payload, "invoked")],
        estimates=[estimate_from_wire(e) for e in _field(payload, "estimates")],
        failures=[failure_from_wire(f) for f in payload.get("failures", [])],
        latencies={
            str(name): float(v)
            for name, v in payload.get("latencies", {}).items()
        },
    )


# -- representatives -----------------------------------------------------------


def _pack_codes(codes: np.ndarray, levels: int):
    """Codes as base64 bytes when they fit one byte each, plain ints otherwise."""
    if levels <= 256:
        return base64.b64encode(codes.astype(np.uint8).tobytes()).decode("ascii")
    return [int(c) for c in codes]


def _unpack_codes(packed, n_terms: int) -> np.ndarray:
    if isinstance(packed, str):
        raw = np.frombuffer(base64.b64decode(packed), dtype=np.uint8)
        codes = raw.astype(np.int64)
    else:
        codes = np.asarray([int(c) for c in packed], dtype=np.int64)
    if codes.size != n_terms:
        raise WireFormatError(
            f"expected {n_terms} codes, got {codes.size}"
        )
    return codes


def representative_to_wire(
    representative: DatabaseRepresentative, quantize: Optional[int] = None
) -> dict:
    """Encode a representative, exactly (default) or one-byte quantized.

    Args:
        representative: The representative to ship.
        quantize: When given, the number of quantization levels (256 is the
            paper's one-byte scheme).  The wire carries
            :func:`~repro.representatives.quantized.encode_representative`'s
            one code per term per field plus the per-field decode grids —
            ~4 bytes/term, the Section 3.2 sizing.
    """
    if quantize is None:
        return representative.to_json_dict()
    terms, encoded = encode_representative(representative, quantize)
    return {
        "kind": "representative.quantized",
        "name": representative.name,
        "n_documents": representative.n_documents,
        "levels": int(quantize),
        "terms": terms,
        "fields": {
            field: {
                "low": float(grid.low),
                "high": float(grid.high),
                "decode": [float(v) for v in grid.decode_values],
                "codes": _pack_codes(codes, quantize),
            }
            for field, (grid, codes) in encoded.items()
        },
    }


def _decode_columns(fields: dict, n_terms: int) -> Dict[str, np.ndarray]:
    """Each shipped field's decoded values, one per term."""
    columns: Dict[str, np.ndarray] = {}
    for name, spec in fields.items():
        if name not in FIELDS:
            raise WireFormatError(f"unknown quantized field {name!r}")
        decode_values = np.asarray(
            [float(v) for v in _field(spec, "decode")], dtype=float
        )
        codes = _unpack_codes(_field(spec, "codes"), n_terms)
        if codes.size and (codes.min() < 0 or codes.max() >= decode_values.size):
            raise WireFormatError("quantization code out of grid range")
        columns[name] = decode_values[codes]
    for required in REQUIRED_FIELDS:
        if required not in columns:
            raise WireFormatError(f"quantized payload missing field {required!r}")
    return columns


def _decode_quantized(payload: dict) -> DatabaseRepresentative:
    terms = [str(t) for t in _field(payload, "terms")]
    fields = _field(payload, "fields")
    return decode_representative(
        str(_field(payload, "name")),
        int(_field(payload, "n_documents")),
        terms,
        _decode_columns(fields, len(terms)) if terms else {},
    )


def representative_from_wire(payload: dict) -> DatabaseRepresentative:
    """Decode either representative wire form into a plain representative."""
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind == "representative":
        try:
            return DatabaseRepresentative.from_json_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise WireFormatError(f"invalid representative payload: {exc}") from exc
    if kind == "representative.quantized":
        return _decode_quantized(payload)
    raise WireFormatError(f"unknown representative kind {kind!r}")


def snapshot_to_wire(
    snapshot: RepresentativeSnapshot, quantize: Optional[int] = None
) -> dict:
    """Encode a versioned representative — what ``GET /representative``
    and the live ``/representative/delta`` fallback both answer."""
    return {
        "kind": "representative.snapshot",
        "name": snapshot.name,
        "version": snapshot.version,
        "representative": representative_to_wire(
            snapshot.representative, quantize=quantize
        ),
    }


def snapshot_from_wire(payload: dict) -> RepresentativeSnapshot:
    _expect_kind(payload, "representative.snapshot")
    return RepresentativeSnapshot(
        name=str(_field(payload, "name")),
        version=int(_field(payload, "version")),
        representative=representative_from_wire(_field(payload, "representative")),
    )
