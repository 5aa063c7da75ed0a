"""Unit tests for the serving wire schema."""

import json

import pytest

from repro.core import SubrangeEstimator
from repro.core.types import Usefulness
from repro.corpus import Query
from repro.engine import SearchHit
from repro.fleet import RepresentativeDelta, canonicalize, diff_representatives
from repro.metasearch import MetasearchResponse
from repro.metasearch.dispatch import EngineFailure
from repro.metasearch.selection import EstimatedUsefulness
from repro.representatives import DatabaseRepresentative, TermStats
from repro.representatives.quantized import quantize_representative
from repro.serving import (
    WireFormatError,
    decode_hits,
    encode_hits,
    estimate_from_wire,
    estimate_to_wire,
    failure_from_wire,
    failure_to_wire,
    query_from_wire,
    query_to_wire,
    response_from_wire,
    response_to_wire,
    usefulness_from_wire,
    usefulness_to_wire,
)


def roundtrip_json(payload):
    """Push a payload through an actual JSON encode/decode, as HTTP would."""
    return json.loads(json.dumps(payload))


def full_delta(representative, version=7):
    """How a representative crosses the wire: its full delta, the delta
    from version 0 (the empty representative)."""
    return diff_representatives(
        DatabaseRepresentative(representative.name, 0, {}), representative,
        from_version=0, to_version=version,
    )


def over_the_wire(representative):
    """``representative`` shipped as its full delta and decoded."""
    wire = roundtrip_json(full_delta(representative).to_json_dict())
    return RepresentativeDelta.from_json_dict(wire).as_representative()


@pytest.fixture
def representative():
    return DatabaseRepresentative(
        "db1",
        n_documents=42,
        term_stats={
            "rocket": TermStats(0.5, 0.25, 0.1, max_weight=0.75),
            "orbit": TermStats(1 / 3, 0.125, 0.0625, max_weight=0.5),
        },
    )


class TestQueryWire:
    def test_roundtrip(self):
        query = Query(terms=("a", "b"), weights=(2.0, 0.1))
        assert query_from_wire(roundtrip_json(query_to_wire(query))) == query

    def test_wrong_kind_rejected(self):
        with pytest.raises(WireFormatError):
            query_from_wire({"kind": "hits", "terms": [], "weights": []})

    def test_missing_field_rejected(self):
        with pytest.raises(WireFormatError):
            query_from_wire({"kind": "query", "terms": ["a"]})

    def test_invalid_query_rejected(self):
        # Query itself rejects non-positive weights; the decoder wraps that.
        with pytest.raises(WireFormatError):
            query_from_wire(
                {"kind": "query", "terms": ["a"], "weights": [-1.0]}
            )

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "1" + "0" * 400])
    def test_weight_json_accepts_but_floats_cannot_hold_rejected(self, weight):
        # json.loads takes NaN/Infinity and arbitrarily long integers; none
        # may reach the expansion (NaN made it raise, answering 500).
        payload = json.loads(
            '{"kind": "query", "terms": ["a"], "weights": [%s]}' % weight
        )
        with pytest.raises(WireFormatError):
            query_from_wire(payload)


class TestHitsWire:
    def test_roundtrip(self):
        hits = [
            SearchHit(0.9, "d1", engine="e1"),
            SearchHit(0.1 + 0.2, "d2", engine=None),
        ]
        decoded = list(decode_hits(roundtrip_json(encode_hits(hits))))
        assert decoded == hits

    def test_decoder_is_lazy(self):
        rows = iter([[0.5, "d", "e"], ["bogus"]])
        gen = decode_hits(rows)
        assert next(gen).doc_id == "d"
        with pytest.raises(WireFormatError):
            next(gen)


class TestScalarWire:
    def test_usefulness_roundtrip(self):
        u = Usefulness(nodoc=3.7, avgsim=0.123456789012345)
        assert usefulness_from_wire(roundtrip_json(usefulness_to_wire(u))) == u

    def test_estimate_roundtrip(self):
        e = EstimatedUsefulness("db", Usefulness(1.5, 0.25))
        assert estimate_from_wire(roundtrip_json(estimate_to_wire(e))) == e

    def test_failure_roundtrip(self):
        f = EngineFailure("db", "timeout", attempts=2, elapsed=1.5, message="m")
        assert failure_from_wire(roundtrip_json(failure_to_wire(f))) == f


class TestResponseWire:
    def test_roundtrip(self):
        response = MetasearchResponse(
            hits=[SearchHit(0.5, "d", engine="e")],
            invoked=["e", "f"],
            estimates=[EstimatedUsefulness("e", Usefulness(2.0, 0.5))],
            failures=[EngineFailure("f", "error", 1, 0.1, "boom")],
            latencies={"e": 0.01, "f": 0.1},
        )
        decoded = response_from_wire(roundtrip_json(response_to_wire(response)))
        assert decoded == response

    def test_trace_not_shipped(self):
        response = MetasearchResponse(hits=[], invoked=[], estimates=[])
        assert "trace" not in response_to_wire(response)


class TestRepresentativeWire:
    """A representative crosses the wire as its full delta; ``serve
    gateway --quantize N`` quantizes what arrived."""

    def test_plain_roundtrip_is_exact(self, representative):
        assert over_the_wire(representative) == representative

    def test_quantized_equals_local_quantization(self, representative):
        # Both sides quantize the canonical (sorted-term) order: a grid's
        # per-interval means sum in term order.
        received = quantize_representative(
            over_the_wire(representative), levels=256
        )
        local = quantize_representative(canonicalize(representative), levels=256)
        assert received == local

    def test_quantized_estimates_match(self, representative):
        query = Query(terms=("rocket", "orbit"), weights=(1.0, 1.0))
        estimator = SubrangeEstimator()
        local = estimator.estimate(
            query,
            quantize_representative(canonicalize(representative), levels=256),
            0.2,
        )
        remote = estimator.estimate(
            query,
            quantize_representative(over_the_wire(representative), levels=256),
            0.2,
        )
        assert remote == local

    def test_empty_representative(self):
        empty = DatabaseRepresentative("empty", n_documents=0, term_stats={})
        assert over_the_wire(empty) == empty
        assert quantize_representative(over_the_wire(empty)) == empty

    def test_bad_levels_rejected(self, representative):
        with pytest.raises(ValueError):
            quantize_representative(representative, levels=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RepresentativeDelta.from_json_dict({"kind": "nope"})

    def test_missing_required_field_rejected(self, representative):
        wire = full_delta(representative).to_json_dict()
        del wire["n_documents"]
        with pytest.raises(ValueError):
            RepresentativeDelta.from_json_dict(wire)


class TestSnapshotWire:
    """The whole representative is the full delta's JSON document."""

    def test_roundtrip_and_envelope(self, representative):
        full = full_delta(representative)
        wire = full.to_json_dict()
        assert list(wire) == [
            "kind", "format", "name", "from_version", "to_version",
            "from_n_documents", "n_documents", "records",
        ]
        assert wire["kind"] == "representative.delta"
        assert (wire["from_version"], wire["from_n_documents"]) == (0, 0)
        assert [record[1] for record in wire["records"]] == ["orbit", "rocket"]
        decoded = RepresentativeDelta.from_json_dict(roundtrip_json(wire))
        assert decoded == full and decoded.is_full
        assert decoded.as_representative() == representative

    @pytest.mark.parametrize(
        "payload",
        [[], {}, {"kind": "representative"}, {"kind": "representative.snapshot"}],
    )
    def test_anything_else_rejected(self, payload):
        with pytest.raises(ValueError):
            RepresentativeDelta.from_json_dict(payload)


class TestShardWirePayloads:
    """The shard RPC payloads are compositions of the existing codecs;
    what matters is that a full JSON round trip preserves the exact
    values the coordinator's bit-exact merge depends on."""

    def test_estimate_row_roundtrip_preserves_sort_key(self):
        row = [
            EstimatedUsefulness(
                engine=f"engine{i}",
                usefulness=Usefulness(nodoc=7 - i, avgsim=0.1 * i + 1e-17),
            )
            for i in range(3)
        ]
        back = [
            estimate_from_wire(e)
            for e in roundtrip_json([estimate_to_wire(e) for e in row])
        ]
        assert back == row
        assert [e.sort_key for e in back] == [e.sort_key for e in row]

    def test_failure_roundtrip_preserves_shard_prefixed_message(self):
        failure = EngineFailure(
            engine="engine2",
            kind="timeout",
            attempts=1,
            elapsed=0.125,
            message="shard 1 at http://127.0.0.1:9: no answer within 5s",
        )
        assert failure_from_wire(roundtrip_json(failure_to_wire(failure))) == (
            failure
        )

    def test_retry_after_is_integral_on_the_wire(self):
        """The shed response's Retry-After is RFC 9110 delta-seconds:
        an integer string, rounded up from the configured float hint."""
        from repro.serving import HTTPError

        for hint, expected in ((1.2, "2"), (1.0, "1"), (0.2, "1")):
            header = HTTPError(
                503, "shed", retry_after=hint
            ).to_response().headers["Retry-After"]
            assert header == expected
            assert header == str(int(header))  # integral, never "1.2"
