"""Unit tests for the serving wire schema."""

import json

import pytest

from repro.core import SubrangeEstimator
from repro.core.types import Usefulness
from repro.corpus import Query
from repro.engine import SearchHit
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
    representative_from_wire,
    representative_to_wire,
    response_from_wire,
    response_to_wire,
    snapshot_from_wire,
    snapshot_to_wire,
    usefulness_from_wire,
    usefulness_to_wire,
)


def roundtrip_json(payload):
    """Push a payload through an actual JSON encode/decode, as HTTP would."""
    return json.loads(json.dumps(payload))


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
    def test_plain_roundtrip_is_exact(self, representative):
        wire = roundtrip_json(representative_to_wire(representative))
        assert representative_from_wire(wire) == representative

    def test_quantized_equals_local_quantization(self, representative):
        wire = roundtrip_json(
            representative_to_wire(representative, quantize=256)
        )
        decoded = representative_from_wire(wire)
        assert decoded == quantize_representative(representative, levels=256)

    def test_quantized_codes_pack_one_byte_per_term_per_field(
        self, representative
    ):
        import base64

        wire = representative_to_wire(representative, quantize=256)
        for spec in wire["fields"].values():
            raw = base64.b64decode(spec["codes"])
            assert len(raw) == len(wire["terms"])  # 1 byte/term/field

    def test_quantized_estimates_match(self, representative):
        query = Query(terms=("rocket", "orbit"), weights=(1.0, 1.0))
        estimator = SubrangeEstimator()
        local = estimator.estimate(
            query, quantize_representative(representative, levels=256), 0.2
        )
        wire = roundtrip_json(
            representative_to_wire(representative, quantize=256)
        )
        remote = estimator.estimate(query, representative_from_wire(wire), 0.2)
        assert remote == local

    def test_many_levels_fall_back_to_int_lists(self, representative):
        wire = roundtrip_json(
            representative_to_wire(representative, quantize=300)
        )
        for spec in wire["fields"].values():
            assert isinstance(spec["codes"], list)
        decoded = representative_from_wire(wire)
        assert decoded == quantize_representative(representative, levels=300)

    def test_empty_representative(self):
        empty = DatabaseRepresentative("empty", n_documents=0, term_stats={})
        for quantize in (None, 256):
            wire = roundtrip_json(
                representative_to_wire(empty, quantize=quantize)
            )
            assert representative_from_wire(wire) == empty

    def test_bad_levels_rejected(self, representative):
        with pytest.raises(ValueError):
            representative_to_wire(representative, quantize=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError):
            representative_from_wire({"kind": "nope"})

    def test_code_out_of_range_rejected(self, representative):
        wire = representative_to_wire(representative, quantize=300)
        wire["fields"]["mean"]["codes"][0] = 999
        with pytest.raises(WireFormatError):
            representative_from_wire(wire)

    def test_wrong_code_count_rejected(self, representative):
        wire = representative_to_wire(representative, quantize=300)
        wire["fields"]["mean"]["codes"].append(0)
        with pytest.raises(WireFormatError):
            representative_from_wire(wire)

    def test_missing_required_field_rejected(self, representative):
        wire = representative_to_wire(representative, quantize=300)
        del wire["fields"]["std"]
        with pytest.raises(WireFormatError):
            representative_from_wire(wire)


class TestSnapshotWire:
    def test_roundtrip_and_envelope(self, representative):
        from repro.fleet import RepresentativeSnapshot

        snapshot = RepresentativeSnapshot("db1", 7, representative)
        wire = snapshot_to_wire(snapshot)
        assert list(wire) == ["kind", "name", "version", "representative"]
        assert wire["kind"] == "representative.snapshot"
        assert wire["representative"] == representative_to_wire(representative)
        assert snapshot_from_wire(roundtrip_json(wire)) == snapshot
        quantized = snapshot_from_wire(
            roundtrip_json(snapshot_to_wire(snapshot, quantize=256))
        )
        assert quantized.representative == quantize_representative(
            representative, levels=256
        )

    @pytest.mark.parametrize(
        "payload",
        [[], {}, {"kind": "representative"}, {"kind": "representative.snapshot"}],
    )
    def test_anything_else_rejected(self, payload):
        with pytest.raises(WireFormatError):
            snapshot_from_wire(payload)


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
