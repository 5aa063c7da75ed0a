"""Unit tests for repro.representatives.TermStats."""

import io
import json
import math

import numpy as np
import pytest

from repro.fleet import TermDeltaRecord
from repro.representatives import (
    ColumnarRepresentative,
    DatabaseRepresentative,
    TermStats,
)

NAN, INF = math.nan, math.inf


class TestValidation:
    def test_valid_quadruplet(self):
        stats = TermStats(probability=0.5, mean=0.2, std=0.1, max_weight=0.8)
        assert stats.max_weight == 0.8

    def test_triplet_allows_missing_max(self):
        assert TermStats(0.5, 0.2, 0.1).max_weight is None

    @pytest.mark.parametrize("p", [-0.1, 1.1, NAN])
    def test_probability_range(self, p):
        with pytest.raises(ValueError, match="probability"):
            TermStats(probability=p, mean=0.1, std=0.0)

    def test_negative_mean(self):
        with pytest.raises(ValueError, match="mean"):
            TermStats(0.5, -0.1, 0.0)

    def test_negative_std(self):
        with pytest.raises(ValueError, match="std"):
            TermStats(0.5, 0.1, -0.1)

    def test_negative_max(self):
        with pytest.raises(ValueError, match="max_weight"):
            TermStats(0.5, 0.1, 0.0, -0.5)

    @pytest.mark.parametrize("fields, name", [
        ((0.5, NAN, 0.1), "mean"),
        ((0.5, INF, 0.1), "mean"),
        ((0.5, 0.1, NAN), "std"),
        ((0.5, 0.1, INF), "std"),
        ((0.5, 0.1, 0.1, NAN), "max_weight"),
        ((0.5, 0.1, 0.1, INF), "max_weight"),
    ])
    def test_non_finite_statistic(self, fields, name):
        with pytest.raises(ValueError, match=name):
            TermStats(*fields)

    def test_frozen(self):
        stats = TermStats(0.5, 0.1, 0.0)
        with pytest.raises(AttributeError):
            stats.mean = 0.9


class TestViews:
    def test_without_max_weight(self):
        quad = TermStats(0.5, 0.2, 0.1, 0.8)
        triple = quad.without_max_weight()
        assert triple.max_weight is None
        assert (triple.probability, triple.mean, triple.std) == (0.5, 0.2, 0.1)

    def test_without_max_weight_idempotent(self):
        triple = TermStats(0.5, 0.2, 0.1).without_max_weight()
        assert triple.max_weight is None


class TestNonFiniteStatisticsFromOutside:
    """Python's ``json`` parses ``NaN`` and ``Infinity``, and a ``.npz``
    carries any float: each route a representative arrives by refuses a
    statistic outside the term-statistics domain."""

    def test_json_representative(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(
            '{"kind": "representative", "name": "db", "n_documents": 2,'
            ' "terms": {"t": [0.5, NaN, 0.1, 0.3]}}',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="mean"):
            DatabaseRepresentative.load(path)

    def test_delta_record(self):
        with pytest.raises(ValueError, match="max_weight"):
            TermDeltaRecord(op="set", term="t", stats=TermStats(0.5, 0.1, 0.1, INF))
        with pytest.raises(ValueError):
            TermDeltaRecord.from_wire(json.loads('["set", "t", 0.5, 0.1, NaN, null]'))

    @pytest.mark.parametrize("column, value", [
        ("p", NAN), ("p", 1.5), ("w", INF), ("sigma", -0.1), ("mw", INF),
    ])
    def test_npz(self, column, value):
        rep = DatabaseRepresentative(
            "db", 2, {"t": TermStats(0.5, 0.1, 0.1, 0.3)}
        )
        buffer = io.BytesIO()
        ColumnarRepresentative.from_representative(rep).save_npz(buffer)
        buffer.seek(0)
        with np.load(buffer) as data:
            members = {key: data[key] for key in data.files}
        members[column] = np.array([value])
        tampered = io.BytesIO()
        np.savez(tampered, **members)
        tampered.seek(0)
        with pytest.raises(ValueError, match="out of domain"):
            ColumnarRepresentative.load_npz(tampered)
