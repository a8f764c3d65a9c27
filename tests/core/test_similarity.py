"""Unit tests for query-tuple similarity estimation."""

import pytest

from repro.core.attribute_order import uniform_ordering
from repro.core.query import ImpreciseQuery
from repro.core.similarity import (
    TupleSimilarity,
    numeric_similarity,
    range_scaled_similarity,
)
from repro.simmining.estimator import SimilarityModel


class TestNumericSimilarity:
    def test_identity(self):
        assert numeric_similarity(100, 100) == 1.0

    def test_relative_distance(self):
        assert numeric_similarity(100, 90) == pytest.approx(0.9)
        assert numeric_similarity(100, 110) == pytest.approx(0.9)

    def test_lower_bound_clamped(self):
        # Distance > 1 is clamped to 1 -> similarity 0 (paper's guard).
        assert numeric_similarity(100, 500) == 0.0

    def test_zero_reference(self):
        assert numeric_similarity(0, 0) == 1.0
        assert numeric_similarity(0, 5) == 0.0

    def test_negative_values(self):
        assert numeric_similarity(-100, -90) == pytest.approx(0.9)


class TestRangeScaledSimilarity:
    def test_identity(self):
        assert range_scaled_similarity(50, 50, 0, 100) == 1.0

    def test_absolute_scaling(self):
        assert range_scaled_similarity(50, 60, 0, 100) == pytest.approx(0.9)
        # Same absolute gap costs the same anywhere in the range.
        assert range_scaled_similarity(10, 20, 0, 100) == pytest.approx(0.9)

    def test_full_range_distance_is_zero(self):
        assert range_scaled_similarity(0, 100, 0, 100) == 0.0

    def test_degenerate_extent(self):
        assert range_scaled_similarity(5, 5, 5, 5) == 1.0
        assert range_scaled_similarity(5, 6, 5, 5) == 0.0

    def test_clamped(self):
        assert range_scaled_similarity(0, 500, 0, 100) == 0.0


class TestNumericModeSelection:
    def make(self, toy_schema, mode, extents=None):
        return TupleSimilarity(
            toy_schema,
            uniform_ordering(toy_schema),
            SimilarityModel(["Make", "Model"]),
            numeric_mode=mode,
            numeric_extents=extents,
        )

    def test_invalid_mode_rejected(self, toy_schema):
        with pytest.raises(ValueError):
            self.make(toy_schema, "euclidean")

    def test_range_mode_uses_extents(self, toy_schema):
        scorer = self.make(
            toy_schema, "range", extents={"Price": (0.0, 20000.0)}
        )
        row = ("Toyota", "Camry", 11000, 2000)
        # |10000-11000| / 20000 = 0.05 -> 0.95 (relative would give 0.9)
        assert scorer.sim_to_bindings({"Price": 10000}, row) == pytest.approx(
            0.95
        )

    def test_range_mode_falls_back_without_extent(self, toy_schema):
        scorer = self.make(toy_schema, "range", extents={})
        row = ("Toyota", "Camry", 11000, 2000)
        assert scorer.sim_to_bindings({"Price": 10000}, row) == pytest.approx(
            0.9
        )


@pytest.fixture()
def scorer(toy_schema):
    model = SimilarityModel(["Make", "Model"])
    model.record("Model", "Camry", "Accord", 0.8)
    model.record("Model", "Camry", "F-150", 0.1)
    model.record("Make", "Toyota", "Honda", 0.5)
    ordering = uniform_ordering(toy_schema)
    return TupleSimilarity(toy_schema, ordering, model)


class TestSimToBindings:
    def test_exact_match_scores_one(self, scorer):
        row = ("Toyota", "Camry", 10000, 2000)
        bindings = {"Make": "Toyota", "Model": "Camry", "Price": 10000}
        assert scorer.sim_to_bindings(bindings, row) == pytest.approx(1.0)

    def test_weighted_mix(self, scorer):
        row = ("Honda", "Accord", 10000, 2000)
        bindings = {"Model": "Camry", "Price": 10000}
        # uniform weights over 2 bound attrs: 0.5*0.8 + 0.5*1.0
        assert scorer.sim_to_bindings(bindings, row) == pytest.approx(0.9)

    def test_unknown_categorical_pair_scores_zero(self, scorer):
        row = ("Ford", "Focus", 10000, 2000)
        assert scorer.sim_to_bindings({"Model": "Camry"}, row) == pytest.approx(0.0)

    def test_null_candidate_scores_zero(self, scorer, toy_schema):
        row = ("Toyota", None, 10000, 2000)
        assert scorer.sim_to_bindings({"Model": "Camry"}, row) == 0.0

    def test_empty_bindings(self, scorer):
        assert scorer.sim_to_bindings({}, ("Toyota", "Camry", 1, 2)) == 0.0

    def test_range_in_unit_interval(self, scorer):
        row = ("Honda", "F-150", 99999, 1900)
        bindings = {"Model": "Camry", "Price": 10000, "Year": 2000}
        assert 0.0 <= scorer.sim_to_bindings(bindings, row) <= 1.0


class TestSimToQuery:
    def test_uses_like_constraints_only(self, scorer):
        from repro.core.query import LikeConstraint, PreciseConstraint
        from repro.db.predicates import Lt

        query = ImpreciseQuery(
            "Cars",
            (
                LikeConstraint("Model", "Camry"),
                PreciseConstraint(Lt("Price", 99999)),
            ),
        )
        row = ("Honda", "Accord", 1, 2000)
        # Only Model contributes: VSim(Camry, Accord) = 0.8.
        assert scorer.sim_to_query(query, row) == pytest.approx(0.8)

    def test_no_like_constraints(self, scorer):
        from repro.core.query import PreciseConstraint
        from repro.db.predicates import Lt

        query = ImpreciseQuery("Cars", (PreciseConstraint(Lt("Price", 1)),))
        assert scorer.sim_to_query(query, ("Toyota", "Camry", 0, 0)) == 0.0


class TestSimBetweenRows:
    def test_identical_rows(self, scorer):
        row = ("Toyota", "Camry", 10000, 2000)
        assert scorer.sim_between_rows(row, row) == pytest.approx(1.0)

    def test_symmetric_for_categoricals(self, scorer):
        a = ("Toyota", "Camry", 10000, 2000)
        b = ("Honda", "Accord", 10000, 2000)
        assert scorer.sim_between_rows(a, b) == pytest.approx(
            scorer.sim_between_rows(b, a)
        )

    def test_attribute_subset(self, scorer):
        a = ("Toyota", "Camry", 10000, 2000)
        b = ("Honda", "Accord", 99999, 1900)
        only_model = scorer.sim_between_rows(a, b, attributes=("Model",))
        assert only_model == pytest.approx(0.8)

    def test_null_reference_attributes_skipped(self, scorer):
        a = ("Toyota", None, 10000, 2000)
        b = ("Toyota", "Accord", 10000, 2000)
        # Model is null in the reference: similarity over remaining attrs.
        assert scorer.sim_between_rows(a, b) == pytest.approx(1.0)


class TestCompiledScorers:
    """The precompiled fast path must be bit-for-bit the reference path."""

    ROWS = [
        ("Toyota", "Camry", 10000, 2000),
        ("Honda", "Accord", 10000, 2000),
        ("Honda", "F-150", 99999, 1900),
        ("Ford", "Focus", 7000, 2001),
        ("Toyota", None, 10000, 2000),
        (None, "Camry", None, None),
    ]

    def test_bindings_scorer_bit_equal(self, scorer):
        bindings = {"Model": "Camry", "Price": 10000, "Year": 2000}
        compiled = scorer.bindings_scorer(bindings)
        for row in self.ROWS:
            assert compiled(row) == scorer.sim_to_bindings(bindings, row)

    def test_bindings_scorer_with_null_reference(self, scorer):
        bindings = {"Model": None, "Price": 10000}
        compiled = scorer.bindings_scorer(bindings)
        for row in self.ROWS:
            assert compiled(row) == scorer.sim_to_bindings(bindings, row)

    def test_query_scorer_bit_equal(self, scorer):
        query = ImpreciseQuery.like("Cars", Model="Camry", Price=10000)
        compiled = scorer.query_scorer(query)
        for row in self.ROWS:
            assert compiled(row) == scorer.sim_to_query(query, row)

    def test_row_scorer_bit_equal(self, scorer):
        reference = ("Toyota", "Camry", 10000, 2000)
        compiled = scorer.row_scorer(reference)
        for row in self.ROWS:
            assert compiled(row) == scorer.sim_between_rows(reference, row)

    def test_row_scorer_attribute_subset(self, scorer):
        reference = ("Toyota", "Camry", 10000, 2000)
        compiled = scorer.row_scorer(reference, attributes=("Model", "Price"))
        for row in self.ROWS:
            assert compiled(row) == scorer.sim_between_rows(
                reference, row, attributes=("Model", "Price")
            )

    def test_empty_bindings_scorer(self, scorer):
        assert scorer.bindings_scorer({})(("Toyota", "Camry", 1, 2)) == 0.0

    def test_weights_memo_reused(self, scorer):
        scorer.bindings_scorer({"Model": "Camry", "Price": 1})
        first = scorer._weights_memo[("Model", "Price")]
        scorer.bindings_scorer({"Model": "Accord", "Price": 2})
        assert scorer._weights_memo[("Model", "Price")] is first
