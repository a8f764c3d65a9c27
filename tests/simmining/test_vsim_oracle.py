"""The miner against the paper's VSim formula, computed naively.

The oracle below recomputes §5.2 from the raw rows, with no supertuple
objects and no shared scoring code:

    VSim(C1, C2) = Σ_i  W_imp(A_i) · SimJ(C1.A_i, C2.A_i)

over every pair of sufficiently frequent values, in schema order, with
the weights renormalised over the unbound attributes.  Only the numeric
range labels come from the package's binner, since discretisation is a
supertuple concern rather than part of the formula.  ``mine()`` must
store exactly the oracle's non-zero pairs with bit-identical scores.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.simmining.estimator import SimilarityMinerConfig, ValueSimilarityMiner
from repro.simmining.supertuple import build_binners


def _random_table(
    rng: random.Random, n_categorical: int, n_values: int, n_rows: int
) -> Table:
    """Zipf-skewed categorical columns, one numeric column, a few nulls."""
    names = tuple(f"A{index}" for index in range(n_categorical))
    schema = RelationSchema.build(
        "prop", categorical=names, numeric=("N",), order=(*names, "N")
    )
    weights = [1.0 / (rank + 1) for rank in range(n_values)]
    table = Table(schema)
    for _ in range(n_rows):
        row = [
            None
            if rng.random() < 0.1
            else f"{name}_{rng.choices(range(n_values), weights=weights)[0]}"
            for name in names
        ]
        row.append(None if rng.random() < 0.1 else rng.randrange(0, 1000))
        table.insert(tuple(row))
    return table


def _weights(
    names: list[str], importance: dict[str, float] | None
) -> dict[str, float]:
    if importance:
        raw = {name: max(importance.get(name, 0.0), 0.0) for name in names}
        total = sum(raw.values())
        if total > 0:
            return {name: weight / total for name, weight in raw.items()}
    return {name: 1.0 / len(names) for name in names}


def _simj(left: Counter, right: Counter, bag_semantics: bool) -> float:
    if not bag_semantics:
        left_set, right_set = set(left), set(right)
        if not left_set and not right_set:
            return 1.0
        shared = len(left_set & right_set)
        return shared / (len(left_set) + len(right_set) - shared)
    left_total, right_total = sum(left.values()), sum(right.values())
    if not left_total and not right_total:
        return 1.0
    shared = sum((left & right).values())
    return shared / (left_total + right_total - shared)


def oracle(
    table: Table,
    min_value_count: int,
    bag_semantics: bool,
    importance: dict[str, float] | None,
) -> dict[str, tuple[frozenset, dict[tuple[str, str], float]]]:
    """Per attribute: the mined values and every non-zero VSim pair."""
    schema = table.schema
    binners = build_binners(table, SimilarityMinerConfig().numeric_bins)
    rows = list(table.rows())
    result = {}
    for bound in schema.categorical_names:
        others = [name for name in schema.attribute_names if name != bound]
        weights = _weights(others, importance)
        frequency: Counter = Counter()
        bags: dict[str, dict[str, Counter]] = {}
        for row in rows:
            value = row[schema.position(bound)]
            if value is None:
                continue
            frequency[value] += 1
            value_bags = bags.setdefault(value, {name: Counter() for name in others})
            for name in others:
                keyword = row[schema.position(name)]
                if keyword is None:
                    continue
                if name in binners:
                    keyword = binners[name].label(float(keyword))
                value_bags[name][keyword] += 1
        values = sorted(v for v, count in frequency.items() if count >= min_value_count)
        pairs: dict[tuple[str, str], float] = {}
        for i, left in enumerate(values):
            for right in values[i + 1 :]:
                score = 0.0
                for name in others:
                    if weights[name] == 0.0:
                        continue
                    score += weights[name] * _simj(
                        bags[left][name], bags[right][name], bag_semantics
                    )
                score = min(score, 1.0)
                if score > 0.0:
                    pairs[(left, right)] = score
        result[bound] = (frozenset(values), pairs)
    return result


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_categorical=st.integers(min_value=2, max_value=3),
    n_values=st.integers(min_value=2, max_value=8),
    n_rows=st.integers(min_value=4, max_value=60),
    min_value_count=st.integers(min_value=1, max_value=3),
    bag_semantics=st.booleans(),
    weighted=st.booleans(),
)
def test_mine_matches_naive_oracle(
    seed, n_categorical, n_values, n_rows, min_value_count, bag_semantics, weighted
):
    rng = random.Random(seed)
    table = _random_table(rng, n_categorical, n_values, n_rows)
    importance = (
        {
            name: rng.random() if rng.random() < 0.7 else 0.0
            for name in table.schema.attribute_names
        }
        if weighted
        else None
    )
    model = ValueSimilarityMiner(
        SimilarityMinerConfig(
            min_value_count=min_value_count, bag_semantics=bag_semantics
        ),
        importance_weights=importance,
    ).mine(table)
    expected = oracle(table, min_value_count, bag_semantics, importance)
    assert model.attributes == tuple(expected)
    for attribute, (values, pairs) in expected.items():
        assert model.known_values(attribute) == values
        mined = model.pairs(attribute)
        assert set(mined) == set(pairs)
        for key, score in pairs.items():
            assert mined[key].hex() == score.hex(), (attribute, key)
