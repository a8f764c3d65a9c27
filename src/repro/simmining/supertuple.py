"""Supertuples: bag-of-keyword summaries of an AV-pair's answer set.

"We represent the answerset containing each AV-pair as a structure
called the supertuple.  The supertuple contains a bag of keywords for
each attribute in the relation not bound by the AV-pair" (paper §5.2,
Table 1).  Categorical co-occurring values enter the bags directly;
numeric values are discretised into range labels — Table 1 itself shows
``Mileage 10k-15k:3`` and ``Price 1k-5k:5`` — so a
:class:`NumericBinner` derived from the sample's extents produces those
labels here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.simmining.avpair import AVPair
from repro.simmining.bag import Bag

__all__ = ["NumericBinner", "SuperTuple", "build_supertuple", "build_binners"]


@dataclass(frozen=True)
class NumericBinner:
    """Equal-width discretiser mapping numbers to range labels."""

    attribute: str
    low: float
    high: float
    n_bins: int

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ValueError("n_bins must be at least 1")
        if self.low > self.high:
            raise ValueError(f"inverted extent {self.low}..{self.high}")

    @property
    def width(self) -> float:
        if self.high == self.low:
            return 1.0
        return (self.high - self.low) / self.n_bins

    def bin_index(self, value: float) -> int:
        """Index of the bin containing ``value`` (clamped to the extent)."""
        if value <= self.low:
            return 0
        if value >= self.high:
            return self.n_bins - 1
        return min(int((value - self.low) / self.width), self.n_bins - 1)

    def label(self, value: float) -> str:
        """Human-readable range label, e.g. ``"10000-15000"``."""
        index = self.bin_index(value)
        bin_low = self.low + index * self.width
        bin_high = bin_low + self.width
        return f"{bin_low:g}-{bin_high:g}"


def build_binners(
    table: Table, n_bins: int = 10
) -> dict[str, NumericBinner]:
    """One binner per numeric attribute, sized to the sample's extent."""
    binners: dict[str, NumericBinner] = {}
    for name in table.schema.numeric_names:
        extent = table.numeric_extent(name)
        if extent is None:
            continue
        low, high = float(extent[0]), float(extent[1])
        binners[name] = NumericBinner(
            attribute=name, low=low, high=high, n_bins=n_bins
        )
    return binners


class SuperTuple:
    """Per-attribute keyword bags describing one AV-pair's answer set."""

    def __init__(
        self,
        avpair: AVPair,
        bags: Mapping[str, Bag],
        answerset_size: int,
    ) -> None:
        self.avpair = avpair
        self._bags = dict(bags)
        self.answerset_size = answerset_size

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes summarised by this supertuple (all but the bound one)."""
        return tuple(self._bags)

    def bag(self, attribute: str) -> Bag:
        """The keyword bag for ``attribute`` (empty bag if absent)."""
        return self._bags.get(attribute, Bag())

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._bags

    def describe(self, top: int = 5) -> str:
        """Render in the 2-column style of paper Table 1."""
        lines = [f"SuperTuple[{self.avpair}] ({self.answerset_size} tuples)"]
        for attribute in self.attributes:
            entries = ", ".join(
                f"{keyword}:{count}"
                for keyword, count in self.bag(attribute).most_common(top)
            )
            lines.append(f"  {attribute:<12} {entries}")
        return "\n".join(lines)


def build_supertuple(
    avpair: AVPair,
    rows: Sequence[tuple],
    schema: RelationSchema,
    binners: Mapping[str, NumericBinner] | None = None,
) -> SuperTuple:
    """Summarise ``rows`` (the AV-pair's answer set) into a supertuple.

    ``rows`` must already be the answer set of ``avpair.as_query()``;
    the builder does not re-filter.  Null values contribute nothing to
    the bags.
    """
    binners = binners or {}
    keyword_lists: dict[str, list] = {
        attribute.name: []
        for attribute in schema
        if attribute.name != avpair.attribute
    }
    for row in rows:
        for attribute in schema:
            name = attribute.name
            if name == avpair.attribute:
                continue
            value = row[schema.position(name)]
            if value is None:
                continue
            if attribute.is_numeric and name in binners:
                keyword_lists[name].append(binners[name].label(float(value)))
            else:
                keyword_lists[name].append(value)
    bags = {name: Bag(items) for name, items in keyword_lists.items()}
    return SuperTuple(avpair=avpair, bags=bags, answerset_size=len(rows))
