"""Correctness checks on answers, independent of the engine's own code.

An answer is ``(row_id, row, similarity, base_similarity)``.  The
ranking contracts are restated here rather than imported, so a change
to ``repro.core.results`` cannot silently redefine what the benchmark
accepts.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["check_gathered", "check_ranked"]

Answer = tuple[int, tuple, float, float]


def _strictly_increasing(keys: list[tuple]) -> bool:
    return all(a < b for a, b in zip(keys, keys[1:]))


def check_ranked(answers: Sequence[Answer], k: int) -> list[str]:
    """``answer()``: at most ``k`` answers, in ``answer_rank_key`` order
    (query similarity desc, base similarity desc, row id asc)."""
    problems = []
    if len(answers) > k:
        problems.append(f"{len(answers)} answers for k={k}")
    keys = [(-sim, -base, row_id) for row_id, _, sim, base in answers]
    if not _strictly_increasing(keys):
        problems.append("answers out of answer_rank_key order")
    return problems


def check_gathered(answers: Sequence[Answer], threshold: float) -> list[str]:
    """``gather_similar()``: every answer above ``T_sim``, in
    ``base_rank_key`` order (base similarity desc, row id asc)."""
    problems = []
    low = [row_id for row_id, _, _, base in answers if not base > threshold]
    if low:
        problems.append(f"rows {low[:5]} at or below T_sim={threshold}")
    keys = [(-base, row_id) for row_id, _, _, base in answers]
    if not _strictly_increasing(keys):
        problems.append("gathered answers out of base_rank_key order")
    return problems
