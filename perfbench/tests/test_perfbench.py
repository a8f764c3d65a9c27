"""The benchmark's own tests, at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.stats import HostClock, percentile  # noqa: E402
from perfbench.tracing import Recorder, layer_report  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SERVE_NATURAL,
    SERVE_WEIGHT,
    WORKLOADS,
    Call,
    Size,
    _check,
    _post_strata,
    _prepare,
    _untraced_gaps,
    _weighted,
    _year_probe,
    apportion,
    cardb_queries,
    census_seeds,
    interleave,
    run_workload,
    serve_pool,
    serve_requests,
    set_up,
)

TINY = Size(
    rows=800,
    sample=300,
    cardb_calls=14,
    census_calls=10,
    serve_pool=30,
    serve_requests=20,
    setup_repeats=2,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name: str, seed: int, trace: bool, lines: list[str] | None = None):
    emit = lines.append if lines is not None else (lambda line: None)
    return run_workload(name, seed, 0.0, trace, size=TINY, emit=emit)


@pytest.fixture(scope="module")
def cardb():
    source, _ = set_up("cardb", TINY, 1)
    return source


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    result = _run(name, 3, trace)
    assert result["correct"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in spec}
    emitted = {key: value["unit"] for key, value in result["metrics"].items()}
    assert emitted == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float | int)


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly_with_the_same_seed(name):
    counts = ("ok_frac", "probes_per_call", "work_per_relevant")
    first_lines: list[str] = []
    second_lines: list[str] = []
    first = _run(name, 5, False, first_lines)
    second = _run(name, 5, False, second_lines)
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key]
    digest = [line for line in first_lines if line.startswith("answer digest")]
    assert digest and digest == [
        line for line in second_lines if line.startswith("answer digest")
    ]
    layer_counts = (
        "db.rows_examined", "db.rows_returned", "db.full_scans",
        "similarity.scores", "relaxation.steps", "query.map_probes",
    )
    traced = [_run(name, 5, True)["metrics"] for _ in range(2)]
    for key in layer_counts:
        assert traced[0][key] == traced[1][key]


def test_a_different_seed_changes_the_generated_queries(cardb):
    calls = TINY.cardb_calls
    assert cardb_queries(cardb.table, 1, calls) == cardb_queries(
        cardb.table, 1, calls
    )
    assert cardb_queries(cardb.table, 1, calls) != cardb_queries(
        cardb.table, 2, calls
    )
    assert serve_pool(cardb.table, 1, TINY) != serve_pool(cardb.table, 2, TINY)
    census, _ = set_up("censusdb", TINY, 1)
    assert census_seeds(census, 1, TINY.census_calls) != census_seeds(
        census, 2, TINY.census_calls
    )


def test_checks_reject_a_reordered_answer_list():
    answers = [
        (4, ("a",), 0.9, 1.0),
        (2, ("b",), 0.8, 0.7),
        (9, ("c",), 0.8, 0.6),
    ]
    assert checks.check_ranked(answers, 10) == []
    assert checks.check_ranked(answers[::-1], 10)
    assert checks.check_ranked(answers, 2)
    gathered = sorted(answers, key=lambda a: (-a[3], a[0]))
    assert checks.check_gathered(gathered, 0.5) == []
    assert checks.check_gathered(gathered[::-1], 0.5)
    assert checks.check_gathered(gathered, 0.65)


def test_workload_check_rejects_a_reordered_engine_answer(cardb):
    prepared = _prepare("cardb_answer", cardb, 1, TINY)
    done = prepared.run(0.0, 3, False, HostClock()).done
    assert _check(prepared, done) == []
    ranked = next(call for call in done if len(call.answers) > 1)
    swapped = Call(
        ranked.index, ranked.wall_s, ranked.ok, ranked.probes,
        answers=ranked.answers[::-1],
    )
    assert _check(prepared, [swapped])


def test_year_bound_requests_go_to_the_untimed_probe(cardb):
    prepared = _prepare("serve_zipf", cardb, 1, TINY)
    assert prepared.year_pool
    for texts in prepared.year_pool:
        assert any(t.startswith("Year=") for t in texts)
        assert not any(t.startswith("Model=") for t in texts)
    refused, problems = _year_probe(prepared)
    assert problems == []
    assert 0 <= refused <= len(prepared.year_pool)
    assert _prepare("serve_zipf", cardb, 2, TINY).year_pool != prepared.year_pool


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cardb_answer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_sequences_keep_the_natural_mix():
    shares = (0.5, 0.3, 0.2)
    assert apportion(shares, 10) == (5, 3, 2)
    assert sum(apportion(SERVE_NATURAL, 997)) == 997
    merged = interleave([["a"] * 5, ["b"] * 3, ["c"] * 2])
    for end in range(1, len(merged) + 1):
        counts = Counter(merged[:end])
        for name, share in zip("abc", shares):
            assert abs(counts[name] - share * end) < 1
    strata = [j % len(SERVE_NATURAL) for j in range(200)]
    requests = serve_requests(1, strata, 1000)
    counts = Counter(strata[rank] for rank in requests)
    assert tuple(counts[j] for j in range(len(SERVE_NATURAL))) == apportion(
        _weighted(SERVE_NATURAL, SERVE_WEIGHT), 1000
    )
    assert requests != serve_requests(2, strata, 1000)


def test_trace_checks_catch_double_counted_and_unpaired_time():
    recorder = Recorder()
    outer = recorder.begin("engine")
    started = time.perf_counter()
    inner = recorder.begin("db.source")
    time.sleep(0.002)
    recorder.end(inner)
    # A leaf timer that also covers a child span counts its time twice.
    recorder.leaf("similarity.score", time.perf_counter() - started)
    recorder.end(outer)
    report = layer_report(recorder, "engine")
    assert report["min_self_s"] < -1e-6
    root_s = report["roots"][0][2]
    call = Call(0, root_s + 1e-4, True, 0, started=outer.start)
    assert _untraced_gaps(report, [call]) == pytest.approx([1e-4])
    short = Call(0, root_s / 2, True, 0, started=outer.start)
    assert _untraced_gaps(report, [short])[0] < -1e-6
    with pytest.raises(ValueError):
        _untraced_gaps(report, [call, call])


def test_post_stratification_restores_the_sequence_mix(cardb):
    prepared = _prepare("cardb_answer", cardb, 1, TINY)
    length = len(prepared.bands)
    prefix = [Call(i, 0.01, True, 0) for i in range(length // 2)]
    weights = _post_strata(prepared, prefix)
    assert sum(weights) == pytest.approx(len(prefix) * sum(
        prepared.bands.count(b) / length for b in set(prepared.bands[: len(prefix)])
    ))
    for band in set(prepared.bands[: len(prefix)]):
        in_band = [w for c, w in zip(prefix, weights) if prepared.bands[c.index] == band]
        assert sum(in_band) / len(prefix) == pytest.approx(
            prepared.bands.count(band) / length
        )
    values = [0.3, 0.1, 0.2, 0.5]
    assert percentile(values, 50.0, [1.0] * 4) == percentile(values, 50.0)
    assert percentile(values, 50.0, [1.0, 1.0, 1.0, 9.0]) > percentile(values, 50.0)
