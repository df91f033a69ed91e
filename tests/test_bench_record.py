"""tools/bench_record.py: the summary of paired runs against the parent,
which the bounds gate, and against the anchor, which is only reported."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = {"run_seconds": 3, "end_to_end": [
    {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]}


def _runs(ops):
    return [{"metrics": {"ops_per_s": v, "latency_ms_p50": 1000.0 / v}, "raw_metrics": None} for v in ops]


def test_summary_against_parent_and_anchor():
    runs = {"parent": _runs([100, 110, 90]), "change": _runs([170, 180, 80]), "anchor": _runs([50, 50, 50])}
    vs_parent = bench_record.summarize(runs, SPEC)
    ops = vs_parent["ops_per_s"]
    assert ops["bound"] == 0.25 and "raw" not in ops
    assert ops["scaled"]["ratio_change_over_parent"] == pytest.approx(1.7)
    assert ops["scaled"]["parent_iqr"] == pytest.approx(10.0)
    assert ops["scaled"]["pairs_won"] == "2/3" and ops["scaled"]["within_bound"]
    assert vs_parent["latency_ms_p50"]["scaled"]["pairs_won"] == "2/3"

    vs_anchor = bench_record.summarize(runs, SPEC, "anchor")
    ops = vs_anchor["ops_per_s"]
    assert "bound" not in ops and "within_bound" not in ops["scaled"]
    assert ops["scaled"]["ratio_change_over_anchor"] == pytest.approx(3.4)
    assert ops["scaled"]["anchor_iqr"] == 0.0
    assert ops["scaled"]["pairs_won"] == "3/3"
    assert vs_anchor["latency_ms_p50"]["scaled"]["ratio_change_over_anchor"] == pytest.approx(50 / 170)


def test_seeds_of_ranges_and_lists():
    assert bench_record.seeds_of("1-3,7,10-11") == [1, 2, 3, 7, 10, 11]


def test_record_counts_each_checkouts_source_lines(tmp_path):
    """Every record holds each checkout's src/gomp/*.py line total, as wc -l
    counts it; a record with no plan runs nothing else."""
    for side, files in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}), ("change", {"a.py": "x = 1\n"})):
        (tmp_path / side / "src" / "gomp").mkdir(parents=True)
        for name, text in {**files, "notes.txt": "not\ncounted\n"}.items():
            (tmp_path / side / "src" / "gomp" / name).write_text(text)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--out", str(out)])
    checkouts = json.loads(out.read_text())["checkouts"]
    assert checkouts["parent"]["src_lines"] == 3 and checkouts["change"]["src_lines"] == 1


def test_run_order_gives_each_side_each_position_equally_often():
    """Over every n pairs each of n sides runs once in each position; with
    three sides every 6 pairs run all 6 orders, and the change is not
    always in the middle."""
    for sides in (("parent", "change"), ("parent", "change", "anchor"), ("parent", "change", "anchor", "aa")):
        n = len(sides)
        orders = [bench_record.order(sides, i) for i in range(2 * n)]
        for block in (orders[:n], orders[n:]):
            for position in range(n):
                assert sorted(o[position] for o in block) == sorted(sides)
    three = {bench_record.order(("p", "c", "a"), i) for i in range(6)}
    assert len(three) == 6


def test_summary_of_aa_runs_and_scaled_raw_agreement():
    """The aa/parent summary has ratios and pairs won but no bound; each
    metric states whether its scaled and raw ratios point the same way."""
    def runs(scaled, raw):
        return [{"metrics": {"ops_per_s": s, "latency_ms_p50": 1000.0 / s},
                 "raw_metrics": {"ops_per_s": r, "latency_ms_p50": 1000.0 / s}} for s, r in zip(scaled, raw)]

    all_runs = {"parent": runs([100, 100, 100], [100, 100, 100]),
                "aa": runs([90, 95, 110], [90, 95, 110]),
                "change": runs([120, 130, 125], [95, 96, 97])}
    aa = bench_record.summarize(all_runs, SPEC, "parent", "aa")["ops_per_s"]
    assert "bound" not in aa and "within_bound" not in aa["scaled"]
    assert aa["scaled"]["ratio_aa_over_parent"] == pytest.approx(0.95)
    assert aa["raw"]["pairs_won"] == "1/3" and aa["scaled_raw_agree"]
    change = bench_record.summarize(all_runs, SPEC)
    assert change["ops_per_s"]["scaled"]["ratio_change_over_parent"] == pytest.approx(1.25)
    assert change["ops_per_s"]["raw"]["ratio_change_over_parent"] == pytest.approx(0.96)
    assert not change["ops_per_s"]["scaled_raw_agree"]
    assert change["latency_ms_p50"]["scaled_raw_agree"]  # the same values on both sides
    assert bench_record.direction(1.0) == 0 and bench_record.direction(0.5) == -1


def test_record_rotates_positions_and_runs_the_parent_twice_with_aa(tmp_path, monkeypatch):
    """With --anchor and --aa each pair runs four sides, the parent checkout
    twice; every run records its position, each side holds each position
    once in every 4 pairs, and the traced runs skip the aa side."""
    for side in ("parent", "change", "anchor"):
        (tmp_path / side / "src" / "gomp").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        assert seconds == SPEC["run_seconds"]
        calls.append((checkout.name, seed, trace))
        return {"git": {"commit": checkout.name, "dirty": False}, "seed": seed,
                "metrics": {"ops_per_s": 100.0, "latency_ms_p50": 10.0}, "raw_metrics": None,
                "host_speed": {}, "setup_runs_s": [], "attempted": 1, "failed": 0, "correct": True,
                "environment": {}}

    monkeypatch.setattr(bench_record, "run", fake_run)
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                       "--anchor", str(tmp_path / "anchor"), "--aa", "--plan", "w:1-8", "--traced", "w",
                       "--out", str(out)])
    doc = json.loads(out.read_text())
    runs = doc["workloads"]["w"]["runs"]
    assert set(runs) == {"parent", "change", "anchor", "aa"}
    for side_runs in runs.values():
        positions = [r["position"] for r in side_runs]
        assert sorted(positions[:4]) == sorted(positions[4:]) == [0, 1, 2, 3]
    assert sum(1 for name, _, trace in calls if name == "parent" and trace == 0) == 16
    assert sorted(name for name, _, trace in calls if trace == 1) == ["anchor", "change", "parent"]
    assert doc["workloads"]["w"]["summary_aa"]["ops_per_s"]["scaled"]["ratio_aa_over_parent"] == 1.0
