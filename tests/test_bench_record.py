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

SPEC = {"end_to_end": [
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
