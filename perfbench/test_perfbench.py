"""Self-tests of the benchmark harness, on tiny configs.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from gomp import bench, projection_design  # noqa: E402
from gomp.bench import SweepConfig, SweepResult, SweepRow  # noqa: E402
from gomp.projection_design import DesignConfig  # noqa: E402
from tracing import Span, Tracer, self_times, tracing  # noqa: E402

TINY_SWEEP = SweepConfig(
    N=4, M=8, P=16, K=2, L=4, trials=3, seed=7, snr_grid_db=(10.0, 20.0), design=DesignConfig(t_max=5)
)
TINY_COHERENCE = SweepConfig(
    N=4, M=8, P=16, K=1, L=4, trials=1, seed=7, p_grid=(16, 32),
    methods=("designed", "dft", "random", "gd_prior_b"), design=DesignConfig(t_max=5),
)


def _span(i, start, end, parent):
    return Span(id=i, name=f"s{i}", start=start, end=end, parent=parent, trial=0)


def test_self_times_hand_worked():
    # root [0,10] holds A [1,4] and B [5,6]; A holds G [2,3]
    spans = [_span(0, 0.0, 10.0, None), _span(1, 1.0, 4.0, 0), _span(2, 2.0, 3.0, 1), _span(3, 5.0, 6.0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_linesearch_replay_hand_worked():
    # start 0.05: accept (double), accept (double), three halvings from 0.2,
    # accept (double), then the halving cap of 20
    steps = [0.05, 0.1, 0.025, 0.025, 0.05 * 2.0**-20]
    assert layers.linesearch_evals(steps, 0.05) == [1, 1, 4, 1, 20]
    assert layers.linesearch_evals([0.03], 0.05) is None


def test_linesearch_replay_matches_design_objective_evaluations(monkeypatch):
    """design() evaluates its Gram statistics once at the start, once per
    line-search try and once per accepted iterate; each evaluation takes
    column norms with axis=0, so counting those counts the tries."""
    calls = {"stats": 0}

    def norm(x, *args, **kwargs):
        if kwargs.get("axis") == 0:
            calls["stats"] += 1
        return np.linalg.norm(x, *args, **kwargs)

    class CountingNumpy:
        linalg = types.SimpleNamespace(norm=norm)

        def __getattr__(self, name):
            return getattr(np, name)

    dictionary = bench.build_dictionary(32, 2 * np.pi, 16)
    cfg = DesignConfig(t_max=12, step_size=5.0)  # a large start forces halvings
    phi0 = projection_design.initial_projection(dictionary, 4, cfg)
    monkeypatch.setattr(projection_design, "np", CountingNumpy())
    trace = projection_design.design(dictionary, cfg, phi0)
    evals = layers.linesearch_evals(trace.step_per_iter, cfg.step_size)
    assert evals is not None and max(evals) > 1
    assert calls["stats"] == 1 + cfg.t_max + sum(evals)


def test_support_hit_hand_built():
    # optimal pairing matches 0.1 with 0.09 and 0.5 with 0.52, both within 0.05
    assert layers.support_hit([0.1, 0.5], [0.52, 0.09], spacing=0.1)
    # 0.62 is 0.12 from 0.5, beyond half a cell
    assert not layers.support_hit([0.1, 0.5], [0.1, 0.62], spacing=0.1)


def _targets():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in layers.TARGETS}


def test_tracing_restores_module_attributes():
    before = _targets()
    with tracing(layers.TARGETS, Tracer()):
        assert all(getattr(importlib.import_module(m), a) is not fn for (m, a), fn in before.items())
    assert _targets() == before
    with pytest.raises(ZeroDivisionError):
        with tracing(layers.TARGETS, Tracer()):
            1 / 0
    assert all(getattr(importlib.import_module(m), a) is fn for (m, a), fn in before.items())


def _csv(result, path):
    bench.emit_csv(result, path)
    return path.read_bytes()


def test_traced_sweep_is_byte_identical_and_accounted(tmp_path):
    plain = _csv(bench.run_mse_sweep(TINY_SWEEP), tmp_path / "a.csv")
    start = time.perf_counter()
    with tracing(layers.TARGETS, Tracer(layers.NEW_TRIAL_ON, layers.KEEP_RESULTS)) as tracer:
        result = bench.run_mse_sweep(TINY_SWEEP)
    wall = time.perf_counter() - start
    assert _csv(result, tmp_path / "b.csv") == plain
    spans = tracer.spans
    trials = TINY_SWEEP.trials * len(TINY_SWEEP.snr_grid_db)
    assert sum(s.name == "estimator.estimate" for s in spans) == trials
    assert {s.trial for s in spans if s.name == "estimator.estimate"} == set(range(1, trials + 1))
    assert sum(self_times(spans)) <= wall
    metrics = layers.layer_metrics(spans, TINY_SWEEP.design.step_size, bench.mse_frequencies)
    assert 0.0 < metrics["estimator.step_accept_ratio"] <= 1.0
    assert 0.0 <= metrics["support_hit_rate"] <= 1.0
    assert metrics["mse_refined_p50"] > 0.0
    assert metrics["projection_design.linesearch_evals_per_iter"] >= 1.0


def test_design_iteration_count_matches_traced_design_runs():
    with tracing(layers.TARGETS, Tracer(keep_results=layers.KEEP_RESULTS)) as tracer:
        result = bench.run_coherence_experiment(TINY_COHERENCE)
    traced = sum(len(s.result.coherence_per_iter) - 1 for s in tracer.spans if s.name == "projection_design.design")
    checked = workloads.check_coherence(TINY_COHERENCE, result, b"")
    assert checked.ok and checked.failed == 0
    assert checked.ops == traced == sum(workloads.design_iterations(TINY_COHERENCE).values())


def test_checks_flag_malformed_outputs():
    cfg = SweepConfig(N=4, M=8, P=16, K=1, L=4, trials=3, snr_grid_db=(10.0, 20.0))
    good = SweepRow("designed", 10.0, 1e-3, 1e-4, 0.01, 3, 0)
    short = SweepRow("designed", 20.0, 1e-3, 1e-4, 0.01, 2, 0)
    assert workloads.check_sweep(cfg, SweepResult(rows=(good, good)), b"").ok
    bad = workloads.check_sweep(cfg, SweepResult(rows=(good, short)), b"")
    assert not bad.ok and bad.failed == cfg.trials
    result = bench.run_coherence_experiment(TINY_COHERENCE)
    truncated = type(result)(rows=result.rows[1:])
    assert not workloads.check_coherence(TINY_COHERENCE, truncated, b"").ok


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-fig3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
