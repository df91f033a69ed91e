"""Benchmark harness tests.

Sorted-pairing frequency MSE (with a brute-force permutation oracle),
scene drawing determinism and separation, CSV emission contracts, config
parsing and validation, and small deterministic experiment runs.
"""

import itertools
import json
import math

import numpy as np
import pytest

from gomp.bench import (
    CoherenceResult,
    SweepConfig,
    SweepResult,
    SweepRow,
    build_projection,
    config_from_dict,
    draw_scene,
    emit_csv,
    load_config,
    mse_frequencies,
    read_measurements_csv,
    run_coherence_experiment,
    run_design_trace,
    run_mse_sweep,
    write_measurements_csv,
)
from gomp.estimator import GompConfig
from gomp.projection_design import DesignConfig


def _cfg(**kw):
    defaults = dict(N=4, M=8, P=16, K=1, L=4, trials=3, seed=1,
                    snr_grid_db=(10.0,), design=DesignConfig(t_max=10),
                    gomp=GompConfig(i_max=3, j_max=2))
    defaults.update(kw)
    return SweepConfig(**defaults)


# ------------------------------------------------------------------- metric

def test_mse_identical_vectors():
    assert mse_frequencies([0.1, 0.5], [0.1, 0.5]) == 0.0


def test_mse_permutation_invariant():
    assert mse_frequencies([0.1, 0.5, 0.9], [0.9, 0.1, 0.5]) == 0.0


def test_mse_direct_arithmetic():
    assert mse_frequencies([0.1, 0.5], [0.11, 0.48]) == pytest.approx(5e-4)


def test_mse_symmetric():
    t = [0.2, 1.4, 2.0]
    e = [0.25, 1.1, 2.2]
    assert mse_frequencies(t, e) == pytest.approx(mse_frequencies(e, t))


def test_mse_matches_brute_force_assignment():
    """Exhaustive permutation minimum is the oracle for K <= 4."""
    rng = np.random.default_rng(41)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        t = rng.uniform(0, 2 * np.pi, k)
        e = rng.uniform(0, 2 * np.pi, k)
        brute = min(
            sum((t[i] - e[p[i]]) ** 2 for i in range(k))
            for p in itertools.permutations(range(k))
        )
        assert mse_frequencies(t, e) == pytest.approx(brute, rel=1e-12)


def test_mse_rejects_length_mismatch():
    with pytest.raises(ValueError):
        mse_frequencies([0.1], [0.1, 0.2])


# -------------------------------------------------------------------- scene

def test_draw_scene_deterministic():
    cfg = _cfg(K=3, N=8)
    a = draw_scene(cfg, 77)
    b = draw_scene(cfg, 77)
    assert np.array_equal(a.nu, b.nu)
    assert np.array_equal(a.X, b.X)


def test_draw_scene_range_and_separation():
    cfg = _cfg(K=3, N=8, M=16, P=32, nu_max=2 * np.pi)
    sep = cfg.separation
    assert sep == pytest.approx(2 * 2 * np.pi / 32)
    for seed in range(10_000):
        nu = draw_scene(cfg, seed).nu
        assert nu.min() >= 0 and nu.max() <= cfg.nu_max
        assert np.min(np.diff(np.sort(nu))) >= sep


def test_draw_scene_on_grid_snaps():
    cfg = _cfg(K=2, N=8, on_grid=True)
    grid = cfg.nu_max * np.arange(cfg.P) / cfg.P
    for seed in range(50):
        nu = draw_scene(cfg, seed).nu
        assert all(v in grid for v in nu)


def test_draw_scene_infeasible_separation():
    cfg = _cfg(K=4, N=8, min_separation=3.0)
    with pytest.raises(ValueError, match="separation"):
        draw_scene(cfg, 0)


# ------------------------------------------------------------------- config

def test_config_constraint_messages():
    with pytest.raises(ValueError, match="K <= N"):
        _cfg(K=5, N=4)
    with pytest.raises(ValueError, match="N <= M"):
        _cfg(N=9, M=8, K=1)
    with pytest.raises(ValueError, match="M <= P"):
        _cfg(M=32, P=16)
    with pytest.raises(ValueError, match="trials >= 1"):
        _cfg(trials=0)


def test_config_from_dict_flat_keys():
    cfg = config_from_dict({
        "N": 4, "M": 8, "P": 16, "K": 2, "L": 4, "trials": 5, "seed": 3,
        "i_max": 7, "j_max": 2, "t_max": 11, "step_size": 0.1, "alpha": 2.0,
        "snr_grid_db": [0, 10], "projection_kind": "random",
    })
    assert cfg.gomp.i_max == 7 and cfg.gomp.j_max == 2
    assert cfg.design.t_max == 11 and cfg.design.alpha == 2.0
    assert cfg.snr_grid_db == (0.0, 10.0)
    assert cfg.projection_kind == "random"


def test_config_unknown_key_is_named():
    with pytest.raises(ValueError, match="snr_grid"):
        config_from_dict({"snr_grid": [0]})


def test_config_on_grid_casting():
    for value, expected in [(True, True), (False, False), ("false", False), ("TRUE", True), ("False", False)]:
        assert config_from_dict({"on_grid": value}).on_grid is expected
    for value in ("no", "0", 0, 1, None):
        with pytest.raises(ValueError, match="on_grid"):
            config_from_dict({"on_grid": value})


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"N": 4, "M": 8, "P": 16, "K": 2, "L": 4}))
    cfg = load_config(path, overrides={"K": 1, "seed": 9})
    assert cfg.K == 1 and cfg.seed == 9 and cfg.N == 4


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_config(path)


# ------------------------------------------------------------------ emit_csv

def test_emit_csv_empty_result_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(SweepResult(rows=()), path)
    assert path.read_text() == "method,snr_db,mse_ongrid,mse_refined,trials_ok,failed_trials\n"


def test_emit_csv_round_trip_at_printed_precision(tmp_path):
    row = SweepRow("designed", 10.0, 1.2345678912345e-4, 9.87654321e-6, 0.5, 7, 1)
    path = tmp_path / "r.csv"
    emit_csv(SweepResult(rows=(row,)), path)
    lines = path.read_text().strip().splitlines()
    vals = lines[1].split(",")
    assert vals[0] == "designed"
    assert float(vals[1]) == 10.0
    # reprinting the parsed value reproduces the field exactly
    assert f"{float(vals[2]):.9g}" == vals[2]
    assert f"{float(vals[3]):.9g}" == vals[3]
    assert vals[4] == "7" and vals[5] == "1"


def test_emit_csv_deterministic_bytes(tmp_path):
    cfg = _cfg(projection_kind="random")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_mse_sweep(cfg), a)
    emit_csv(run_mse_sweep(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_csv_io_error_names_path():
    with pytest.raises(OSError, match="no/such/dir"):
        emit_csv(SweepResult(rows=()), "/no/such/dir/out.csv")


def test_measurements_csv_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    y = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    path = tmp_path / "y.csv"
    write_measurements_csv(y, path)
    back = read_measurements_csv(path)
    assert np.array_equal(back, y)
    assert path.read_text().splitlines()[0] == "3,5"


def test_measurements_csv_trailing_i_and_non_finite(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("2,2\n1+2i, -0.5i\n\n3,4-1j\n")
    assert np.array_equal(read_measurements_csv(path), np.array([[1 + 2j, -0.5j], [3, 4 - 1j]]))
    for bad, where in [("inf", "line 3, column 1"), ("1+nani", "line 3, column 1"), ("2,1e999j", "line 3, column 2")]:
        entries = bad if "," in bad else bad + ",0"
        path.write_text(f"2,2\n1,2\n{entries}\n")
        with pytest.raises(ValueError, match=f"{where}: non-finite"):
            read_measurements_csv(path)
    path.write_text("1,2\n1,2x\n")
    with pytest.raises(ValueError, match="line 2, column 2: cannot parse '2x'"):
        read_measurements_csv(path)


# -------------------------------------------------------------- experiments

def test_build_projection_kinds():
    cfg = _cfg()
    from gomp.array_model import build_dictionary
    d = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    for kind in ("designed", "dft", "random", "gd_prior_a", "gd_prior_b"):
        phi, trace = build_projection(kind, d, cfg)
        assert phi.phi.shape == (cfg.N, cfg.M)
        assert np.max(np.abs(np.abs(phi.phi) - 1.0)) < 1e-9
        if kind in ("dft", "random"):
            assert trace is None
        else:
            assert trace is not None
    with pytest.raises(ValueError, match="unknown projection kind"):
        build_projection("fancy", d, cfg)


def test_design_trace_rows_shape():
    cfg = _cfg()
    result = run_design_trace(cfg)
    rows = list(result.csv_rows())
    assert len(rows) == cfg.design.t_max + 1
    assert rows[0][0] == 0
    assert all(len(r) == 3 for r in rows)


def test_coherence_experiment_baselines_constant():
    cfg = _cfg(methods=("dft", "random"), p_grid=(16,))
    result = run_coherence_experiment(cfg)
    by_method = {}
    for method, p, it, mu in result.rows:
        by_method.setdefault(method, []).append(mu)
    for method, mus in by_method.items():
        assert len(set(mus)) == 1, f"{method} trace not constant"


def test_coherence_experiment_designed_best_so_far():
    cfg = _cfg(methods=("designed",), p_grid=(16,))
    result = run_coherence_experiment(cfg)
    mus = [mu for _, _, _, mu in result.rows]
    assert mus[-1] <= mus[0] + 1e-15


def test_mse_sweep_noiseless_on_grid_zero_error():
    cfg = _cfg(K=1, N=8, M=16, P=32, snr_grid_db=(math.inf,), on_grid=True,
               trials=5, gomp=GompConfig(i_max=5, j_max=2))
    result = run_mse_sweep(cfg)
    row = result.rows[0]
    assert row.trials_ok == 5 and row.failed_trials == 0
    assert row.mse_ongrid == 0.0
    assert row.mse_refined < 1e-20


def test_mse_sweep_counts_sum_to_trials():
    cfg = _cfg(trials=4, snr_grid_db=(0.0, 10.0))
    result = run_mse_sweep(cfg)
    for row in result.rows:
        assert row.trials_ok + row.failed_trials == 4
