"""Command-line interface tests: exit codes, diagnostics, file outputs."""

import json
import time

import numpy as np
import pytest

from gomp.array_model import build_dictionary, steering_matrix
from gomp.bench import write_measurements_csv
from gomp.cli import cli
from gomp.projection_design import random_cm_projection


def _cn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _write_cfg(tmp_path, **kw):
    data = dict(N=4, M=8, P=16, K=1, L=4, trials=2, t_max=10,
                i_max=3, j_max=2, snr_grid_db=[10.0])
    data.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_design_subcommand_writes_trace(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "trace.csv"
    assert cli(["design", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,eta,mu_max"
    assert len(lines) == 12  # header + t_max+1 rows


def test_coherence_subcommand(tmp_path):
    cfg = _write_cfg(tmp_path, methods=["dft", "random"])
    out = tmp_path / "coh.csv"
    assert cli(["coherence", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "method,P,iter,mu_max"


def test_sweep_subcommand_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, projection_kind="random")
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli(["sweep", "--config", cfg, "--seed", "3", "--out", str(out1)]) == 0
    assert cli(["sweep", "--config", cfg, "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_single_trial_completes_quickly(tmp_path):
    """Fig-3 dimensions with one trial and one SNR point, under 10 s of
    this process's CPU time, which other processes on the host do not
    inflate as they do wall time."""
    cfg = _write_cfg(tmp_path, N=16, M=64, P=64, K=5, L=16, trials=1,
                     snr_grid_db=[10.0], t_max=50, i_max=10, j_max=5)
    out = tmp_path / "one.csv"
    start = time.process_time()
    assert cli(["sweep", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
    elapsed = time.process_time() - start
    print(f"\n  single-trial sweep took {elapsed:.2f} s of CPU time")
    assert elapsed < 10.0


def test_sweep_reads_only_the_product_of_the_budget_keys(tmp_path):
    """i_max and j_max set one budget of i_max * j_max joint steps:
    (3, 2), (6, 1) and (1, 6) give byte-identical CSVs, and a budget of
    one step does not, so the budget reaches the output."""
    cfg = _write_cfg(tmp_path, K=2, trials=4, snr_grid_db=[10.0, 20.0])
    outputs = {}
    for i_max, j_max in [(3, 2), (6, 1), (1, 6), (1, 1)]:
        out = tmp_path / f"s{i_max}{j_max}.csv"
        assert cli(["sweep", "--config", cfg, "--seed", "3", "--out", str(out),
                    "--set", f"i_max={i_max}", "--set", f"j_max={j_max}"]) == 0
        outputs[i_max, j_max] = out.read_bytes()
    assert outputs[3, 2] == outputs[6, 1] == outputs[1, 6] != outputs[1, 1]


def test_sweep_snr_that_overflows_y_fails_naming_it(tmp_path, capsys):
    """At -3080 dB the noise scale passes the load check, which assumes
    unit powers, but ||Y||_F^2 of the draw overflows: the sweep exits 2
    naming the SNR and writes no row. -3000 dB still gives finite rows."""
    args = ["sweep", "--seed", "1", *(arg for kv in ("N=4", "M=8", "P=16", "K=1", "L=4", "trials=3")
                                      for arg in ("--set", kv))]
    out = tmp_path / "s.csv"
    assert cli([*args, "--set", "snr_grid_db=[-3080]", "--out", str(out)]) == 2
    assert "snr_db -3080" in capsys.readouterr().err
    assert not out.exists()
    assert cli([*args, "--set", "snr_grid_db=[-3000]", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[:2] == ["designed", "-3000"] and row[4:] == ["3", "0"]
    assert all(np.isfinite(float(v)) for v in row[2:4])


def test_design_of_undesigned_projection_kind_fails_naming_it(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, projection_kind="dft")
    out = tmp_path / "trace.csv"
    assert cli(["design", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
    assert "projection_kind 'dft'" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_k_exceeding_n_names_constraint(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, K=7, N=4)
    rc = cli(["sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "K <= N" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("nu_max", "Infinity"),
    ("nu_max", "12.566370614359172"),
    ("nu_max", "6.283185307179587"),
    ("scene_nu_max", "12.566370614359172"),
    ("scene_nu_max", "NaN"),
    ("scene_nu_max", "-1"),
    ("min_separation", "-1"),
    ("snr_grid_db", "[NaN]"),
    ("snr_grid_db", "[-Infinity]"),
    ("snr_grid_db", "[-4000]"),
    ("snr_grid_db", "[4000]"),
    ("snr_grid_db", "[true]"),
    ("trials", "true"),
    ("N", "true"),
    ("alpha_candidates", "[]"),
    ("alpha_candidates", "[0.5]"),
    ("p_grid", "[4]"),
    ("i_max", "0"),
    ("j_max", "0"),
    ("step_size", "1e400"),
])
def test_bad_config_value_fails_at_load_and_names_key(tmp_path, capsys, key, value):
    """Values that would fail or mislead only once an experiment runs are
    rejected when the config is built (N=4, M=8, P=16)."""
    cfg = _write_cfg(tmp_path, trials=1, t_max=2)
    rc = cli(["sweep", "--config", cfg, "--seed", "1", "--out",
              str(tmp_path / "x.csv"), "--set", f"{key}={value}"])
    assert rc == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, sizes", [
    ("design", "N=1,M=1,P=1,K=1"),
    ("design", "N=1,M=1,P=4,K=1"),
    ("sweep", "N=1,M=1,P=4,K=1"),
])
def test_single_sensor_fails_at_load(tmp_path, capsys, command, sizes):
    """A one-sensor array (M=1) has no two columns to design or refine
    with; it is a configuration error, not a runtime failure."""
    cfg = _write_cfg(tmp_path, trials=1, t_max=2)
    overrides = [arg for size in sizes.split(",") for arg in ("--set", size)]
    rc = cli([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "x.csv"), *overrides])
    assert rc == 1
    assert "M >= 2" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unknown_flag_fails_usage(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    rc = cli(["sweep", "--config", cfg, "--seed", "1", "--out",
              str(tmp_path / "x.csv"), "--nope"])
    assert rc == 1
    assert "--nope" in capsys.readouterr().err


def test_unknown_config_key_named(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    rc = cli(["sweep", "--config", cfg, "--seed", "1", "--out",
              str(tmp_path / "x.csv"), "--set", "trails=5"])
    assert rc == 1
    assert "trails" in capsys.readouterr().err


def test_missing_required_out_fails(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli(["sweep", "--config", cfg, "--seed", "1"]) == 1


def test_set_overrides_config_values(tmp_path):
    cfg = _write_cfg(tmp_path, trials=2)
    out = tmp_path / "o.csv"
    rc = cli(["sweep", "--config", cfg, "--seed", "1", "--out", str(out),
              "--set", "trials=3", "--set", "projection_kind=dft"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].startswith("dft,")
    assert lines[1].split(",")[4] == "3"  # trials_ok + failed = 3, all ok here


def test_estimate_subcommand_reads_y(tmp_path, capsys):
    n, m, p, l = 4, 8, 16, 6
    cfg = _write_cfg(tmp_path, N=n, M=m, P=p, L=l, K=1, projection_kind="random",
                     seed=5)
    d = build_dictionary(p, 2 * np.pi, m)
    phi = random_cm_projection(n, m, seed=5)
    rng = np.random.default_rng(6)
    x = (rng.standard_normal(l) + 1j * rng.standard_normal(l)) / np.sqrt(2)
    y = np.outer(phi.phi @ d.A_ring[:, 7], x)
    y_path = tmp_path / "y.csv"
    write_measurements_csv(y, y_path)
    out = tmp_path / "est.csv"
    rc = cli(["estimate", "--config", cfg, "--seed", "5", "--y", str(y_path),
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,nu_hat"
    nu_hat = float(lines[1].split(",")[1])
    assert nu_hat == pytest.approx(d.grid[7], abs=1e-6)


def _write_y(tmp_path, scale):
    """Two sources plus weak noise seen through the seed-5 random projection
    of an (N, M, P, K, L) = (4, 8, 16, 2, 6) config, times scale."""
    phi = random_cm_projection(4, 8, seed=5).phi
    rng = np.random.default_rng(9)
    y = phi @ steering_matrix([1.1, 3.9], 8) @ _cn(rng, 2, 6) + 0.1 * _cn(rng, 4, 6)
    path = tmp_path / f"y{scale:g}.csv"
    write_measurements_csv(y * scale, path)
    return str(path)


def test_estimate_output_does_not_depend_on_the_scale_of_y(tmp_path, capsys):
    """Y * 1e160 and Y * 1e-300 print the unit-scale estimate, although
    OMP's scores and the squared residuals of such a Y overflow or
    underflow."""
    cfg = _write_cfg(tmp_path, N=4, M=8, P=16, K=2, L=6, projection_kind="random")
    outputs = []
    for scale in (1.0, 1e160, 1e-300):
        assert cli(["estimate", "--config", cfg, "--seed", "5", "--y", _write_y(tmp_path, scale)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("k,nu_hat\n0,")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_estimate_stop_on_noise_only_y_does_not_move_with_decimal_rounding(tmp_path, capsys):
    """On a noise-only Y the residual is flat near the estimate, yet Y
    written times 1e160 and 1e-300, which rounds each entry in its last
    bit, prints the unit-scale estimate: the refinement stops where its
    predicted decrease falls below a relative margin, not at the first
    step that rounding happens not to lower."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sets = ("N=4", "M=8", "P=16", "K=1", "L=4", "trials=3", "t_max=5")
    args = ["estimate", "--seed", "1", *(f for kv in sets for f in ("--set", kv))]
    outputs = []
    for scale in (1.0, 1e160, 1e-300):
        path = tmp_path / f"y{scale:g}.csv"
        write_measurements_csv(y * scale, path)
        assert cli(args + ["--y", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("k,nu_hat\n0,")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_estimate_unwritable_out_fails_naming_it(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, N=4, M=8, P=16, K=2, L=6, projection_kind="random")
    out = tmp_path / "no" / "such" / "est.csv"
    assert cli(["estimate", "--config", cfg, "--seed", "5", "--y", _write_y(tmp_path, 1.0), "--out", str(out)]) == 2
    assert f"cannot write CSV to {out}" in capsys.readouterr().err


def test_estimate_dimension_mismatch_runtime_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, N=4)
    y_path = tmp_path / "y.csv"
    write_measurements_csv(np.ones((3, 2), dtype=complex), y_path)
    rc = cli(["estimate", "--config", cfg, "--seed", "1", "--y", str(y_path)])
    assert rc == 2
    assert "N=4" in capsys.readouterr().err
