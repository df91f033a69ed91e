"""Benchmark harness tests.

Sorted-pairing frequency MSE (with a brute-force permutation oracle),
scene drawing determinism and separation, CSV emission contracts, config
parsing and validation, and small deterministic experiment runs.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gomp import bench
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
from gomp.cli import cli
from gomp.projection_design import DesignConfig


def _cfg(**kw):
    defaults = dict(N=4, M=8, P=16, K=1, L=4, trials=3, seed=1,
                    snr_grid_db=(10.0,), design=DesignConfig(t_max=10),
                    i_max=3, j_max=2)
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
    sep = 2 * 2 * np.pi / 32  # min_separation defaults to two grid cells
    for seed in range(10_000):
        nu = draw_scene(cfg, seed).nu
        assert nu.min() >= 0 and nu.max() <= cfg.nu_max
        assert np.min(np.diff(np.sort(nu))) >= sep
    with pytest.raises(ValueError, match=f"with separation {sep:.4g} inside"):
        draw_scene(_cfg(K=3, N=8, M=16, P=32, nu_max=2 * np.pi, scene_nu_max=0.5), 0)


def test_draw_scene_exact_at_the_edge():
    """Four sources one unit apart on a span of exactly three units have one
    placement, which one draw finds. A partial span, so the ends are
    distinct directions."""
    nu = draw_scene(_cfg(K=4, nu_max=2 * np.pi, scene_nu_max=3.0, min_separation=1.0), 0).nu
    assert np.array_equal(nu, [0.0, 1.0, 2.0, 3.0])


def test_draw_scene_k1_stream_is_one_uniform_draw():
    """At K = 1, nu and X are bit for bit one sorted uniform draw on the span
    followed by the waveform normals, so K = 1 sweep outputs keep their
    bytes (the sweep-k1-fine benchmark config among them)."""
    for cfg in (_cfg(), _cfg(scene_nu_max=0.5, min_separation=7.0),
                _cfg(N=16, M=64, P=1024, L=16, scene_nu_max=2 * np.pi * (1 - 1 / 1024))):
        for seed in (0, 1, 77, 2**40 + 3, bench._seed_int(1, 5, 0)):
            scene = draw_scene(cfg, seed)
            rng = np.random.default_rng(seed)
            nu = np.sort(rng.uniform(0.0, cfg.scene_span, 1))
            x = (rng.standard_normal((1, cfg.L)) + 1j * rng.standard_normal((1, cfg.L))) / np.sqrt(2.0)
            assert scene.nu.tobytes() == nu.tobytes() and scene.X.tobytes() == x.tobytes()


def _rejection_nu(rng, k, span, sep, n):
    """n rows of k sorted uniforms on [0, span], each kept only if every gap
    is at least sep: the scene law by its definition."""
    kept = np.empty((0, k))
    while len(kept) < n:
        nu = np.sort(rng.uniform(0.0, span, (n, k)), axis=1)
        kept = np.concatenate([kept, nu[np.min(np.diff(nu, axis=1), axis=1) >= sep]])
    return kept[:n]


def test_draw_scene_law_matches_rejection_sampling():
    """On the Fig.-3 scene (K=5, span 2 pi 15/64, two-cell separation) the
    one-draw sampler and the rejection sampler agree, over 20,000 draws
    each, in the mean of every order statistic, of the smallest gap and of
    the share of smallest gaps below twice the separation, each within 5
    standard errors of the difference."""
    cfg = _cfg(N=16, M=64, P=64, K=5, nu_max=2 * np.pi * 15 / 64)
    n, sep = 20_000, cfg.separation
    samples = [np.array([draw_scene(cfg, seed).nu for seed in range(n)]),
               _rejection_nu(np.random.default_rng(2003), cfg.K, cfg.scene_span, sep, n)]
    stats = []
    for nu in samples:
        gap = np.min(np.diff(nu, axis=1), axis=1)
        stats.append(np.column_stack([nu, gap, gap < 2 * sep]))
    a, b = stats
    se = np.sqrt(a.var(axis=0, ddof=1) / n + b.var(axis=0, ddof=1) / n)
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * se)


def test_draw_scene_infeasible_separation():
    """K sources that cannot fit the scene span fail when the config is
    built, not at the first draw."""
    with pytest.raises(ValueError, match=r"\(K-1\)\*min_separation <= scene_nu_max violated"):
        _cfg(K=4, N=8, min_separation=3.0)


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
        "i_max": 7, "j_max": 2, "t_max": 11, "step_size": 0.1,
        "snr_grid_db": [0, 10], "projection_kind": "random",
    })
    assert cfg.i_max == 7 and cfg.j_max == 2
    assert cfg.design.t_max == 11 and cfg.design.step_size == 0.1
    assert cfg.snr_grid_db == (0.0, 10.0)
    assert cfg.projection_kind == "random"


def test_config_unknown_key_is_named():
    with pytest.raises(ValueError, match="snr_grid"):
        config_from_dict({"snr_grid": [0]})


def test_alpha_is_not_a_config_key(tmp_path, capsys):
    """alpha is an argument of design(), which build_projection takes from
    alpha_candidates (or sets to inf for gd_prior_b); it is no config
    field, so an alpha key is rejected."""
    with pytest.raises(ValueError, match="config key 'alpha'"):
        config_from_dict({"alpha": 2.0})
    assert cli(["sweep", "--seed", "1", "--out", str(tmp_path / "x.csv"), "--set", "alpha=2"]) == 1
    assert "config key 'alpha'" in capsys.readouterr().err


def test_flat_keys_are_exactly_the_config_fields():
    """Every field of SweepConfig (less the nested design) and of
    DesignConfig is a flat key, nothing else is, and the two classes share
    no field name, so no key needs a precedence rule."""
    owned = [_names(SweepConfig, "design"), _names(DesignConfig)]
    assert set(bench._FLAT_FIELDS) == set().union(*owned)
    assert sum(map(len, owned)) == len(bench._FLAT_FIELDS) == 20


@pytest.mark.parametrize("key, value", [
    ("N", [4]), ("nu_max", None), ("step_size", None), ("K", "x"), ("i_max", 2.7),
])
def test_config_value_that_does_not_fit_is_named(key, value, capsys):
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        config_from_dict({key: value})
    assert cli(["estimate", "--set", f"{key}={json.dumps(value)}", "--y", "unused.csv"]) == 1
    assert f"error: config key '{key}'" in capsys.readouterr().err


def _flatten(cfg: SweepConfig) -> dict:
    """The flat keys of a config: every top-level field but the nested
    design settings, plus every DesignConfig field."""
    flat = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "design"}
    flat.update(dataclasses.asdict(cfg.design))
    return flat


_FINITE = st.floats(-60.0, 60.0, allow_nan=False)
_POSITIVE = st.floats(1e-3, 10.0)
_SPAN = st.floats(1e-3, 2 * math.pi)
_KINDS = st.sampled_from(("designed", "dft", "random", "gd_prior_a", "gd_prior_b"))


def _names(cls, *skip):
    return {f.name for f in dataclasses.fields(cls)} - set(skip)


@st.composite
def _sweep_configs(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    m = draw(st.integers(max(n, 2), 16))
    tuples = lambda elem: st.lists(elem, min_size=1, max_size=4, unique=True).map(tuple)
    p = draw(st.integers(m, 64))
    nu_max = draw(_SPAN)
    scene_nu_max = draw(st.none() | _SPAN)
    # only a separation that fits K sources into the scene span builds a config
    span = nu_max if scene_nu_max is None else scene_nu_max
    fits = lambda sep: (k - 1) * sep <= span
    separations = st.floats(0.0, span / max(k - 1, 1)).filter(fits)
    top = dict(
        N=n, M=m, P=p, K=k,
        L=draw(st.integers(1, 32)),
        snr_grid_db=draw(tuples(_FINITE | st.just(math.inf))),
        trials=draw(st.integers(1, 500)),
        seed=draw(st.integers(0, 2**31)),
        projection_kind=draw(_KINDS),
        nu_max=nu_max,
        scene_nu_max=scene_nu_max,
        min_separation=draw(st.none() | separations) if fits(2.0 * nu_max / p) else draw(separations),
        alpha_candidates=draw(tuples(st.floats(1.0, 10.0) | st.just(math.inf))),
        p_grid=draw(st.none() | tuples(st.integers(m, 512))),
        methods=draw(tuples(_KINDS)),
        i_max=draw(st.integers(1, 50)),
        j_max=draw(st.integers(1, 20)),
    )
    design = dict(
        t_max=draw(st.integers(0, 500)),
        step_size=draw(_POSITIVE),
        init=draw(st.sampled_from(("svd", "random"))),
    )
    # every flat key is drawn, so a new field fails here until it is covered
    assert top.keys() == _names(SweepConfig, "design")
    assert design.keys() == _names(DesignConfig)
    return SweepConfig(design=DesignConfig(**design), **top)


@settings(max_examples=200, deadline=None)
@given(_sweep_configs())
def test_config_round_trips_through_flat_json(cfg):
    """Flattening a config, passing it through JSON and parsing it back
    gives the same config, with the same value types."""
    back = config_from_dict(json.loads(json.dumps(_flatten(cfg))))
    assert back == cfg and repr(back) == repr(cfg)


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


def _file(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda tmp: _cfg(seed=-1), ValueError, r"seed >= 0 violated \(seed=-1\)", id="config-seed"),
    pytest.param(lambda tmp: _cfg(projection_kind="pca"), ValueError, "projection_kind must be one of .*, got 'pca'",
                 id="config-projection-kind"),
    pytest.param(lambda tmp: _cfg(methods=("dft", "pca")), ValueError, "methods entry 'pca'", id="config-methods"),
    pytest.param(lambda tmp: _cfg(snr_grid_db=()), ValueError, "snr_grid_db must not be empty", id="config-snr-grid"),
    pytest.param(lambda tmp: read_measurements_csv(tmp / "absent.csv"), OSError,
                 "cannot read measurements from .*absent.csv", id="measurements-missing"),
    pytest.param(lambda tmp: read_measurements_csv(_file(tmp / "empty.csv", "\n\n")), ValueError,
                 "empty.csv: empty measurement file", id="measurements-empty"),
    pytest.param(lambda tmp: read_measurements_csv(_file(tmp / "short.csv", "2,2\n1,2\n")), ValueError,
                 "short.csv: expected 2 data rows, found 1", id="measurements-row-count"),
    pytest.param(lambda tmp: load_config(tmp / "absent.json"), OSError, "cannot read config from .*absent.json",
                 id="config-file-missing"),
    pytest.param(lambda tmp: load_config(_file(tmp / "list.json", "[1, 2]")), ValueError,
                 "list.json: config must be a JSON object", id="config-file-not-object"),
    pytest.param(lambda tmp: mse_frequencies(np.ones((2, 2)), np.ones((2, 2))), ValueError,
                 r"truth must be a 1-D array, got shape \(2, 2\)", id="mse-2d"),
    pytest.param(lambda tmp: mse_frequencies([0.1, 0.2], [0.1, np.nan]), ValueError,
                 r"estimate has non-finite entry nan at \(1\)", id="mse-nan"),
])
def test_rejected_input_is_named(tmp_path, make, error, message):
    with pytest.raises(error, match=message):
        make(tmp_path)


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


def test_write_measurements_csv_names_a_bad_y_and_writes_nothing(tmp_path):
    """A Y of shape (N,) is not guessed to be one row, and a non-finite
    entry is named, not written."""
    path = tmp_path / "y.csv"
    with pytest.raises(ValueError, match=r"Y must be a 2-D array, got shape \(4,\)"):
        write_measurements_csv(np.ones(4), path)
    y = np.ones((2, 3), dtype=complex)
    y[1, 2] = np.inf
    with pytest.raises(ValueError, match=r"Y has non-finite entry \(inf\+0j\) at \(row 1, column 2\)"):
        write_measurements_csv(y, path)
    assert not path.exists()


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


@pytest.mark.parametrize("text, message", [
    ("2,2\n\n1,2\n\n3\n", "line 5 has 1 entries, expected 2"),
    ("2,2\n1,2,3\n\n4,5\n", "line 2 has 3 entries, expected 2"),
    ("2,2\n1,inf\n1,2x\n", "line 2, column 2: non-finite entry"),
    ("2,2\n1,nan\n3\n", "line 2, column 2: non-finite entry"),
])
def test_measurements_csv_names_the_file_line_of_the_first_fault(tmp_path, text, message):
    """A short or long row is named by its line in the file, blank lines
    counted, and the first fault in file order is the one reported."""
    path = tmp_path / "y.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"y.csv: {message}"):
        read_measurements_csv(path)


def test_measurements_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "y.csv"
    for header in ("x,2", "2.5,2", "-1,2", "0,2", "2,0", "2,2,2"):
        path.write_text(f"{header}\n1,2\n3,4\n")
        with pytest.raises(ValueError, match=f"y.csv: line 1: header must be 'N,L' with positive integers, got '{header}'"):
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


@pytest.mark.parametrize("kind", ["designed", "gd_prior_a", "gd_prior_b"])
def test_design_trace_follows_projection_kind(kind):
    from gomp.array_model import build_dictionary

    cfg = _cfg(projection_kind=kind)
    _, trace = build_projection(kind, build_dictionary(cfg.P, cfg.nu_max, cfg.M), cfg)
    rows = run_design_trace(cfg).rows
    assert [r[1] for r in rows] == list(trace.objective_per_iter)
    assert [r[2] for r in rows] == list(trace.coherence_per_iter)


@pytest.mark.parametrize("kind", ["dft", "random"])
def test_design_trace_of_undesigned_kind_names_projection_kind(kind):
    with pytest.raises(ValueError, match=f"projection_kind '{kind}'"):
        run_design_trace(_cfg(projection_kind=kind))


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


def test_mse_sweep_counts_sum_to_trials(monkeypatch, tmp_path):
    """Every trial is counted. A trial whose estimate raises ValueError or
    LinAlgError fails; the row's means are over the other trials, and an
    SNR point at which every trial fails reads nan in the CSV."""
    cfg = _cfg(trials=4, snr_grid_db=(0.0, 10.0))
    for row in run_mse_sweep(cfg).rows:
        assert row.trials_ok + row.failed_trials == 4

    # the sweep runs its SNR points in turn, each trial drawing its scene and
    # then estimating: calls 1 and 3 fail at 0 dB, and all four at 10 dB
    errors = {1: ValueError, 3: np.linalg.LinAlgError, 4: ValueError, 5: ValueError,
              6: np.linalg.LinAlgError, 7: ValueError}
    scenes, results = [], []
    real_draw, real_estimate = bench.draw_scene, bench.estimate

    def draw(*args):
        scenes.append(real_draw(*args))
        return scenes[-1]

    def flaky(*args):
        k = len(results)
        results.append(None if k in errors else real_estimate(*args))
        if k in errors:
            raise errors[k](f"call {k} fails")
        return results[-1]

    monkeypatch.setattr(bench, "draw_scene", draw)
    monkeypatch.setattr(bench, "estimate", flaky)
    result = run_mse_sweep(cfg)
    assert len(results) == len(scenes) == 8
    assert [(r.trials_ok, r.failed_trials) for r in result.rows] == [(2, 2), (0, 4)]

    grid = bench.build_dictionary(cfg.P, cfg.nu_max, cfg.M).grid
    ongrid = [mse_frequencies(scenes[k].nu, grid[results[k].initial_grid_indices]) for k in (0, 2)]
    refined = [mse_frequencies(scenes[k].nu, results[k].nu_hat) for k in (0, 2)]
    assert result.rows[0].mse_ongrid == pytest.approx(np.mean(ongrid), rel=1e-15)
    assert result.rows[0].mse_refined == pytest.approx(np.mean(refined), rel=1e-15)
    assert math.isnan(result.rows[1].mse_ongrid) and math.isnan(result.rows[1].mse_refined)

    path = tmp_path / "sweep.csv"
    emit_csv(result, path)
    assert path.read_text().splitlines()[2] == "designed,10,nan,nan,0,4"
