"""Monte Carlo experiment driver.

Reproduces the coherence-versus-iteration and MSE-versus-SNR protocols at
desk scale and writes flat CSV files. Every experiment output is a pure
function of its configuration plus seed: scenes are seeded from
(seed, trial index) and shared across the SNR grid (common random numbers,
so per-SNR averages differ only through the noise), noise draws from
(seed, snr index, trial index), so results do not depend on execution
order. CSV rows are emitted in a fixed sort order with 9 significant
digits.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .array_model import (
    Dictionary,
    SourceScene,
    UlaConfig,
    build_dictionary,
    synthesize_measurements,
)
from .estimator import GompConfig, estimate
from .projection_design import (
    DesignConfig,
    design,
    design_with_alpha_sweep,
    dft_projection,
    initial_projection,
    mutual_coherence,
    random_cm_projection,
)

PROJECTION_KINDS = ("designed", "dft", "random", "gd_prior_a", "gd_prior_b")

DEFAULT_ALPHAS = (1.0, 1.5, 2.0, 3.0, 5.0)


@dataclass(frozen=True)
class SweepConfig:
    """Experiment configuration with flat JSON-friendly fields.

    scene_nu_max bounds the drawn source frequencies (defaults to nu_max);
    min_separation is the smallest allowed pairwise source gap (defaults
    to two grid cells, 2 * nu_max / P). on_grid snaps drawn frequencies to
    the nearest grid point, for noiseless exactness checks.
    """

    N: int = 16
    M: int = 64
    P: int = 64
    K: int = 5
    L: int = 16
    snr_grid_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 200
    seed: int = 0
    projection_kind: str = "designed"
    nu_max: float = 2.0 * math.pi
    scene_nu_max: float | None = None
    min_separation: float | None = None
    on_grid: bool = False
    gomp: GompConfig = field(default_factory=GompConfig)
    design: DesignConfig = field(default_factory=DesignConfig)
    alpha_candidates: tuple = DEFAULT_ALPHAS
    p_grid: tuple | None = None
    methods: tuple = ("designed", "dft", "random", "gd_prior_b")

    def __post_init__(self) -> None:
        if not self.K <= self.N:
            raise ValueError(f"constraint K <= N violated (K={self.K}, N={self.N})")
        if not self.N <= self.M:
            raise ValueError(f"constraint N <= M violated (N={self.N}, M={self.M})")
        if not self.M <= self.P:
            raise ValueError(f"constraint M <= P violated (M={self.M}, P={self.P})")
        if self.K < 1:
            raise ValueError(f"constraint K >= 1 violated (K={self.K})")
        if self.L < 1:
            raise ValueError(f"constraint L >= 1 violated (L={self.L})")
        if self.trials < 1:
            raise ValueError(f"constraint trials >= 1 violated (trials={self.trials})")
        if self.seed < 0:
            raise ValueError(f"constraint seed >= 0 violated (seed={self.seed})")
        if not self.nu_max > 0:
            raise ValueError(f"constraint nu_max > 0 violated (nu_max={self.nu_max})")
        if self.projection_kind not in PROJECTION_KINDS:
            raise ValueError(
                f"projection_kind must be one of {PROJECTION_KINDS}, got {self.projection_kind!r}"
            )
        for kind in self.methods:
            if kind not in PROJECTION_KINDS:
                raise ValueError(f"methods entry {kind!r} not in {PROJECTION_KINDS}")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must not be empty")

    @property
    def scene_bound(self) -> float:
        return self.nu_max if self.scene_nu_max is None else self.scene_nu_max

    @property
    def separation(self) -> float:
        return 2.0 * self.nu_max / self.P if self.min_separation is None else self.min_separation


@dataclass(frozen=True)
class SweepRow:
    method: str
    snr_db: float
    mse_ongrid: float
    mse_refined: float
    mean_runtime_s: float
    trials_ok: int
    failed_trials: int


@dataclass(frozen=True)
class SweepResult:
    """Per-SNR averages for one projection method."""

    rows: tuple

    def csv_header(self, include_runtime: bool = False) -> list[str]:
        head = ["method", "snr_db", "mse_ongrid", "mse_refined", "trials_ok", "failed_trials"]
        if include_runtime:
            head.insert(4, "mean_runtime_s")
        return head

    def csv_rows(self, include_runtime: bool = False):
        for r in sorted(self.rows, key=lambda r: (r.method, r.snr_db)):
            row = [r.method, r.snr_db, r.mse_ongrid, r.mse_refined, r.trials_ok, r.failed_trials]
            if include_runtime:
                row.insert(4, r.mean_runtime_s)
            yield row


@dataclass(frozen=True)
class CoherenceResult:
    """Rows (method, P, iter, mu_max) of coherence traces."""

    rows: tuple

    def csv_header(self) -> list[str]:
        return ["method", "P", "iter", "mu_max"]

    def csv_rows(self):
        order = {kind: i for i, kind in enumerate(PROJECTION_KINDS)}
        for r in sorted(self.rows, key=lambda r: (order[r[0]], r[1], r[2])):
            yield list(r)


@dataclass(frozen=True)
class DesignTraceResult:
    """Rows (iter, eta, mu_max) of a single design run."""

    rows: tuple

    def csv_header(self) -> list[str]:
        return ["iter", "eta", "mu_max"]

    def csv_rows(self):
        for r in self.rows:
            yield list(r)


def mse_frequencies(truth: np.ndarray, est: np.ndarray) -> float:
    """Sum of squared frequency errors under the best one-to-one pairing.

    The estimator's output order is arbitrary, so truth and estimate are
    matched by the minimum-cost assignment on squared distance; the metric
    is symmetric and invariant to permuting either argument. On a line that
    assignment pairs the two sorted lists: if t1 <= t2 and e1 <= e2, the
    crossed pairing costs more by 2 (t2 - t1)(e2 - e1) >= 0, so uncrossing
    any crossed pair never raises the cost. This holds for linear distance
    only; a circular distance (frequencies that wrap at 2 pi) needs another
    rule, since sorting does not respect the wrap-around.
    """
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    est = np.atleast_1d(np.asarray(est, dtype=float))
    if truth.shape != est.shape:
        raise ValueError(f"length mismatch: truth has {truth.size}, estimate has {est.size}")
    return float(np.sum((np.sort(truth) - np.sort(est)) ** 2))


def _seed_int(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def draw_scene(cfg: SweepConfig, trial_seed: int) -> SourceScene:
    """K source frequencies uniform on [0, scene bound] with a minimum
    pairwise separation, plus i.i.d. unit-variance complex Gaussian
    waveforms. Deterministic per trial_seed; rejection sampling with a
    capped redraw budget.
    """
    bound = cfg.scene_bound
    sep = cfg.separation
    if cfg.K > 1 and (cfg.K - 1) * sep > bound:
        raise ValueError(
            f"cannot place K={cfg.K} sources with separation {sep:.4g} inside [0, {bound:.4g}]"
        )
    rng = np.random.default_rng(trial_seed)
    nu = None
    for _ in range(10000):
        cand = np.sort(rng.uniform(0.0, bound, cfg.K))
        if cfg.K == 1 or float(np.min(np.diff(cand))) >= sep:
            nu = cand
            break
    if nu is None:
        raise ValueError("separation constraint not satisfied after 10000 redraws")
    if cfg.on_grid:
        grid = cfg.nu_max * np.arange(cfg.P) / cfg.P
        nu = grid[np.argmin(np.abs(nu[:, None] - grid[None, :]), axis=1)]
    x = (rng.standard_normal((cfg.K, cfg.L)) + 1j * rng.standard_normal((cfg.K, cfg.L))) / np.sqrt(2.0)
    return SourceScene(nu=nu, X=x)


def build_projection(kind: str, dictionary: Dictionary, cfg: SweepConfig, seed: int | None = None):
    """Construct the projection for one method.

    Returns (ProjectionMatrix, DesignTrace or None). ``designed`` sweeps the
    shrinkage relaxation candidates and keeps the best; ``gd_prior_b`` is
    the same descent without shrinking (alpha = inf); ``gd_prior_a`` sweeps
    candidates with the unit-norm constraint imposed by renormalization
    after each update rather than inside the objective.
    """
    if kind not in PROJECTION_KINDS:
        raise ValueError(f"unknown projection kind {kind!r}")
    seed = cfg.seed if seed is None else seed
    dcfg = replace(cfg.design, seed=seed)
    if kind == "dft":
        return dft_projection(cfg.N, dictionary.M), None
    if kind == "random":
        return random_cm_projection(cfg.N, dictionary.M, seed), None
    phi0 = initial_projection(dictionary, cfg.N, dcfg)
    if kind == "designed":
        trace = design_with_alpha_sweep(dictionary, dcfg, phi0, cfg.alpha_candidates)
    elif kind == "gd_prior_a":
        trace = design_with_alpha_sweep(dictionary, dcfg, phi0, cfg.alpha_candidates, embed_unit_norm=False)
    else:  # gd_prior_b
        trace = design(dictionary, replace(dcfg, alpha=math.inf), phi0)
    return trace.final_phi, trace


def run_design_trace(cfg: SweepConfig) -> DesignTraceResult:
    """Single best-alpha design run as (iter, eta, mu_max) rows."""
    dictionary = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    _, trace = build_projection("designed", dictionary, cfg)
    rows = tuple(
        (t, float(trace.objective_per_iter[t]), float(trace.coherence_per_iter[t]))
        for t in range(trace.coherence_per_iter.size)
    )
    return DesignTraceResult(rows=rows)


def run_coherence_experiment(cfg: SweepConfig) -> CoherenceResult:
    """Coherence traces for each configured method and grid size.

    Gradient-designed methods contribute a full per-iteration trace; the
    dft and random baselines have no iterations, so their constant
    coherence is repeated over the same iteration range for easy overlay.
    """
    p_values = cfg.p_grid if cfg.p_grid else (cfg.P,)
    rows: list[tuple] = []
    for p in p_values:
        dictionary = build_dictionary(int(p), cfg.nu_max, cfg.M)
        for kind_index, kind in enumerate(cfg.methods):
            seed = _seed_int(cfg.seed, int(p), kind_index)
            phi, trace = build_projection(kind, dictionary, cfg, seed=seed)
            if trace is not None:
                mus = trace.coherence_per_iter
            else:
                mu = mutual_coherence(phi.phi @ dictionary.A_ring)
                mus = np.full(cfg.design.t_max + 1, mu)
            rows.extend((kind, int(p), t, float(mus[t])) for t in range(mus.size))
    return CoherenceResult(rows=tuple(rows))


def run_mse_sweep(cfg: SweepConfig) -> SweepResult:
    """MSE of the on-grid start and of the refined estimate versus SNR.

    One projection is designed (or drawn) per configuration and shared by
    all trials. Each trial draws a scene, synthesizes measurements at the
    target SNR, runs the estimator, and scores both the OMP grid
    frequencies and the refined frequencies against the truth. Trials
    whose estimator fails are counted, not silently dropped; averages use
    the successful trials only.
    """
    dictionary = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    phi, _ = build_projection(cfg.projection_kind, dictionary, cfg)
    ula = UlaConfig(M=cfg.M)
    rows = []
    for snr_index, snr_db in enumerate(cfg.snr_grid_db):
        sum_ongrid = 0.0
        sum_refined = 0.0
        sum_runtime = 0.0
        ok = 0
        failed = 0
        for trial in range(cfg.trials):
            # scenes are shared across SNR points (common random numbers) so
            # per-SNR averages differ only through the noise; noise draws are
            # independent per (seed, snr index, trial)
            scene = draw_scene(cfg, _seed_int(cfg.seed, trial, 0))
            meas = synthesize_measurements(
                scene, phi, ula, float(snr_db), _seed_int(cfg.seed, snr_index, trial, 1)
            )
            start = time.perf_counter()
            try:
                result = estimate(meas.Y, phi, dictionary, cfg.K, cfg.gomp)
            except (ValueError, np.linalg.LinAlgError):
                failed += 1
                continue
            sum_runtime += time.perf_counter() - start
            nu0 = dictionary.grid[result.initial_grid_indices]
            sum_ongrid += mse_frequencies(scene.nu, nu0)
            sum_refined += mse_frequencies(scene.nu, result.nu_hat)
            ok += 1
        rows.append(
            SweepRow(
                method=cfg.projection_kind,
                snr_db=float(snr_db),
                mse_ongrid=sum_ongrid / ok if ok else float("nan"),
                mse_refined=sum_refined / ok if ok else float("nan"),
                mean_runtime_s=sum_runtime / ok if ok else float("nan"),
                trials_ok=ok,
                failed_trials=failed,
            )
        )
    return SweepResult(rows=tuple(rows))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def emit_csv(result, path, include_runtime: bool = False) -> None:
    """Write a result's rows as CSV with deterministic order and formatting.

    Numbers are printed with 9 significant digits. The sweep runtime column
    is omitted by default so that identical configurations produce
    byte-identical files.
    """
    if isinstance(result, SweepResult):
        header = result.csv_header(include_runtime)
        rows = result.csv_rows(include_runtime)
    else:
        header = result.csv_header()
        rows = result.csv_rows()
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_value(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_measurements_csv(path) -> np.ndarray:
    """Read a snapshot matrix stored as complex text entries.

    The first line is the header "N,L"; each of the next N lines holds L
    comma-separated entries parseable by complex(), e.g. "1.5-0.25j" (a
    trailing "i" is accepted for "j"). Blank lines are skipped. Malformed
    and non-finite entries are rejected with their line and column
    (both 1-based).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    except OSError as exc:
        raise OSError(f"cannot read measurements from {path}: {exc}") from exc
    if not lines:
        raise ValueError(f"{path}: empty measurement file")
    head = lines[0][1].split(",")
    if len(head) != 2:
        raise ValueError(f"{path}: header must be 'N,L', got {lines[0][1]!r}")
    n, l = int(head[0]), int(head[1])
    if len(lines) != n + 1:
        raise ValueError(f"{path}: expected {n} data rows, found {len(lines) - 1}")
    y = np.empty((n, l), dtype=complex)
    for i, (no, line) in enumerate(lines[1:]):
        entries = line.split(",")
        if len(entries) != l:
            raise ValueError(f"{path}: row {i} has {len(entries)} entries, expected {l}")
        for j, tok in enumerate(entries):
            tok = tok.strip()
            try:
                y[i, j] = complex(tok[:-1] + "j" if tok.endswith("i") else tok)
            except ValueError:
                raise ValueError(f"{path}: line {no}, column {j + 1}: cannot parse {tok!r} as a complex number") from None
    bad = np.argwhere(~np.isfinite(y))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: line {lines[i + 1][0]}, column {j + 1}: non-finite entry {y[i, j]}")
    return y


def write_measurements_csv(y: np.ndarray, path) -> None:
    """Inverse of read_measurements_csv."""
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{y.shape[0]},{y.shape[1]}\n")
        for row in y:
            fh.write(",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row) + "\n")


_GOMP_KEYS = {"i_max", "j_max"}
_DESIGN_KEYS = {"t_max", "step_size", "alpha", "init"}


def config_from_dict(data: dict) -> SweepConfig:
    """Build a SweepConfig from flat JSON keys.

    Top-level keys mirror SweepConfig field names; the nested refinement
    and design settings use their own flat field names (i_max, j_max,
    t_max, step_size, alpha, init).
    """
    known = set(SweepConfig.__dataclass_fields__) - {"gomp", "design"}
    gomp_kwargs = {}
    design_kwargs = {}
    top = {}
    for key, value in data.items():
        if key in _GOMP_KEYS:
            gomp_kwargs[key] = int(value)
        elif key in _DESIGN_KEYS:
            design_kwargs[key] = _cast_design(key, value)
        elif key in known:
            top[key] = _cast_top(key, value)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return SweepConfig(
        gomp=GompConfig(**gomp_kwargs), design=DesignConfig(**design_kwargs), **top
    )


def _cast_design(key: str, value):
    if key == "init":
        return str(value)
    if key == "t_max":
        return int(value)
    return float(value)


_TUPLE_KEYS = {"snr_grid_db", "alpha_candidates", "p_grid", "methods"}
_INT_KEYS = {"N", "M", "P", "K", "L", "trials", "seed"}
_FLOAT_KEYS = {"nu_max", "scene_nu_max", "min_separation"}


def _cast_top(key: str, value):
    if key in _TUPLE_KEYS:
        if value is None:
            return None
        seq = value if isinstance(value, (list, tuple)) else [value]
        if key == "methods":
            return tuple(str(v) for v in seq)
        if key == "p_grid":
            return tuple(int(v) for v in seq)
        return tuple(float(v) for v in seq)
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return None if value is None else float(value)
    if key == "on_grid":
        return _cast_bool(key, value)
    if key == "projection_kind":
        return str(value)
    return value


def _cast_bool(key: str, value) -> bool:
    """A JSON boolean, or "true"/"false" in any case; bool("false") is True."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ValueError(f"config key {key!r} must be true or false, got {value!r}")


def load_config(path, overrides: dict | None = None) -> SweepConfig:
    """Read a flat JSON config file, apply overrides, and validate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if overrides:
        data.update(overrides)
    return config_from_dict(data)
