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

import cmath
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .array_model import (
    Dictionary,
    SourceScene,
    UlaConfig,
    as_matrix,
    as_vector,
    build_dictionary,
    noise_scale_for_snr,
    synthesize_measurements,
)
from .estimator import estimate
from .projection_design import (
    DEFAULT_ALPHAS,
    DesignConfig,
    design,
    design_with_alpha_sweep,
    dft_projection,
    initial_projection,
    mutual_coherence,
    random_cm_projection,
)

PROJECTION_KINDS = ("designed", "dft", "random", "gd_prior_a", "gd_prior_b")


@dataclass(frozen=True)
class SweepConfig:
    """Experiment configuration with flat JSON-friendly fields.

    scene_nu_max bounds the drawn source frequencies and min_separation is
    the smallest allowed pairwise source gap; scene_span and separation read
    them with their defaults applied (nu_max, and two grid cells 2 nu_max / P);
    (K - 1) * separation <= scene_span is necessary and sufficient for
    draw_scene, so every config that loads can draw its scenes. snr_grid_db,
    methods, alpha_candidates and p_grid (when given) must be non-empty and distinct.
    The refinement takes at most max_steps = i_max * j_max joint steps: the
    paper's i_max steps per sweep and j_max sweeps, whose product it reads.
    """

    N: int = 16
    M: int = 64
    P: int = 64
    K: int = 5
    L: int = 16
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 200
    seed: int = 0
    projection_kind: str = "designed"
    nu_max: float = 2.0 * math.pi
    scene_nu_max: float | None = None
    min_separation: float | None = None
    i_max: int = 10
    j_max: int = 5
    design: DesignConfig = field(default_factory=DesignConfig)
    alpha_candidates: tuple[float, ...] = DEFAULT_ALPHAS
    p_grid: tuple[int, ...] | None = None
    methods: tuple[str, ...] = ("designed", "dft", "random", "gd_prior_b")

    def __post_init__(self) -> None:
        if not self.K <= self.N:
            raise ValueError(f"constraint K <= N violated (K={self.K}, N={self.N})")
        if not self.N <= self.M:
            raise ValueError(f"constraint N <= M violated (N={self.N}, M={self.M})")
        if not self.M <= self.P:
            raise ValueError(f"constraint M <= P violated (M={self.M}, P={self.P})")
        if self.M < 2:
            raise ValueError(f"constraint M >= 2 violated (M={self.M})")
        for key in ("K", "L", "i_max", "j_max", "trials"):
            if getattr(self, key) < 1:
                raise ValueError(f"constraint {key} >= 1 violated ({key}={getattr(self, key)})")
        if self.seed < 0:
            raise ValueError(f"constraint seed >= 0 violated (seed={self.seed})")
        # a grid or scene wider than the circle aliases: a(nu) = a(nu - 2 pi)
        for key in ("nu_max", "scene_nu_max"):
            value = getattr(self, key)
            if value is not None and not 0 < value <= 2.0 * math.pi:
                raise ValueError(f"constraint 0 < {key} <= 2*pi violated ({key}={value})")
        if self.min_separation is not None and not 0 <= self.min_separation < math.inf:
            raise ValueError(f"constraint 0 <= min_separation < inf violated (min_separation={self.min_separation})")
        if (self.K - 1) * self.separation > self.scene_span:
            raise ValueError(f"constraint (K-1)*min_separation <= scene_nu_max violated: cannot place K={self.K} sources "
                             f"with separation {self.separation:.4g} inside [0, {self.scene_span:.4g}]")
        if self.projection_kind not in PROJECTION_KINDS:
            raise ValueError(
                f"projection_kind must be one of {PROJECTION_KINDS}, got {self.projection_kind!r}"
            )
        for key in ("snr_grid_db", "methods", "alpha_candidates", "p_grid"):
            value = getattr(self, key)
            if value is not None and (not value or len(set(value)) < len(value)):
                raise ValueError(f"{key} must not be empty or repeat an entry, got {list(value)}")
        for kind in self.methods:
            if kind not in PROJECTION_KINDS:
                raise ValueError(f"methods entry {kind!r} not in {PROJECTION_KINDS}")
        for snr in self.snr_grid_db:
            try:
                noise_scale_for_snr(1.0, snr, 1.0)
            except ValueError as exc:
                raise ValueError(f"snr_grid_db entry {snr}: {exc}") from None
        for alpha in self.alpha_candidates:
            if not alpha >= 1:
                raise ValueError(f"alpha_candidates entry {alpha} violates alpha >= 1")
        for p in self.p_grid or ():
            if p < self.M:
                raise ValueError(f"p_grid entry {p} is below the sensor count M={self.M}")

    @property
    def max_steps(self) -> int:
        return self.i_max * self.j_max

    @property
    def scene_span(self) -> float:
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

    def csv_header(self) -> list[str]:
        return ["method", "snr_db", "mse_ongrid", "mse_refined", "trials_ok", "failed_trials"]

    def csv_rows(self):
        for r in sorted(self.rows, key=lambda r: (r.method, r.snr_db)):
            yield [r.method, r.snr_db, r.mse_ongrid, r.mse_refined, r.trials_ok, r.failed_trials]


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
class Table:
    """A CSV table: the header names and the rows, written as given."""

    header: tuple
    rows: tuple

    def csv_header(self) -> tuple:
        return self.header

    def csv_rows(self) -> tuple:
        return self.rows


def mse_frequencies(truth: np.ndarray, est: np.ndarray) -> float:
    """Sum of squared frequency errors under the best one-to-one pairing.

    The estimator's output order is arbitrary, so truth and estimate are
    matched by the minimum-cost assignment on squared distance; the metric
    is symmetric and invariant to permuting either argument. On a line that
    assignment pairs the two sorted lists: if t1 <= t2 and e1 <= e2, the
    crossed pairing costs more by 2 (t2 - t1)(e2 - e1) >= 0, so uncrossing
    any crossed pair never raises the cost. This holds for linear distance
    only; a circular distance (frequencies that wrap at 2 pi) needs another
    rule, since sorting does not respect the wrap-around. Both go through as_vector.
    """
    truth = as_vector(truth, "truth")
    est = as_vector(est, "estimate")
    if truth.shape != est.shape:
        raise ValueError(f"length mismatch: truth has {truth.size}, estimate has {est.size}")
    return float(np.sum((np.sort(truth) - np.sort(est)) ** 2))


def _seed_int(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def draw_scene(cfg: SweepConfig, trial_seed: int) -> SourceScene:
    """K source frequencies uniform on [0, cfg.scene_span] at least
    cfg.separation apart, plus i.i.d. unit-variance complex Gaussian
    waveforms. Deterministic per trial_seed. One exact draw: sorted uniforms
    on the span less (K - 1) * separation, the i-th shifted up by i *
    separation, a unit-Jacobian map with the same law as gap-conditioned
    sorted uniforms (uniform spacings; David & Nagaraja, Order Statistics,
    2003). At K = 1 the stream is that of one plain uniform draw, bit for bit.
    """
    k, sep = cfg.K, cfg.separation
    rng = np.random.default_rng(trial_seed)
    nu = np.sort(rng.uniform(0.0, cfg.scene_span - (k - 1) * sep, k)) + sep * np.arange(k)
    x = (rng.standard_normal((k, cfg.L)) + 1j * rng.standard_normal((k, cfg.L))) / np.sqrt(2.0)
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
    if kind == "dft":
        return dft_projection(cfg.N, dictionary.M), None
    if kind == "random":
        return random_cm_projection(cfg.N, dictionary.M, seed), None
    phi0 = initial_projection(dictionary, cfg.N, cfg.design, seed)
    if kind == "designed":
        trace = design_with_alpha_sweep(dictionary, cfg.design, phi0, cfg.alpha_candidates)
    elif kind == "gd_prior_a":
        trace = design_with_alpha_sweep(dictionary, cfg.design, phi0, cfg.alpha_candidates, embed_unit_norm=False)
    else:  # gd_prior_b
        trace = design(dictionary, cfg.design, phi0, alpha=math.inf)
    return trace.final_phi, trace


def run_design_trace(cfg: SweepConfig) -> Table:
    """The design run of cfg.projection_kind as (iter, eta, mu_max) rows:
    the best-alpha run for designed and gd_prior_a, the one alpha = inf
    run for gd_prior_b. dft and random are not designed and raise
    ValueError."""
    dictionary = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    _, trace = build_projection(cfg.projection_kind, dictionary, cfg)
    if trace is None:
        raise ValueError(f"projection_kind {cfg.projection_kind!r} is not designed, so it has no design trace")
    rows = tuple(
        (t, float(trace.objective_per_iter[t]), float(trace.coherence_per_iter[t]))
        for t in range(trace.coherence_per_iter.size)
    )
    return Table(("iter", "eta", "mu_max"), rows)


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
    all trials, and so are its sensing matrix and that matrix's column
    norms. Each trial draws a scene, synthesizes measurements at the
    target SNR, runs the estimator, and scores both the OMP grid
    frequencies and the refined frequencies against the truth. A trial
    whose estimator fails leaves no score: each row averages the scores of
    the other trials (NaN if none) and counts trials - len(scores) failures.
    """
    dictionary = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    phi, _ = build_projection(cfg.projection_kind, dictionary, cfg)
    psi = phi.phi @ dictionary.A_ring
    sensing = psi, np.linalg.norm(psi, axis=0)
    ula = UlaConfig(M=cfg.M)
    rows = []
    for snr_index, snr_db in enumerate(cfg.snr_grid_db):
        scores = []  # (on-grid error, refined error, runtime) per trial that did not fail
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
                result = estimate(meas.Y, phi, dictionary, cfg.K, cfg.max_steps, sensing)
            except (ValueError, np.linalg.LinAlgError):
                continue
            runtime = time.perf_counter() - start
            nu0 = dictionary.grid[result.initial_grid_indices]
            scores.append((mse_frequencies(scene.nu, nu0), mse_frequencies(scene.nu, result.nu_hat), runtime))
        means = [sum(column) / len(scores) for column in zip(*scores)] if scores else [math.nan] * 3
        rows.append(SweepRow(cfg.projection_kind, float(snr_db), *means, len(scores), cfg.trials - len(scores)))
    return SweepResult(rows=tuple(rows))


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def emit_csv(result, path=None) -> None:
    """Write a result's header and rows as CSV to path, or to stdout if path
    is None, with deterministic order and formatting.

    Numbers are printed with 9 significant digits. The sweep runtime
    (SweepRow.mean_runtime_s) is never written, so that identical
    configurations produce byte-identical files.
    """
    text = "".join(",".join(map(_format_value, row)) + "\n" for row in (result.csv_header(), *result.csv_rows()))
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
    no, header = lines[0]
    try:
        n, l = (int(tok) for tok in header.split(","))
    except ValueError:
        n = l = 0
    if n < 1 or l < 1:
        raise ValueError(f"{path}: line {no}: header must be 'N,L' with positive integers, got {header!r}")
    if len(lines) != n + 1:
        raise ValueError(f"{path}: expected {n} data rows, found {len(lines) - 1}")
    y = np.empty((n, l), dtype=complex)
    for i, (no, line) in enumerate(lines[1:]):
        entries = line.split(",")
        if len(entries) != l:
            raise ValueError(f"{path}: line {no} has {len(entries)} entries, expected {l}")
        for j, tok in enumerate(entries):
            tok = tok.strip()
            try:
                y[i, j] = value = complex(tok[:-1] + "j" if tok.endswith("i") else tok)
            except ValueError:
                raise ValueError(f"{path}: line {no}, column {j + 1}: cannot parse {tok!r} as a complex number") from None
            if not cmath.isfinite(value):
                raise ValueError(f"{path}: line {no}, column {j + 1}: non-finite entry {value}")
    return y


def write_measurements_csv(y: np.ndarray, path) -> None:
    """Inverse of read_measurements_csv, for a 2-D Y of finite entries
    (anything else is named by as_matrix, and no file is written)."""
    y = as_matrix(y, "Y", ("row", "column"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{y.shape[0]},{y.shape[1]}\n")
        for row in y:
            fh.write(",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row) + "\n")


def _flat_fields() -> dict:
    """Flat config key -> (owning dataclass, resolved field type).

    Every field of DesignConfig and SweepConfig is a key, except
    SweepConfig's nested design settings.
    """
    keys = {}
    for owner in (DesignConfig, SweepConfig):
        hints = typing.get_type_hints(owner)
        keys.update((f.name, (owner, hints[f.name])) for f in fields(owner))
    del keys["design"]
    return keys


_FLAT_FIELDS = _flat_fields()


def config_from_dict(data: dict) -> SweepConfig:
    """Build a SweepConfig from flat JSON keys.

    Top-level keys mirror SweepConfig field names; the nested design
    settings use their own flat field names (t_max, step_size, init).
    Each value is cast to its field's annotated type: a scalar given for a
    tuple field becomes a 1-tuple, None is accepted only for optional
    fields, and a value that does not fit (including a non-integral number
    for an integer field) is rejected with its key.
    """
    kwargs = {DesignConfig: {}, SweepConfig: {}}
    for key, value in data.items():
        if key not in _FLAT_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        owner, hint = _FLAT_FIELDS[key]
        try:
            kwargs[owner][key] = _cast(hint, value)
        except (TypeError, ValueError, OverflowError):
            expected = hint.__name__ if type(hint) is type else str(hint)
            raise ValueError(f"config key {key!r} expects {expected}, got {value!r}") from None
    return SweepConfig(design=DesignConfig(**kwargs[DesignConfig]), **kwargs[SweepConfig])


def _cast(hint, value):
    """Cast a JSON value to a config field type: T, T | None or tuple[T, ...]
    with T one of int, float, str. No field takes a boolean."""
    if type(None) in typing.get_args(hint):
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        seq = value if isinstance(value, (list, tuple)) else [value]
        return tuple(_cast(typing.get_args(hint)[0], v) for v in seq)
    if isinstance(value, bool):
        raise ValueError("a boolean is not a config value")
    if hint is int and isinstance(value, float) and not value.is_integer():
        raise ValueError("non-integral value")
    return hint(value)


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
