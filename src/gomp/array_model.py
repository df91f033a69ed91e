"""Uniform linear array model.

Steering matrices and their frequency derivatives, grid dictionaries,
and synthetic multi-snapshot measurement generation with a controlled
signal-to-noise ratio. Values keep read-only copies of the caller's arrays
(store_read_only), so they are immutable, and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def steering_matrix(nu: np.ndarray, m: int) -> np.ndarray:
    """Array response of an m-sensor ULA (m >= 1) at K finite spatial
    frequencies nu (else ValueError naming the entry), in radians per
    sensor: the m-by-K matrix with entry (i, k) = exp(1j * i * nu[k])."""
    nu = as_vector(nu, "nu")
    if m < 1:
        raise ValueError(f"sensor count must be >= 1, got {m}")
    return np.exp(1j * (np.arange(m)[:, None] * nu))


def check_finite(x: np.ndarray, name: str, axes: tuple[str, ...] = ()) -> None:
    """Raise ValueError naming the first non-finite entry of x and its index,
    labelled by axes if given; the entry is located only once one is found."""
    if not np.isfinite(x).all():
        index = tuple(np.argwhere(~np.isfinite(x))[0].tolist())
        where = ", ".join(f"{axis} {i}".lstrip() for axis, i in zip(axes or ("",) * x.ndim, index))
        raise ValueError(f"{name} has non-finite entry {x[index]} at ({where})")


def as_2d(x, name: str) -> np.ndarray:
    """x as a 2-D complex array. Raises ValueError naming the input and its
    shape if it is not 2-D; an O(1) test, with no scan of the entries."""
    mat = np.asarray(x, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {mat.shape}")
    return mat


def as_matrix(x, name: str, axes: tuple[str, ...] = ()) -> np.ndarray:
    """x as a 2-D complex array of finite entries. Raises ValueError as
    as_2d does, then as check_finite does."""
    mat = as_2d(x, name)
    check_finite(mat, name, axes)
    return mat


def as_vector(x, name: str) -> np.ndarray:
    """x as a 1-D float array of finite entries, a scalar as one entry; raises
    ValueError naming x and its shape if it has more axes, then as check_finite does."""
    vec = np.atleast_1d(np.asarray(x, dtype=float))
    if vec.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {vec.shape}")
    check_finite(vec, name)
    return vec


def store_read_only(obj, **arrays: np.ndarray) -> None:
    """Set each array read-only as the field of that name on the frozen dataclass obj,
    copied first if it may share memory with the value the caller passed for that field."""
    for name, arr in arrays.items():
        if np.may_share_memory(arr, getattr(obj, name, None)):
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@lru_cache(maxsize=None)
def _ramp(m: int) -> np.ndarray:
    """The read-only m-by-1 column 1j * [0, 1, ..., m-1]."""
    ramp = 1j * np.arange(m)[:, None]
    ramp.setflags(write=False)
    return ramp


def steering_gradient(a: np.ndarray) -> np.ndarray:
    """Derivative of the steering matrix a = steering_matrix(nu, m) with
    respect to its frequencies: column k is d a[:, k] / d nu[k], so entry
    (i, k) equals 1j * i * a[i, k]. The column 1j * i is built once per m.
    """
    return _ramp(a.shape[0]) * a


@dataclass(frozen=True)
class UlaConfig:
    """Uniform linear array geometry: M is the sensor count."""

    M: int

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"M >= 2 required, got {self.M}")


@dataclass(frozen=True)
class SourceScene:
    """Ground-truth emitters: spatial frequencies and source waveforms.

    nu has length K; X is the K-by-L matrix whose row k holds the L time
    samples emitted by source k.
    """

    nu: np.ndarray
    X: np.ndarray

    def __post_init__(self) -> None:
        nu = as_vector(self.nu, "nu")
        X = as_2d(self.X, "X")
        if nu.size < 1:
            raise ValueError("nu must be a non-empty vector")
        if X.shape[0] != nu.size:
            raise ValueError(f"X has {X.shape[0]} rows but nu has {nu.size} entries")
        if X.shape[1] < 1:
            raise ValueError("X must have at least one time sample")
        check_finite(X, "X", ("source", "sample"))
        if np.any(np.all(X == 0, axis=1)):
            raise ValueError("every source waveform must be nonzero")
        store_read_only(self, nu=nu, X=X)

    @property
    def L(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Steering dictionary over a uniform frequency grid.

    grid[p] = nu_max * p / P for p = 0..P-1 and column p of the read-only
    A_ring, built from (grid, M), is the steering vector at grid[p], so
    every column has Euclidean norm sqrt(M).
    """

    grid: np.ndarray
    M: int
    A_ring: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        grid = as_vector(self.grid, "grid")
        if grid.size < self.M:
            raise ValueError(f"grid size P={grid.size} must be at least the sensor count M={self.M}")
        store_read_only(self, grid=grid, A_ring=steering_matrix(grid, self.M))

    @property
    def P(self) -> int:
        return self.A_ring.shape[1]

    @property
    def spacing(self) -> float:
        """Grid cell width nu_max / P."""
        return float(self.grid[1] - self.grid[0]) if self.P > 1 else 0.0


@dataclass(frozen=True)
class MeasurementSet:
    """Projected snapshot matrix Y (N-by-L), read-only, checked by as_matrix."""

    Y: np.ndarray

    def __post_init__(self) -> None:
        store_read_only(self, Y=as_matrix(self.Y, "Y", ("row", "column")))


def build_dictionary(p: int, nu_max: float, m: int) -> Dictionary:
    """Uniform steering dictionary with P points on [0, nu_max).

    For the full circle (nu_max = 2*pi) with P >= M the rows are orthogonal
    and A_ring @ A_ring^H equals P * I.
    """
    if p < 1:
        raise ValueError(f"grid size must be >= 1, got {p}")
    if not nu_max > 0:
        raise ValueError(f"nu_max must be positive, got {nu_max}")
    grid = nu_max * np.arange(p) / p
    return Dictionary(grid=grid, M=m)


def noise_scale_for_snr(signal_power: float, snr_db: float, noise_unit_power: float) -> float:
    """Noise amplitude sigma achieving a target SNR.

    Returns sigma such that signal_power / (sigma^2 * noise_unit_power)
    equals 10^(snr_db / 10). snr_db = inf gives sigma = 0; NaN, -inf and
    values for which sigma leaves the float range are rejected.
    """
    if signal_power < 0:
        raise ValueError(f"signal power must be nonnegative, got {signal_power}")
    if not noise_unit_power > 0:
        raise ValueError(f"unit noise power must be positive, got {noise_unit_power}")
    if not snr_db > -math.inf:
        raise ValueError(f"snr_db must be a number above -inf, got {snr_db}")
    if snr_db == math.inf:
        return 0.0
    try:
        sigma = math.sqrt(signal_power / (noise_unit_power * 10.0 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not math.isfinite(sigma):
        raise ValueError(f"snr_db {snr_db} is outside the float range: 10^(snr_db / 10) gives no finite noise scale")
    return sigma


def synthesize_measurements(
    scene: SourceScene,
    phi,
    ula: UlaConfig,
    snr_db: float,
    seed: int,
) -> MeasurementSet:
    """Generate Y = Phi A(nu) X + Phi Nbar at a prescribed SNR.

    Noise is drawn in sensor space (Nbar, M-by-L, i.i.d. circular complex
    Gaussian) and then projected, so the post-projection noise is correlated
    whenever Phi has non-orthogonal rows. The noise scale is calibrated
    against the realized signal power of this draw, which makes the
    per-trial SNR exact and the output a pure function of
    (scene, phi, snr_db, seed). With snr_db = inf the noise branch is
    skipped entirely and Y equals Phi A(nu) X. An snr_db so low that
    ||Y||_F^2 of the draw overflows (such as -3080 dB for unit-power
    sources) raises ValueError naming it, since no estimate can be fitted
    to such a Y.

    ``phi`` may be a ProjectionMatrix or a plain N-by-M array of finite entries.
    """
    phi_mat = as_matrix(phi, "Phi")
    n, m = phi_mat.shape
    if m != ula.M:
        raise ValueError(f"projection has {m} columns but the array has {ula.M} sensors")
    signal = phi_mat @ (steering_matrix(scene.nu, m) @ scene.X)
    if math.isinf(snr_db) and snr_db > 0:
        return MeasurementSet(Y=signal)
    signal_power = float(np.linalg.norm(signal) ** 2)
    # E||Phi Nbar||_F^2 = L * ||Phi||_F^2 for unit-variance Nbar
    unit_power = scene.L * float(np.linalg.norm(phi_mat) ** 2)
    sigma = noise_scale_for_snr(signal_power, snr_db, unit_power)
    rng = np.random.default_rng(seed)
    nbar = (rng.standard_normal((m, scene.L)) + 1j * rng.standard_normal((m, scene.L))) / np.sqrt(2.0)
    y = signal + phi_mat @ (sigma * nbar)
    if not math.isfinite(np.vdot(y, y).real):
        raise ValueError(f"snr_db {snr_db}: the noise scale {sigma:.3g} overflows ||Y||_F^2 for this draw")
    return MeasurementSet(Y=y)
