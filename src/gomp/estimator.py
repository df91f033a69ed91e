"""Off-grid frequency estimation.

A simultaneous (multi-snapshot) OMP stage selects on-grid starting
frequencies, and a first-order Taylor refinement then walks each frequency
off the grid: linearize the steering vector around the current estimate,
solve a small least-squares problem for the real step delta, move, refit
the waveform, and keep the update only if the squared residual strictly
falls. The step is taken in variable-projection form (Golub & Pereyra
1973; Kaufman 1975): delta is solved jointly with a waveform correction,
which amounts to projecting the steering gradient off the current
response, so a single source converges in a few steps rather than at the
linear rate of the frozen-waveform step. The accepted-residual history is
strictly decreasing by construction, and a pass ends at its first step
that does not lower the residual. For several sources the refinement
cycles over them, each time subtracting the contributions of all other
sources with their waveforms taken from the joint least-squares fit of
all sources at the current frequencies, and stops after a pass in which
no source moved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import Dictionary, steering_matrix, steering_vector

_PINV_RTOL = 1e-12


@dataclass(frozen=True)
class GompConfig:
    """Refinement budgets: i_max inner steps per pass, j_max outer passes."""

    i_max: int = 10
    j_max: int = 5

    def __post_init__(self) -> None:
        if self.i_max < 1:
            raise ValueError(f"i_max must be >= 1, got {self.i_max}")
        if self.j_max < 1:
            raise ValueError(f"j_max must be >= 1, got {self.j_max}")


@dataclass(frozen=True)
class EstimationResult:
    """Estimated frequencies and waveforms plus refinement diagnostics.

    histories holds, in execution order, the accepted squared-residual
    values of every single-source refinement pass, one strictly
    decreasing array per pass.
    """

    nu_hat: np.ndarray
    X_hat: np.ndarray
    histories: tuple
    initial_grid_indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        nu = np.atleast_1d(np.asarray(self.nu_hat, dtype=float))
        x = np.atleast_2d(np.asarray(self.X_hat, dtype=complex))
        if not np.all(np.isfinite(nu)):
            raise ValueError("estimated frequencies must be finite")
        nu.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "nu_hat", nu)
        object.__setattr__(self, "X_hat", x)

    @property
    def converged(self) -> bool:
        """True if the refinement stopped by itself rather than at j_max:
        its last outer pass (the last K histories) accepted no step."""
        k = self.nu_hat.size
        return len(self.histories) >= k and all(len(h) == 1 for h in self.histories[-k:])


def _solve_pinv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solve a^+ b via SVD, reporting rank deficiency.

    Singular values below _PINV_RTOL times the largest are treated as a
    rank deficiency and raised, never silently truncated.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0 or s[-1] <= _PINV_RTOL * s[0]:
        raise np.linalg.LinAlgError(
            f"rank-deficient least-squares system (singular values {s.min():.3e}..{s.max():.3e})"
        )
    return vh.conj().T @ ((u.conj().T @ b) / s[:, None])


def omp(y: np.ndarray, psi, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneous OMP over L snapshots.

    Greedily selects k dictionary columns: each round scores every column p
    by ||psi_p^H R||_2 / ||psi_p||_2 against the current residual matrix R,
    picks the best unselected column, refits all selected coefficients
    jointly by least squares, and updates R.

    Parameters
    ----------
    y : (N, L) complex array
        Measurement snapshots.
    psi : (N, P) complex array
        Sensing matrix whose columns are candidate responses.
    k : int
        Number of columns to select, at most N.

    Returns
    -------
    indices : (k,) int array of selected grid indices, in selection order.
    coefficients : (k, L) complex array of joint least-squares waveforms.
    """
    mat = np.asarray(psi, dtype=complex)
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    n, p = mat.shape
    if y.shape[0] != n:
        raise ValueError(f"measurements have {y.shape[0]} rows but sensing matrix has {n}")
    bad = np.argwhere(~np.isfinite(y))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"measurements contain non-finite entry {y[row, col]} at (row {row}, column {col})")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")
    if k > p:
        raise ValueError(f"cannot select K={k} columns from P={p}")
    if not np.any(y):
        raise ValueError("measurement matrix is zero; OMP has nothing to select")
    col_norms = np.linalg.norm(mat, axis=0)
    if np.any(col_norms == 0):
        raise ValueError("sensing matrix has a zero column")
    residual = y
    chosen: list[int] = []
    coeffs = np.zeros((0, y.shape[1]), dtype=complex)
    for _ in range(k):
        scores = np.linalg.norm(mat.conj().T @ residual, axis=1) / col_norms
        scores[chosen] = -1.0
        chosen.append(int(np.argmax(scores)))
        coeffs = _solve_pinv(mat[:, chosen], y)
        residual = y - mat[:, chosen] @ coeffs
    return np.array(chosen), coeffs


def _fit(
    y: np.ndarray, phi_mat: np.ndarray, nu: float, x: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The single-source fit at nu, all from one response v = Phi a(nu).

    Returns (a, v, x, R, eps): the steering vector a(nu), the response v,
    the waveform x (the least-squares fit v^H Y / ||v||^2 unless x is
    given), the residual R = Y - v x^T and eps = ||R||_F^2.
    """
    a = steering_vector(nu, phi_mat.shape[1])
    v = phi_mat @ a
    if x is None:
        vc = v.conj()
        denom = np.real(vc @ v)
        if denom == 0:
            raise ValueError("Phi a(nu) is zero; waveform is unidentifiable")
        x = (vc @ y) / denom
    r = y - v[:, None] * x
    return a, v, x, r, float(np.linalg.norm(r) ** 2)


def ls_signal(y: np.ndarray, phi, nu: float) -> np.ndarray:
    """Waveform minimizing ||Y - Phi a(nu) x^T||_F for a fixed frequency."""
    return _fit(np.atleast_2d(np.asarray(y, dtype=complex)), np.asarray(phi, dtype=complex), nu)[2]


def residual_cost(y: np.ndarray, phi, nu: float, x: np.ndarray) -> float:
    """Squared Frobenius residual ||Y - Phi a(nu) x^T||_F^2."""
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    return _fit(y, np.asarray(phi, dtype=complex), nu, np.asarray(x, dtype=complex))[4]


def delta_step(resid: np.ndarray, vg: np.ndarray, x: np.ndarray) -> float:
    """Real frequency correction from the linearized steering model.

    This is the vectorized least-squares problem of the paper: with Y
    vectorized column-major, solve y ~ (x kron Phi a(nu)) + (x kron v_g)
    delta for real delta, where v_g = Phi g(nu) and g is the steering
    gradient. Exact to first order in the offset. The caller hands over
    what its fit at nu already holds: the residual R = Y - Phi a(nu) x^T,
    the gradient response v_g and the waveform x. Two Kronecker identities
    then give the solution without forming the N*L-long vectors:

        ||x kron v_g||^2 = ||x||^2 ||v_g||^2,
        (x kron v_g)^H vec(R) = v_g^H R conj(x),

    so delta = Re(v_g^H R conj(x)) / (||x||^2 ||v_g||^2).

    Handed the projected gradient P_perp v_g = v_g - v (v^H v_g) / ||v||^2
    with v = Phi a(nu) instead, the same formula gives the
    variable-projection step: the real delta of
    min ||R - delta v_g x^T - v dx^T|| over delta and a waveform
    correction dx, for any x, not only the least-squares fit.
    """
    denom = np.vdot(x, x).real * np.vdot(vg, vg).real
    if denom == 0:
        raise ValueError(
            "x kron v_g is zero: the waveform or the (projected) gradient response is zero; "
            "delta is unidentifiable"
        )
    return float(np.vdot(vg, resid @ x.conj()).real / denom)


def refine_single(
    y: np.ndarray, phi, nu0: float, x0: np.ndarray, cfg: GompConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """One single-source refinement pass.

    Repeats delta step, frequency update, waveform refit for up to
    cfg.i_max iterations. An update is accepted only if it strictly lowers
    the squared residual; the first one that does not (a tie included) is
    rejected and ends the pass, returning the previous pair. Returns
    (nu_hat, x_hat, history) where history is the strictly decreasing
    sequence of accepted residual values, starting with the residual of
    (nu0, x0).

    Each step is the variable-projection step: delta_step is handed the
    gradient response projected off v = Phi a(nu). The pass carries the
    fit (a, v, x, R, eps) of the accepted iterate, so each attempted step
    forms Phi a(nu) once, in the refit of its new frequency; the step
    itself reads R, v and the gradient i k a_k of a.
    """
    phi_mat = np.asarray(phi, dtype=complex)
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    ramp = 1j * np.arange(phi_mat.shape[1])
    nu = float(nu0)
    a, v, x, r, eps = _fit(y, phi_mat, nu, np.asarray(x0, dtype=complex))
    history = [eps]
    for _ in range(cfg.i_max):
        vg = phi_mat @ (ramp * a)
        nu_new = nu + delta_step(r, vg - v * (np.vdot(v, vg) / np.vdot(v, v).real), x)
        fit = _fit(y, phi_mat, nu_new)
        if not fit[4] < eps:
            break
        nu, (a, v, x, r, eps) = nu_new, fit
        history.append(eps)
    return nu, x, np.array(history)


def refine_multi(
    y: np.ndarray,
    phi,
    nu0_vec: np.ndarray,
    x0: np.ndarray,
    cfg: GompConfig,
    grid_indices: np.ndarray | None = None,
) -> EstimationResult:
    """Cyclic multi-source refinement.

    Runs cfg.j_max outer passes. Within a pass, source k is refined by
    refine_single against Y minus the contributions of all other sources,
    Phi a(nu_j) w_j^T for j != k. The waveforms w are the joint
    least-squares fit of all K sources to Y at their current frequencies
    (already updated this pass for indices below k, last pass's for
    indices above k), as in OMP's orthogonal refit; with the frequencies
    fixed, this is the separable least-squares solution. Source k's own
    refinement warm-starts from its previous (nu_k, x_k). The loop stops
    after a pass in which no source accepted a step: such a pass leaves
    nu, X and V untouched, so every later pass would repeat it exactly.
    The estimate is therefore the one cfg.j_max passes give; only
    histories is shorter, and EstimationResult.converged reports the
    stop. With K=1 there are no other sources, and the result equals
    cfg.j_max repeated refine_single passes.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the joint system Phi A(nu) is rank-deficient, for example when
        two refined frequencies coincide; omp raises the same for its refit.
    """
    phi_mat = np.asarray(phi, dtype=complex)
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    nu = np.atleast_1d(np.asarray(nu0_vec, dtype=float)).copy()
    x = np.atleast_2d(np.asarray(x0, dtype=complex)).copy()
    k_total = nu.size
    if x.shape[0] != k_total:
        raise ValueError(f"X0 has {x.shape[0]} rows but nu0 has {k_total} entries")
    # V = Phi A(nu); only column k changes during source k's turn
    v = phi_mat @ steering_matrix(nu, phi_mat.shape[1]) if k_total > 1 else None
    histories: list[np.ndarray] = []
    for _ in range(cfg.j_max):
        moved = False
        for k in range(k_total):
            y_k = y
            if v is not None:
                w = _solve_pinv(v, y)
                others = np.arange(k_total) != k
                y_k = y - v[:, others] @ w[others]
            nu[k], x[k], hist = refine_single(y_k, phi_mat, nu[k], x[k], cfg)
            if v is not None:
                v[:, k] = phi_mat @ steering_vector(nu[k], phi_mat.shape[1])
            histories.append(hist)
            moved = moved or hist.size > 1
        if not moved:
            break
    return EstimationResult(
        nu_hat=nu,
        X_hat=x,
        histories=tuple(histories),
        initial_grid_indices=None if grid_indices is None else np.asarray(grid_indices, dtype=int),
    )


def estimate(y: np.ndarray, phi, dictionary: Dictionary, k: int, cfg: GompConfig) -> EstimationResult:
    """End-to-end estimation: OMP on-grid start, then cyclic refinement.

    ``phi`` may be a ProjectionMatrix or a plain N-by-M complex array; the
    sensing matrix is formed internally from the dictionary.
    """
    phi_mat = np.asarray(phi, dtype=complex)
    psi = phi_mat @ dictionary.A_ring
    indices, x0 = omp(y, psi, k)
    return refine_multi(y, phi_mat, dictionary.grid[indices], x0, cfg, grid_indices=indices)
