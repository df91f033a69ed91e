"""Off-grid frequency estimation.

A simultaneous (multi-snapshot) OMP stage selects on-grid starting
frequencies, and a first-order Taylor refinement then walks all K
frequencies off the grid jointly: linearize the steering matrix, solve a
small real least-squares problem for the steps delta, move, refit the
waveforms, and keep the update only if the squared residual strictly
falls. The step is taken in variable-projection form (Golub & Pereyra
1973; Kaufman 1975), jointly with a waveform correction, so the
refinement is Gauss-Newton on the separable least-squares problem and
converges in a few steps; the paper's frozen-waveform Taylor step is its
special case. The paper's i_max Taylor steps inside j_max sweeps over the
sources thus become one budget of joint steps (a config file sets it as
i_max * j_max). The refinement ends for one of three reasons, which its
EstimationResult names (stop_reason) along with the number of accepted
steps (n_iter): "converged" when the linear model of the next step
predicts a decrease of the squared residual of at most sqrt(eps) of it,
the predicted-reduction test of MINPACK with its default ftol (More,
Garbow & Hillstrom 1980), checked before that step is paid for;
"stalled" when an evaluated step does not strictly lower the residual;
"max_steps" when the budget is spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import Dictionary, steering_gradient, steering_matrix

_PINV_RTOL = 1e-12
# a step whose predicted decrease of ||R||^2 is at most this share of it
# is not taken: MINPACK's default ftol, the square root of the machine epsilon
_FTOL = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class EstimationResult:
    """Estimated frequencies and waveforms plus refinement diagnostics.

    histories holds one array, the strictly decreasing accepted squared
    residuals of the refinement from its start point. stop_reason is the
    one record of how the refinement ended: "converged" (the next step's
    predicted decrease was at most sqrt(eps) of the residual), "stalled"
    (an evaluated step did not lower the residual) or "max_steps" (the
    step budget ran out); only "converged" says it converged.
    """

    nu_hat: np.ndarray
    X_hat: np.ndarray
    histories: tuple
    stop_reason: str
    initial_grid_indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        nu = np.atleast_1d(np.asarray(self.nu_hat, dtype=float))
        x = np.atleast_2d(np.asarray(self.X_hat, dtype=complex))
        if not np.isfinite(nu).all():
            raise ValueError("estimated frequencies must be finite")
        if self.stop_reason not in ("converged", "stalled", "max_steps"):
            raise ValueError(f"stop_reason must be 'converged', 'stalled' or 'max_steps', got {self.stop_reason!r}")
        nu.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "nu_hat", nu)
        object.__setattr__(self, "X_hat", x)

    @property
    def n_iter(self) -> int:
        """Number of accepted refinement steps."""
        return len(self.histories[0]) - 1


def _solve_pinv(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solve a^+ b via SVD, reporting rank deficiency.

    Returns (u, a^+ b) with u an orthonormal basis of the range of a.
    Singular values below _PINV_RTOL times the largest are treated as a
    rank deficiency and raised, never silently truncated. One column's SVD
    (a / ||a||, ||a||, 1) is taken in closed form, without LAPACK's call
    overhead or a product with its unit right factor; a zero column is
    divided by 1 and raised by the rank check.
    """
    if a.shape[1] == 1:
        s = np.array([np.sqrt(np.vdot(a, a).real)])
        u, vh = a / (s[0] or 1.0), None
    else:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0 or s[-1] <= _PINV_RTOL * s[0]:
        raise np.linalg.LinAlgError(
            f"rank-deficient least-squares system (singular values {s.min():.3e}..{s.max():.3e})"
        )
    coeffs = (u.conj().T @ b) / s[:, None]
    return u, coeffs if vh is None else vh.conj().T @ coeffs


def omp(y: np.ndarray, psi, k: int, col_norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    col_norms : (P,) float array
        The Euclidean norms of psi's columns, which the caller forms once
        with psi (np.linalg.norm(psi, axis=0)).

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
    if not y.any():
        raise ValueError("measurement matrix is zero; OMP has nothing to select")
    if np.shape(col_norms) != (p,):
        raise ValueError(f"col_norms has shape {np.shape(col_norms)}, the sensing matrix has {p} columns")
    if (col_norms == 0).any():
        raise ValueError("sensing matrix has a zero column")
    residual = y
    chosen: list[int] = []
    while True:
        # psi^T conj(R) is the conjugate of psi^H R; forming it spares a
        # conjugated copy of psi, and numpy's matmul is slower on that copy
        corr = (mat.T @ residual.conj()).view(float)
        scores = np.sqrt(np.einsum("pi,pi->p", corr, corr)) / col_norms
        scores[chosen] = -1.0
        chosen.append(int(np.argmax(scores)))
        coeffs = _solve_pinv(mat[:, chosen], y)[1]
        if len(chosen) == k:
            return np.array(chosen), coeffs
        residual = y - mat[:, chosen] @ coeffs


def _fit(
    y: np.ndarray, phi_mat: np.ndarray, nu, x: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The joint fit at the K frequencies nu, from one SVD of V = Phi A(nu).

    Returns (A, W, X, R, eps): A(nu), an orthonormal basis W of range(V),
    the waveforms X (the least-squares fit unless given), R = Y - V X and
    eps = ||R||_F^2. V X is a broadcast sum, bitwise the outer product
    v x^T for K=1, so an exact model leaves a zero residual. Raises
    numpy.linalg.LinAlgError, by _solve_pinv's rule, if V is rank-deficient.
    """
    a = steering_matrix(nu, phi_mat.shape[1])
    v = phi_mat @ a
    w, x_ls = _solve_pinv(v, y)
    x = x_ls if x is None else x
    r = y - (v[:, :, None] * x).sum(axis=1)
    return a, w, x, r, float(np.vdot(r, r).real)


def ls_signal(y: np.ndarray, phi, nu: float) -> np.ndarray:
    """Waveform minimizing ||Y - Phi a(nu) x^T||_F for a fixed frequency."""
    return _fit(np.atleast_2d(np.asarray(y, dtype=complex)), np.asarray(phi, dtype=complex), [nu])[2][0]


def residual_cost(y: np.ndarray, phi, nu: float, x: np.ndarray) -> float:
    """Squared Frobenius residual ||Y - Phi a(nu) x^T||_F^2."""
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    return _fit(y, np.asarray(phi, dtype=complex), [nu], np.asarray(x, dtype=complex)[None, :])[4]


def delta_step(resid: np.ndarray, u: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Real frequency corrections from the linearized steering model.

    The vectorized least-squares problem of the paper for all K sources
    at once: with Y vectorized column-major, solve
    vec(R) ~ sum_k (x_k kron u_k) delta_k for real delta, where R is the
    residual Y - Phi A(nu) X, x_k row k of X and u_k column k of U, the
    gradient responses. By (x_j kron u_j)^H (x_k kron u_k) =
    (u_j^H u_k)(x_j^H x_k) and (x_j kron u_j)^H vec(R) = u_j^H R conj(x_j),
    the normal equations are M delta = b with
    M = Re((U^H U) o (conj(X) X^T)) and b_j = Re(u_j^H R conj(x_j)),
    formed without the N*L-long vectors.

    Handed U = P_perp Phi G(nu), the steering gradients projected off the
    range of V = Phi A(nu), this is the variable-projection (Kaufman)
    step: the real delta of min ||R - sum_k delta_k u_k x_k^T - V dX||
    over delta and dX, for any X, not only the least-squares fit.

    Takes U (N, K) and X (K, L) and returns the K-vector delta together
    with b^T delta, the decrease of ||R||_F^2 that the linear model
    predicts for it: at M delta = b the model residual
    ||R||^2 - 2 b^T delta + delta^T M delta equals ||R||^2 - b^T delta.
    Raises ValueError, naming source k, if a diagonal entry
    ||u_k||^2 ||x_k||^2 is zero.
    """
    u_h, x_c = u.conj().T, x.conj()
    gram = ((u_h @ u) * (x_c @ x.T)).real
    diag = gram.diagonal()
    if not diag.all():
        raise ValueError(f"source {int(np.argmin(diag != 0))}: x kron u is zero: the waveform or the "
                         "(projected) gradient response is zero; delta is unidentifiable")
    b = (u_h.T * (resid @ x_c.T)).sum(axis=0).real
    # a 1x1 system is a division; np.linalg.solve's call overhead dominates it
    delta = b / diag if b.size == 1 else np.linalg.solve(gram, b)
    return delta, float(b @ delta)


def refine_multi(
    y: np.ndarray,
    phi,
    nu0_vec: np.ndarray,
    x0: np.ndarray,
    max_steps: int,
    grid_indices: np.ndarray | None = None,
    scale_exp: int = 0,
) -> EstimationResult:
    """Joint refinement of all K frequencies by strict-descent
    variable-projection Gauss-Newton.

    Takes at most max_steps steps from (nu0, X0), a K-vector and a K-by-L
    array, or one frequency and an L-vector (refine_single is this
    function under its older name). Each hands delta_step the residual,
    the gradient responses projected off the range of V = Phi A(nu) and
    the waveforms of the accepted fit (the Kaufman Jacobian
    -P_perp Phi g(nu_k) x_k^T). If the decrease of ||R||^2 that
    the step's linear model predicts is at most sqrt(eps) ||R||^2, the
    refinement ends with stop_reason "converged" before the step is
    evaluated. Otherwise all waveforms are refit at the moved frequencies:
    one steering evaluation and one SVD per evaluated step. An evaluated
    step is accepted only if it strictly lowers the squared residual; the
    first that does not (a tie included) ends the refinement with
    "stalled", a spent budget with "max_steps". Both stops are fixed
    points: a warm restart from the returned frequencies and waveforms,
    whose residual is bitwise the same, computes the same step and stops
    again at once. So a larger budget gives the same estimate, and a
    budget split into warm-started calls gives the same estimate as one
    call with their sum.

    grid_indices is carried into the result. estimate passes Y and X0
    divided by 2^scale_exp, and X_hat and the history come back scaled
    by 2^scale_exp and 4^scale_exp (an entry beyond the float range reads
    inf or 0); the default 0 returns them as fitted, bit for bit.

    Raises
    ------
    ValueError
        If max_steps is below 1.
    numpy.linalg.LinAlgError
        If the joint system Phi A(nu) is rank-deficient, for example when
        two refined frequencies coincide; omp raises the same for its refit.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    phi_mat = np.asarray(phi, dtype=complex)
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    nu = np.atleast_1d(np.asarray(nu0_vec, dtype=float)).copy()
    x = np.atleast_2d(np.asarray(x0, dtype=complex)).copy()
    if x.shape[0] != nu.size:
        raise ValueError(f"X0 has {x.shape[0]} rows but nu0 has {nu.size} entries")
    a, w, x, r, cost = _fit(y, phi_mat, nu, x)
    history = [cost]
    stop = "max_steps"
    for _ in range(max_steps):
        vg = phi_mat @ steering_gradient(a)
        delta, predicted = delta_step(r, vg - w @ (w.conj().T @ vg), x)
        if predicted <= _FTOL * cost:
            stop = "converged"
            break
        nu_new = nu + delta
        fit = _fit(y, phi_mat, nu_new)
        if not fit[4] < cost:
            stop = "stalled"
            break
        nu, (a, w, x, r, cost) = nu_new, fit
        history.append(cost)
    with np.errstate(over="ignore"):
        x = np.ldexp(x.view(float), scale_exp).view(complex)
        history = np.ldexp(history, 2 * scale_exp)
    return EstimationResult(
        nu_hat=nu,
        X_hat=x,
        histories=(history,),
        stop_reason=stop,
        initial_grid_indices=None if grid_indices is None else np.asarray(grid_indices, dtype=int),
    )


refine_single = refine_multi


def estimate(
    y: np.ndarray, phi, dictionary: Dictionary, k: int, max_steps: int,
    sensing: tuple[np.ndarray, np.ndarray] | None = None,
) -> EstimationResult:
    """End-to-end estimation: OMP picks k grid starts, then refine_multi
    takes at most max_steps joint steps from them.

    ``phi`` may be a ProjectionMatrix or a plain N-by-M complex array.
    ``sensing`` is the pair (Psi, its column norms), Psi = Phi A_ring the
    sensing matrix and the norms OMP scores by. The pair is formed on each
    call unless the caller passes it, as a sweep does to form it once.

    Both stages run on Y / 2^e, 2^e the power of two just above Y's largest
    real or imaginary part, and refine_multi scales X_hat and the history
    back by 2^e and 4^e. The scaling is exact, so the estimate does not
    depend on the scale of Y, and it keeps OMP's scores and the squared
    residuals in range. A non-finite or all-zero Y has e = 0 and reaches
    omp, which rejects it.
    """
    phi_mat = np.asarray(phi, dtype=complex)
    if sensing is None:
        psi = phi_mat @ dictionary.A_ring
        sensing = psi, np.linalg.norm(psi, axis=0)
    y = np.ascontiguousarray(y, dtype=complex).view(float)
    e = math.frexp(np.abs(y).max(initial=0.0))[1]
    y = np.ldexp(y, -e).view(complex)
    indices, x0 = omp(y, sensing[0], k, sensing[1])
    return refine_multi(y, phi_mat, dictionary.grid[indices], x0, max_steps, grid_indices=indices, scale_exp=e)
