"""Constant-modulus projection matrix design.

Mutual-coherence diagnostics for sensing matrices Psi = Phi @ A_ring and a
projected gradient-descent designer that keeps every entry of Phi on the
unit circle. The objective embeds the unit-column-norm constraint directly:
with Q = Phi @ A_ring (N x P) and D = diag(1/||q_p||),

    eta(Phi) = || D Q^H Q D - I ||_F^2
             = || G - (P/N) I ||_F^2 + P (P - N) / N,   G = (Q D)(Q D)^H,

by the frame-potential identity ||(QD)^H QD||_F = ||G||_F, trace(G) = P. eta
is evaluated in the N x N form, whose terms are both nonnegative for P >= N.
The descent direction applies an entry-wise soft threshold (shrinking) to
the P x P Gram error so that updates concentrate on the worst column pairs.
DFT-row and random-phase baselines are included for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import Dictionary

_CM_TOL = 1e-9

# shrinkage relaxations alpha that design_with_alpha_sweep tries by default
DEFAULT_ALPHAS = (1.0, 1.5, 2.0, 3.0, 5.0)


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """N-by-M analog combiner with unit-modulus (phase-only) entries.

    np.asarray(projection) gives the matrix, so every function that takes a
    projection also takes a plain complex array.
    """

    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.atleast_2d(np.asarray(self.phi, dtype=complex))
        if np.max(np.abs(np.abs(phi) - 1.0)) > _CM_TOL:
            raise ValueError("every projection entry must have unit modulus")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.phi, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class DesignConfig:
    """Gradient-descent designer settings.

    t_max is the iteration budget; step_size is the initial step, which the
    designer halves (up to 20 times per iteration) whenever the trial step
    increases eta before re-projection, and doubles after an iteration that
    needed no halving. init picks the start (see initial_projection).
    """

    t_max: int = 200
    step_size: float = 0.05
    init: str = "svd"

    def __post_init__(self) -> None:
        if self.t_max < 0:
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if self.init not in ("svd", "random"):
            raise ValueError(f"init must be 'svd' or 'random', got {self.init!r}")


@dataclass(frozen=True)
class DesignTrace:
    """Per-iteration record of a design run.

    coherence_per_iter[0] and objective_per_iter[0] describe the starting
    point; entry t describes the iterate after update t. step_per_iter[t-1]
    is the step update t accepted and evals_per_iter[t-1] the eta
    evaluations its line search made: 0 for a stationary update, whose
    shrunk Gram error is all zeros and whose step is therefore known to be
    accepted untried. final_phi is the iterate with the lowest recorded
    coherence, not necessarily the last.
    """

    coherence_per_iter: np.ndarray
    objective_per_iter: np.ndarray
    final_phi: ProjectionMatrix
    step_per_iter: np.ndarray
    evals_per_iter: np.ndarray
    best_iter: int

    def __post_init__(self) -> None:
        mu = np.asarray(self.coherence_per_iter, dtype=float)
        if not ((0 <= mu) & (mu <= 1)).all():
            raise ValueError("coherence values must lie in [0, 1]")

    @property
    def final_coherence(self) -> float:
        return float(self.coherence_per_iter[self.best_iter])


def mutual_coherence(psi) -> float:
    """Largest normalized column cross-correlation of Psi, in [0, 1].

    max over i != j of |psi_i^H psi_j| / (||psi_i|| ||psi_j||).
    """
    mat = np.asarray(psi, dtype=complex)
    if mat.ndim != 2 or mat.shape[1] < 2:
        raise ValueError("mutual coherence needs a matrix with at least two columns")
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0):
        raise ValueError("mutual coherence is undefined for a zero column")
    return _coherence(_unit_gram_error(mat.conj().T @ mat, 1.0 / norms))


def welch_bound(n: int, p: int) -> float:
    """Lower bound sqrt((P - N) / (N (P - 1))) on the coherence of any
    N-by-P unit-norm frame."""
    if n < 1 or p < 2:
        raise ValueError(f"need N >= 1 and P >= 2, got N={n}, P={p}")
    if p < n:
        raise ValueError(f"Welch bound requires P >= N, got N={n}, P={p}")
    return math.sqrt((p - n) / (n * (p - 1)))


def gram_error(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Normalized Gram residual E = D Q^H Q D - I with D = diag(d).

    Hermitian with (numerically) zero diagonal when d holds the reciprocal
    column norms of Q.
    """
    q = np.asarray(q, dtype=complex)
    d = np.asarray(d)
    p = q.shape[1]
    if d.shape != (p,):
        raise ValueError(f"normalizer has shape {d.shape} but Q has {p} columns")
    return _unit_gram_error(q.conj().T @ q, d)


def _unit_gram_error(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D S D - I for the Gram matrix S = Q^H Q and D = diag(d)."""
    e = s * (d[:, None] * d)
    e.flat[:: d.size + 1] -= 1.0
    return e


def _coherence(e: np.ndarray) -> float:
    """Mutual coherence max |E_ij| read off a normalized Gram error E, whose
    diagonal is zero up to rounding; capped at 1."""
    return float(min(np.max(np.abs(e)), 1.0))


def _columns(phi: np.ndarray, a: np.ndarray):
    """(Q, d): Q = Phi A_ring and d its reciprocal column norms. Every eta
    evaluation takes the column norms here, once."""
    q = phi @ a
    norms = np.linalg.norm(q, axis=0)
    if np.any(norms == 0):
        raise ValueError("eta is undefined when Phi @ A_ring has a zero column")
    return q, 1.0 / norms


def _gram_state(phi: np.ndarray, a: np.ndarray):
    """(Q, d, S, E) at Phi: S = Q^H Q and E the normalized Gram error, which
    the descent direction and the coherence read."""
    q, d = _columns(phi, a)
    s = q.conj().T @ q
    return q, d, s, _unit_gram_error(s, d)


def _frame_eta(q: np.ndarray, d: np.ndarray) -> float:
    """eta = ||G - (P/N) I||_F^2 + P (P - N) / N from the N x N frame operator
    G = (Q D)(Q D)^H. The objective, every line-search try and the recorded
    eta use this one kernel, so the line search compares like with like."""
    n, p = q.shape
    qd = q * d
    g = (qd @ qd.conj().T).ravel()
    g[:: n + 1] -= p / n
    # ||g||_F squared exactly as np.linalg.norm(g) ** 2 rounds it
    return float(np.sqrt(g.real.dot(g.real) + g.imag.dot(g.imag)) ** 2) + p * (p - n) / n


def _descent(ah, q, d, s, e_used, embed_unit_norm: bool = True) -> np.ndarray:
    """Q W A^H with W = 4 D E D - 2 diag(r) and E = e_used, where ah = A^H.

    r is the diagonal of C = 2 E D S D^3, r_i = 2 d_i^3 Re sum_j E_ij S_ji d_j,
    taken in O(P^2) without forming C. Without embed_unit_norm W = 4 D E D.
    """
    w = e_used * ((4.0 * d)[:, None] * d)
    if embed_unit_norm:
        r = 2.0 * d**3 * np.real((e_used * s.T) @ d)
        w.flat[:: d.size + 1] -= 2.0 * r
    return (q @ w) @ ah


def shrink_error(e: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Entry-wise complex soft threshold of E at alpha * beta.

    Entries with modulus at or below the threshold become zero; the rest
    shrink toward zero by the threshold while keeping their phase, and NaN
    entries stay NaN. Hermitian inputs stay Hermitian. A zero threshold
    returns e * 1.0 and an infinite one e * 0.0. design() skips this call
    when max |E| <= alpha * beta, since every entry would then be zero.
    """
    if not alpha >= 1:
        raise ValueError(f"alpha >= 1 required, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    e = np.asarray(e, dtype=complex)
    thr = alpha * beta
    if thr == 0 or thr == math.inf:  # 0 / 0 and inf / inf would give NaN below
        return e * (1.0 if thr == 0 else 0.0)
    return e * (1.0 - thr / np.maximum(np.abs(e), thr))


def objective_eta(phi, dictionary: Dictionary) -> float:
    """Squared Frobenius norm ||D S D - I||_F^2 of the normalized Gram residual
    of Phi @ A_ring, evaluated from the N x N frame operator (see _frame_eta).

    Accepts a ProjectionMatrix or any complex matrix (the design line search
    evaluates points off the constant-modulus manifold).
    """
    return _frame_eta(*_columns(np.asarray(phi, dtype=complex), dictionary.A_ring))


def gradient_eta(phi, dictionary: Dictionary, e_used: np.ndarray) -> np.ndarray:
    """Descent direction of eta with respect to Phi.

    4 Q D E D A^H - 2 Phi A R A^H with R = diag(C), C = 2 E D Q^H Q D^3,
    evaluated with E replaced by ``e_used`` (the raw Gram error or its
    shrunk version) in both occurrences. With the raw error this equals
    twice the conjugate Wirtinger gradient, so the directional derivative
    of eta along Delta is exactly Re <G, Delta>.
    """
    q, d, s, _ = _gram_state(np.asarray(phi, dtype=complex), dictionary.A_ring)
    return _descent(dictionary.A_ring.conj().T, q, d, s, np.asarray(e_used, dtype=complex))


def cm_project(z: np.ndarray) -> np.ndarray:
    """Entry-wise projection z / |z| onto the unit circle; zeros map to 1."""
    z = np.asarray(z, dtype=complex)
    mag = np.abs(z)
    if mag.all():
        return z / mag
    return np.where(mag == 0, 1.0 + 0.0j, z / np.where(mag == 0, 1.0, mag))


def dft_projection(n: int, m: int) -> ProjectionMatrix:
    """N rows of the M-point DFT matrix taken at stride M / N."""
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    if m % n != 0:
        raise ValueError(f"M must be divisible by N, got N={n}, M={m}")
    stride = m // n
    rows = np.arange(0, m, stride)
    w = np.exp(-2j * np.pi * np.outer(rows, np.arange(m)) / m)
    return ProjectionMatrix(phi=w)


def random_cm_projection(n: int, m: int, seed: int) -> ProjectionMatrix:
    """Independent uniform phases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return ProjectionMatrix(phi=np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, m))))


def initial_projection(dictionary: Dictionary, n: int, cfg: DesignConfig, seed: int = 0) -> ProjectionMatrix:
    """Starting point for the designer per cfg.init; seed drives the random
    phases.

    The SVD start is dictionary-aware: the N principal left-singular-vector
    rows of A_ring, pushed onto the unit circle entry-wise. It falls back
    to random phases when it leaves Phi @ A_ring with a (near-)zero column
    or fully parallel columns, which happens for degenerate dictionaries
    where the singular basis is arbitrary.
    """
    if cfg.init == "random":
        return random_cm_projection(n, dictionary.M, seed)
    if n < 1 or n > dictionary.M:
        raise ValueError(f"need 1 <= N <= M, got N={n}, M={dictionary.M}")
    u = np.linalg.svd(dictionary.A_ring, full_matrices=False)[0]
    phi = ProjectionMatrix(phi=cm_project(u[:, :n].conj().T))
    q = phi.phi @ dictionary.A_ring
    norms = np.linalg.norm(q, axis=0)
    if norms.min() <= 1e-9 * norms.max() or mutual_coherence(q) > 1.0 - 1e-9:
        return random_cm_projection(n, dictionary.M, seed)
    return phi


def design(
    dictionary: Dictionary,
    cfg: DesignConfig,
    phi0: ProjectionMatrix,
    alpha: float = 1.0,
    embed_unit_norm: bool = True,
) -> DesignTrace:
    """Projected gradient descent on eta with shrunk Gram error.

    Each iteration computes the Gram error E of the current iterate,
    shrinks it at alpha * welch_bound (alpha >= 1 relaxes the threshold;
    alpha = inf skips the shrink and uses the raw Gram error, which
    reproduces the plain constant-modulus extension of the
    unit-norm-embedded descent), steps along the resulting descent
    direction with a backtracking line search on eta evaluated before
    re-projection, and projects back onto the constant-modulus manifold. Coherence and eta are recorded at the
    start and after every iteration; the returned matrix is the best
    iterate by coherence.

    An iteration is stationary when alpha is finite and max |E| <=
    alpha * welch_bound: the shrunk error is then all zeros, so is the
    descent direction, and the first line-search try is the iterate itself,
    accepted at the carried-over step. Such an iteration skips the shrink,
    the descent direction and the line search, and only re-projects. The
    re-projection is not idempotent in floating point and can cycle between
    a few bit patterns, so a stationary iterate that equals one of the two
    before it, bit for bit, reuses that iterate's Gram state. Every output
    is as if the full iteration had run.

    With embed_unit_norm=False the column normalization is treated as a
    constant within each step (only the first gradient term is used and
    columns are renormalized implicitly on the next iteration), which
    reproduces the baseline that imposes unit norms after each update
    instead of inside the objective.
    """
    if not alpha >= 1:
        raise ValueError(f"alpha >= 1 required, got {alpha}")
    a = dictionary.A_ring
    ah = a.conj().T
    phi = np.array(phi0, dtype=complex)
    beta = welch_bound(phi.shape[0], dictionary.P)
    shrink = math.isfinite(alpha)

    def state_at(phi):
        q, d, s, e = _gram_state(phi, a)
        return q, d, s, e, float(np.max(np.abs(e))), _frame_eta(q, d)

    state = state_at(phi)
    recent = [(phi, state)]  # the last two iterates and their states
    mus, etas, steps, evals = [], [], [], []
    best_phi, best_iter = phi, 0
    base = cfg.step_size
    for t in range(cfg.t_max + 1):
        if t:
            step, halvings = base, 0
            if shrink and e_max <= alpha * beta:  # stationary: the try at Phi itself is accepted
                phi = cm_project(phi)
                evals.append(0)
                key = phi.tobytes()
                state = next((old_state for old, old_state in recent if old.tobytes() == key), None)
                if state is None:
                    state = state_at(phi)
            else:
                e_used = shrink_error(e, alpha, beta) if shrink else e
                grad = _descent(ah, q, d, s, e_used, embed_unit_norm)
                z = phi - step * grad
                while halvings < 20 and _frame_eta(*_columns(z, a)) > eta:
                    step *= 0.5
                    halvings += 1
                    z = phi - step * grad
                phi = cm_project(z)
                evals.append(min(halvings + 1, 20))
                state = state_at(phi)
            base = min(step * 2.0, 1e9) if halvings == 0 else step
            steps.append(step)
            recent = [recent[-1], (phi, state)]
        q, d, s, e, e_max, eta = state
        mus.append(min(e_max, 1.0))
        etas.append(eta)
        if mus[t] < mus[best_iter]:
            best_phi, best_iter = phi, t
    return DesignTrace(
        coherence_per_iter=np.array(mus),
        objective_per_iter=np.array(etas),
        final_phi=ProjectionMatrix(phi=best_phi),
        step_per_iter=np.array(steps),
        evals_per_iter=np.array(evals, dtype=int),
        best_iter=best_iter,
    )


def design_with_alpha_sweep(
    dictionary: Dictionary,
    cfg: DesignConfig,
    phi0: ProjectionMatrix,
    alphas: tuple = DEFAULT_ALPHAS,
    embed_unit_norm: bool = True,
) -> DesignTrace:
    """Run the designer for each shrinkage relaxation candidate and keep the
    trace reaching the lowest coherence. Candidates run independently from
    the same start, so ties resolve to the earlier candidate."""
    if not alphas:
        raise ValueError("need at least one alpha candidate")
    best: DesignTrace | None = None
    for alpha in alphas:
        trace = design(dictionary, cfg, phi0, alpha=alpha, embed_unit_norm=embed_unit_norm)
        if best is None or trace.final_coherence < best.final_coherence:
            best = trace
    return best
