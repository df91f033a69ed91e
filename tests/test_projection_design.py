"""Projection design tests.

Coherence and Welch-bound analytics, Gram error and shrinking operator
algebra, the finite-difference oracle for the descent direction (the
directional derivative of eta along Delta equals Re<G, Delta> with a
single constant 1.0), descent behavior, and the design loop contracts.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gomp import projection_design
from gomp.array_model import Dictionary, build_dictionary
from gomp.projection_design import (
    DesignConfig,
    DesignTrace,
    ProjectionMatrix,
    _descent,
    cm_project,
    design,
    design_with_alpha_sweep,
    dft_projection,
    gradient_eta,
    gram_error,
    initial_projection,
    mutual_coherence,
    objective_eta,
    random_cm_projection,
    shrink_error,
    welch_bound,
)

# measured once by the finite-difference oracle and frozen: the closed-form
# direction is exactly twice the conjugate Wirtinger gradient, so the
# directional derivative of eta along Delta is 1.0 * Re<G, Delta>
FD_CONSTANT = 1.0

SRC = Path(__file__).resolve().parents[1] / "src"


def _random_instance(rng, n=None, m=None, p=None):
    n = int(rng.integers(2, 5)) if n is None else n
    m = int(rng.integers(3, 7)) if m is None else m
    p = int(rng.integers(max(4, m), 9)) if p is None else p
    nu_max = float(rng.uniform(np.pi, 2 * np.pi))
    dictionary = build_dictionary(p, nu_max, m)
    phi = random_cm_projection(n, m, seed=int(rng.integers(0, 2**31)))
    return phi, dictionary


def _inv_norms(q):
    return 1.0 / np.linalg.norm(q, axis=0)


# ---------------------------------------------------------------- coherence

def test_mutual_coherence_orthogonal_columns():
    assert mutual_coherence(np.eye(4)[:, :3]) == 0.0


def test_mutual_coherence_duplicate_column():
    psi = np.array([[1.0, 1.0], [0.5, 0.5], [0.0, 0.0]])
    assert mutual_coherence(psi) == pytest.approx(1.0)


def test_mutual_coherence_enumerated_pairs():
    psi = np.array([[1.0, 1 / np.sqrt(2), 0.0], [0.0, 1 / np.sqrt(2), 1.0]])
    assert mutual_coherence(psi) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_mutual_coherence_scale_invariance():
    rng = np.random.default_rng(1)
    psi = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    scales = rng.uniform(0.1, 3.0, 7) * np.exp(1j * rng.uniform(0, 2 * np.pi, 7))
    assert mutual_coherence(psi * scales) == pytest.approx(mutual_coherence(psi), abs=1e-12)


def test_mutual_coherence_rejects_zero_column():
    psi = np.ones((3, 3), dtype=complex)
    psi[:, 1] = 0
    with pytest.raises(ValueError):
        mutual_coherence(psi)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mutual_coherence_names_a_non_finite_entry(bad):
    psi = np.ones((3, 4), dtype=complex)
    psi[1, 2] = bad
    with pytest.raises(ValueError, match=r"Psi has non-finite entry .* at \(1, 2\)"):
        mutual_coherence(psi)


# -------------------------------------------------------------- welch bound

def test_welch_bound_fig1_dimensions():
    assert welch_bound(16, 64) == pytest.approx(0.218218, abs=1e-6)


def test_welch_bound_square_and_single_row():
    assert welch_bound(8, 8) == 0.0
    for p in (2, 5, 64):
        assert welch_bound(1, p) == pytest.approx(1.0)


def test_welch_bound_rejects_p_below_n():
    with pytest.raises(ValueError):
        welch_bound(10, 9)


def test_welch_bound_is_a_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(n, 12))
        if p < 2:
            continue
        psi = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        assert welch_bound(n, p) <= mutual_coherence(psi) + 1e-9


# -------------------------------------------------------------- gram error

def test_gram_error_orthonormal_columns():
    q = np.eye(4)[:, :3]
    assert np.allclose(gram_error(q, _inv_norms(q)), 0.0)


def test_gram_error_duplicate_columns():
    q = np.array([[1.0, 1.0], [0.0, 0.0]])
    e = gram_error(q, _inv_norms(q))
    assert np.allclose(e, [[0.0, 1.0], [1.0, 0.0]])


def test_gram_error_hermitian_zero_diagonal():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    e = gram_error(q, _inv_norms(q))
    assert np.max(np.abs(e - e.conj().T)) < 1e-12
    assert np.max(np.abs(np.diagonal(e))) < 1e-12


# ----------------------------------------------------------------- shrink

def test_shrink_soft_thresholds_magnitude():
    assert shrink_error(np.array([[0.5]]), 1.0, 0.3)[0, 0] == pytest.approx(0.2)


def test_shrink_zeroes_below_threshold():
    assert shrink_error(np.array([[0.1]]), 1.0, 0.3)[0, 0] == 0.0


def test_shrink_preserves_phase():
    out = shrink_error(np.array([[0.4j]]), 1.0, 0.3)[0, 0]
    assert out == pytest.approx(0.1j)


def test_shrink_nonexpansive_and_hermitian():
    rng = np.random.default_rng(4)
    e = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    e = (e + e.conj().T) / 2
    out = shrink_error(e, 1.5, 0.2)
    assert np.all(np.abs(out) <= np.abs(e) + 1e-15)
    assert np.all(out[np.abs(e) < 0.3] == 0)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_shrink_infinite_threshold_zeroes_everything():
    e = np.ones((3, 3), dtype=complex)
    assert np.all(shrink_error(e, np.inf, 0.2) == 0)


def test_shrink_edge_entries():
    """An entry exactly at the threshold and a zero entry become zero
    without a floating-point warning, a NaN entry stays NaN and leaves the
    others as they would be without it, and a zero threshold returns E
    bit for bit."""
    e = np.array([[0.3, 0.0, 0.5j], [np.nan, -0.2 + 0.4j, 1e-300]])
    with np.errstate(all="raise"):
        out = shrink_error(e, 1.0, 0.3)
    assert out[0, 0] == 0 and out[0, 1] == 0 and out[1, 2] == 0
    assert out[0, 2] == pytest.approx(0.2j)
    assert np.isnan(out[1, 0])
    assert out[1, 1] == shrink_error(e[1:, 1:2], 1.0, 0.3)[0, 0]
    rng = np.random.default_rng(15)
    e = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert shrink_error(e, 1.0, 0.0).tobytes() == e.tobytes()


# -------------------------------------------------------------- cm_project

def test_cm_project_values():
    assert cm_project(np.array([2.0 + 0j]))[0] == pytest.approx(1.0)
    assert cm_project(np.array([1.0 + 1.0j]))[0] == pytest.approx((1 + 1j) / np.sqrt(2))
    assert cm_project(np.array([0.0 + 0j]))[0] == 1.0


def test_cm_project_idempotent():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    once = cm_project(z)
    assert np.max(np.abs(cm_project(once) - once)) < 1e-12
    assert np.max(np.abs(np.abs(once) - 1.0)) < 1e-12


# -------------------------------------------------------- objective/gradient

def test_objective_orthonormal_sensing_is_zero():
    d = build_dictionary(64, 2 * np.pi, 64)
    # full-circle square dictionary: A A^H = P I, so any unitary-row pick of
    # rows keeps columns orthogonal; use the DFT rows
    phi = dft_projection(64, 64)
    assert objective_eta(phi, d) == pytest.approx(0.0, abs=1e-18)


def test_objective_duplicate_columns_value():
    """A dictionary with two identical steering columns gives the two-by-two
    Gram error [[0,1],[1,0]], so eta = 2 for any projection."""
    d = build_dictionary(2, 1.0, 2)
    dup = Dictionary(grid=[0.0, 2 * np.pi], M=2)
    phi = random_cm_projection(2, 2, seed=13)
    assert objective_eta(phi, dup) == pytest.approx(2.0, abs=1e-12)
    assert d.P == 2  # sanity: non-degenerate small dictionary builds fine


def test_objective_matches_reevaluation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        phi, d = _random_instance(rng)
        q = phi.phi @ d.A_ring
        dn = np.diag(_inv_norms(q))
        expected = np.linalg.norm(dn @ q.conj().T @ q @ dn - np.eye(d.P)) ** 2
        assert objective_eta(phi, d) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    extra_m=st.integers(0, 4),
    extra_p=st.integers(0, 8),
    nu_max=st.floats(0.1, 2 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_frame_form_matches_dense_and_welch_floor(n, extra_m, extra_p, nu_max, seed):
    """For P >= M >= N, objective_eta, evaluated from the N x N frame
    operator, equals the dense ||D S D - I||_F^2 and never falls below the
    frame-potential floor P (P - N) / N."""
    m = n + extra_m
    p = max(m + extra_p, 2)
    d = build_dictionary(p, nu_max, m)
    phi = random_cm_projection(n, m, seed=seed)
    q = phi.phi @ d.A_ring
    dn = np.diag(_inv_norms(q))
    dense = np.linalg.norm(dn @ q.conj().T @ q @ dn - np.eye(p)) ** 2
    eta = objective_eta(phi, d)
    assert eta == pytest.approx(dense, rel=1e-12)
    assert eta >= p * (p - n) / n - 1e-9


def test_gradient_shrunk_error_matches_dense_reference():
    """With a shrunk error E, gradient_eta equals the dense
    4 Q D E D A^H - 2 Phi A diag(C) A^H, C = 2 E D S D^3 formed in full; the
    finite-difference oracle covers only the raw Gram error."""
    rng = np.random.default_rng(14)
    for i in range(24):
        if i % 3 == 0:  # square: P = M = N
            p = int(rng.integers(4, 9))
            phi, d = _random_instance(rng, n=p, m=p, p=p)
        else:
            phi, d = _random_instance(rng)
        n = phi.phi.shape[0]
        q = phi.phi @ d.A_ring
        e = gram_error(q, _inv_norms(q))
        off = np.abs(e[~np.eye(d.P, dtype=bool)])
        e_used = shrink_error(e, float(rng.uniform(1.0, 2.0)), 0.5 * float(np.median(off)))
        assert 0 < np.count_nonzero(e_used) < e.size - d.P
        dn = np.diag(_inv_norms(q))
        c = 2.0 * e_used @ dn @ (q.conj().T @ q) @ dn**3
        ah = d.A_ring.conj().T
        ref = 4.0 * q @ dn @ e_used @ dn @ ah - 2.0 * q @ np.diag(np.real(np.diag(c))) @ ah
        g = gradient_eta(phi, d, e_used)
        assert g.shape == (n, d.M)
        assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)


def test_gradient_zero_error_gives_zero():
    rng = np.random.default_rng(9)
    phi, d = _random_instance(rng)
    g = gradient_eta(phi, d, np.zeros((d.P, d.P)))
    assert np.all(g == 0)


def test_gradient_fd_consistency_frozen_constant():
    """Directional derivative by central differences = FD_CONSTANT * Re<G, D>."""
    rng = np.random.default_rng(10)
    h = 1e-6
    for _ in range(8):
        phi, d = _random_instance(rng)
        q = phi.phi @ d.A_ring
        e = gram_error(q, _inv_norms(q))
        g = gradient_eta(phi, d, e)
        for _ in range(5):
            delta = rng.standard_normal(phi.phi.shape) + 1j * rng.standard_normal(phi.phi.shape)
            fd = (objective_eta(phi.phi + h * delta, d) - objective_eta(phi.phi - h * delta, d)) / (2 * h)
            inner = float(np.real(np.sum(np.conj(g) * delta)))
            assert fd == pytest.approx(FD_CONSTANT * inner, rel=1e-5), "direction mismatch"


def test_zero_column_rejected_by_objective_gradient_and_design():
    """Phi = [1, -1] cancels a(0) = [1, 1], so Phi @ A_ring has a zero column
    and eta is undefined."""
    d = build_dictionary(2, 2 * np.pi, 2)
    phi = ProjectionMatrix(phi=np.array([[1.0, -1.0]]))
    assert np.array_equal(np.abs(phi.phi @ d.A_ring), [[0.0, 2.0]])
    with pytest.raises(ValueError, match="zero column"):
        objective_eta(phi, d)
    with pytest.raises(ValueError, match="zero column"):
        gradient_eta(phi, d, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="zero column"):
        design(d, DesignConfig(t_max=3), phi)


@pytest.mark.parametrize("alpha", [0.5, np.nan])
def test_design_rejects_alpha_below_one_or_nan(alpha):
    d = build_dictionary(32, 2 * np.pi, 16)
    cfg = DesignConfig(t_max=3)
    with pytest.raises(ValueError, match="alpha >= 1 required"):
        design(d, cfg, initial_projection(d, 4, cfg), alpha=alpha)


def test_gradient_is_descent_direction():
    rng = np.random.default_rng(11)
    n_desc = 0
    for _ in range(100):
        phi, d = _random_instance(rng, n=2, m=3, p=4)
        q = phi.phi @ d.A_ring
        e = gram_error(q, _inv_norms(q))
        g = gradient_eta(phi, d, e)
        if objective_eta(phi.phi - 1e-6 * g, d) < objective_eta(phi, d):
            n_desc += 1
    print(f"\n  descent direction held on {n_desc}/100 instances")
    assert n_desc >= 95


# ----------------------------------------------------------------- baselines

def test_dft_projection_small_case():
    phi = dft_projection(2, 4).phi
    assert np.allclose(phi[0], [1, 1, 1, 1])
    assert np.allclose(phi[1], [1, -1, 1, -1])


def test_dft_projection_stride_rows():
    phi = dft_projection(16, 64).phi
    w = np.exp(-2j * np.pi * np.outer(np.arange(64), np.arange(64)) / 64)
    assert np.allclose(phi, w[::4])
    assert np.max(np.abs(np.abs(phi) - 1.0)) < 1e-12


def test_dft_projection_rejects_nondivisible():
    with pytest.raises(ValueError):
        dft_projection(3, 8)


def test_random_cm_projection_deterministic():
    a = random_cm_projection(4, 8, seed=1)
    b = random_cm_projection(4, 8, seed=1)
    c = random_cm_projection(4, 8, seed=2)
    assert np.array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, c.phi)
    assert np.max(np.abs(np.abs(a.phi) - 1.0)) < 1e-12


def test_projection_matrix_rejects_non_cm():
    with pytest.raises(ValueError):
        ProjectionMatrix(phi=np.array([[1.0, 0.5]]))
    for bad in (np.nan, np.inf, complex(np.nan, 1.0)):  # named before the modulus test
        with pytest.raises(ValueError, match=r"Phi has non-finite entry .* at \(0, 0\)"):
            ProjectionMatrix(phi=[[bad, 1], [1, 1j]])


def test_projection_matrix_rejects_a_phi_that_is_not_2d():
    """A phi of shape (M,) is not read as a 1-by-M combiner."""
    with pytest.raises(ValueError, match=r"Phi must be a 2-D array, got shape \(8,\)"):
        ProjectionMatrix(phi=np.ones(8))


def test_design_rejects_a_start_that_is_not_2d_before_iterating(monkeypatch):
    """A 1-D start fails in design's gate, before the first Gram state of
    what would be an N = 1 design."""
    def no_iteration(*args):
        raise AssertionError("design iterated on a 1-D start")

    monkeypatch.setattr(projection_design, "_gram_state", no_iteration)
    with pytest.raises(ValueError, match=r"Phi must be a 2-D array, got shape \(8,\)"):
        design(build_dictionary(16, 2 * np.pi, 8), DesignConfig(t_max=5), np.ones(8))


@pytest.mark.parametrize("init", ["svd", "random"])
@pytest.mark.parametrize("n", [0, 9])
def test_initial_projection_checks_n_for_either_start(init, n):
    """1 <= N <= M is checked before the start is chosen: the random start
    neither returns a 9x8 matrix nor fails inside numpy at N = 0."""
    d = build_dictionary(16, 2 * np.pi, 8)
    with pytest.raises(ValueError, match=f"need 1 <= N <= M, got N={n}, M=8"):
        initial_projection(d, n, DesignConfig(init=init))


def test_mutual_coherence_names_a_matrix_that_is_not_2d():
    with pytest.raises(ValueError, match=r"Psi must be a 2-D array, got shape \(4,\)"):
        mutual_coherence(np.ones(4))


@pytest.mark.parametrize("mu", [[0.5, np.nan], [np.nan]])
def test_design_trace_rejects_nan_coherence(mu):
    """A NaN coherence is not in [0, 1]: a run whose eta and mu went NaN
    cannot be recorded as a trace."""
    phi = dft_projection(2, 4)
    steps = np.ones(len(mu) - 1)
    with pytest.raises(ValueError, match=r"coherence values must lie in \[0, 1\]"):
        DesignTrace(np.array(mu), np.zeros(len(mu)), phi, steps, steps.astype(int), 0, len(mu) - 1)
    DesignTrace(np.full(len(mu), 0.5), np.zeros(len(mu)), phi, steps, steps.astype(int), 0, len(mu) - 1)


# ------------------------------------------------------------------- design

@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: DesignConfig(t_max=-1), "t_max must be nonnegative, got -1", id="config-t-max"),
    pytest.param(lambda: DesignConfig(init="pca"), "init must be 'svd' or 'random', got 'pca'", id="config-init"),
    pytest.param(lambda: mutual_coherence(np.ones((3, 1))), r"Psi needs at least two columns .*, got shape \(3, 1\)",
                 id="coherence-one-column"),
    pytest.param(lambda: welch_bound(0, 4), "need N >= 1 and P >= 2, got N=0, P=4", id="welch-n"),
    pytest.param(lambda: welch_bound(1, 1), "need N >= 1 and P >= 2, got N=1, P=1", id="welch-p"),
    pytest.param(lambda: gram_error(np.ones((2, 3)), np.ones(2)), r"normalizer has shape \(2,\) but Q has 3 columns",
                 id="gram-normalizer"),
    pytest.param(lambda: shrink_error(np.ones((2, 2)), 0.5, 0.1), "alpha >= 1 required, got 0.5", id="shrink-alpha"),
    pytest.param(lambda: shrink_error(np.ones((2, 2)), 1.0, -0.1), "beta must be nonnegative, got -0.1",
                 id="shrink-beta"),
    pytest.param(lambda: dft_projection(0, 4), "dimensions must be positive, got N=0, M=4", id="dft-n"),
    pytest.param(lambda: dft_projection(2, -2), "dimensions must be positive, got N=2, M=-2", id="dft-m"),
    pytest.param(lambda: design_with_alpha_sweep(build_dictionary(8, 2 * np.pi, 4), DesignConfig(t_max=1),
                                                 random_cm_projection(2, 4, 0), alphas=()),
                 "need at least one alpha candidate", id="alpha-sweep-empty"),
])
def test_rejected_input_is_named(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_design_zero_iterations_returns_start():
    d = build_dictionary(16, 2 * np.pi, 8)
    phi0 = random_cm_projection(4, 8, seed=3)
    trace = design(d, DesignConfig(t_max=0), phi0)
    assert np.array_equal(trace.final_phi.phi, phi0.phi)
    assert trace.coherence_per_iter.size == 1
    assert trace.final_coherence == pytest.approx(
        mutual_coherence(phi0.phi @ d.A_ring), abs=1e-12
    )


def test_design_checks_the_start_before_any_iteration():
    """phi0 is checked as a ProjectionMatrix and against the dictionary's
    sensor count before the first Gram state: a start off the unit circle
    is rejected even where an iterate would beat it, and neither a NaN
    start nor a wrong column count reaches numpy; a NaN entry is named with
    its index."""
    d = build_dictionary(64, 2 * np.pi, 64)
    cfg = DesignConfig(t_max=20)
    phi0 = initial_projection(d, 16, cfg).phi
    moduli = np.random.default_rng(4).uniform(0.5, 1.5, phi0.shape)
    nan_start = phi0.copy()
    nan_start[3, 9] = np.nan
    for start in (2.0 * phi0, moduli * phi0):
        with pytest.raises(ValueError, match="unit modulus"):
            design(d, cfg, start, alpha=1.0)
    with pytest.raises(ValueError, match=r"Phi has non-finite entry \(nan\+0j\) at \(3, 9\)"):
        design(d, cfg, nan_start, alpha=1.0)
    with pytest.raises(ValueError, match="phi0 has 32 columns but the dictionary has M=64 sensors"):
        design(d, cfg, phi0[:, :32], alpha=1.0)


def _reference_design(d, cfg, phi0, alpha, embed_unit_norm=True, stop_rule=True, mu_rtol=1e-4):
    """The design loop spelled out with the public kernels and no shortcut:
    at every iterate a fresh Gram error, its shrunk version, the direction
    gradient_eta (only its first term 4 Q D E D A^H, from _descent, without
    embed_unit_norm), halving the step (at most 20 times) while
    objective_eta of the trial point rises, projection, and doubling the
    next start step after an iteration that needed no halving. Every update
    after the stop leaves Phi where it is: the first iterate t whose shrunk
    error is zero, or at which, over the last 50 iterations, the running
    minimum of mu fell by at most mu_rtol of itself and eta by at most 1e-3
    of itself. mu_rtol=None spells the mu half as it read before it had a
    tolerance, no new best over the window; stop_rule=False leaves out the
    second rule, as the designer did before it had it."""
    beta = welch_bound(phi0.phi.shape[0], d.P)
    ah = d.A_ring.conj().T
    phi = np.array(phi0.phi)

    def gram(phi):
        q = phi @ d.A_ring
        return q, _inv_norms(q), gram_error(q, _inv_norms(q))

    q, dn, e = gram(phi)
    mus, etas, steps, runmin = [min(np.max(np.abs(e)), 1.0)], [objective_eta(phi, d)], [], []
    best_phi, best_iter, stop = phi, 0, None
    base = cfg.step_size
    for t in range(cfg.t_max + 1):
        if t:
            step, halvings = base, 0
            if stop is None:
                if embed_unit_norm:
                    grad = gradient_eta(phi, d, e_used)
                else:
                    grad = _descent(ah, q, dn, None, e_used, embed_unit_norm=False)
                while halvings < 20 and objective_eta(phi - step * grad, d) > etas[-1]:
                    step *= 0.5
                    halvings += 1
                phi = cm_project(phi - step * grad)
            base = min(step * 2.0, 1e9) if halvings == 0 else step
            steps.append(step)
            q, dn, e = gram(phi)
            mus.append(min(np.max(np.abs(e)), 1.0))
            etas.append(objective_eta(phi, d))
            if mus[-1] < mus[best_iter]:
                best_phi, best_iter = phi, t
        runmin.append(mus[best_iter])
        e_used = shrink_error(e, alpha, beta) if np.isfinite(alpha) else e
        if mu_rtol is None:
            mu_stalled = t - best_iter >= 50
        else:
            mu_stalled = t >= 50 and runmin[t - 50] - runmin[t] <= mu_rtol * runmin[t]
        stalled = stop_rule and mu_stalled and etas[t - 50] - etas[t] <= 1e-3 * etas[t]
        if stop is None and (not e_used.any() or stalled):
            stop = t
    stop = cfg.t_max if stop is None else stop
    return np.array(mus), np.array(etas), np.array(steps), best_phi, best_iter, stop


def _assert_trace_equals_reference(trace, reference):
    mus, etas, steps, best_phi, best_iter, stop = reference
    assert np.array_equal(trace.coherence_per_iter, mus)
    assert np.array_equal(trace.objective_per_iter, etas)
    assert np.array_equal(trace.step_per_iter, steps)
    assert np.array_equal(trace.final_phi.phi, best_phi)
    assert trace.best_iter == best_iter
    assert trace.stop_iter == stop


@pytest.mark.parametrize("alpha", [1.5, np.inf])
def test_design_equals_public_kernel_loop(alpha):
    """design() runs the verified objective and gradient: its trace and
    final Phi equal, bitwise, a loop built from the public kernels."""
    d = build_dictionary(32, 2 * np.pi * 0.7, 16)
    cfg = DesignConfig(t_max=15, step_size=5.0)  # a large start forces halvings
    phi0 = initial_projection(d, 4, cfg)
    trace = design(d, cfg, phi0, alpha=alpha)
    reference = _reference_design(d, cfg, phi0, alpha)
    assert len(set(reference[2])) > 2  # both the halving and the doubling rule ran
    _assert_trace_equals_reference(trace, reference)


# (P = M, nu_max, N, t_max): the Fig.-3 partial-span grid and the full
# circle at P = 64, N = 16 for a few iterations, and the full circle at
# P = 16, N = 4 for long enough that the stop rule fires
FIG3_NU_MAX = 2 * np.pi * 15 / 64
DESIGN_GRIDS = {
    "fig3": (64, FIG3_NU_MAX, 16, 8),
    "circle": (64, 2 * np.pi, 16, 8),
    "circle16": (16, 2 * np.pi, 4, 150),
}


@pytest.mark.parametrize("grid", DESIGN_GRIDS)
@pytest.mark.parametrize("alpha", [1.0, 3.0, 5.0, np.inf])
@pytest.mark.parametrize("embed_unit_norm", [True, False])
@pytest.mark.parametrize("init", ["svd", "random"])
def test_design_equals_reference_loop(grid, alpha, embed_unit_norm, init):
    """The updates after the stop, which skip the shrink, the descent
    direction, the line search and the projection, leave every output
    bitwise equal to the loop that computes each of them and stops where
    the shrunk error is zero. The starts with alpha * welch_bound above
    max |E| (alpha = 5 on every grid and alpha = 3 on both circles) stop at
    iterate 0; on circle16 the stall rule fires between 56 and 90 for
    alpha = inf and for alpha = 1 without the unit-norm embedding, and
    alpha = 1 with it runs all 150 updates. stop_iter counts the updates
    that moved Phi: each of them, and none after, made an evaluation."""
    p, nu_max, n, t_max = DESIGN_GRIDS[grid]
    d = build_dictionary(p, nu_max, p)
    cfg = DesignConfig(t_max=t_max, init=init)
    phi0 = initial_projection(d, n, cfg)
    trace = design(d, cfg, phi0, alpha=alpha, embed_unit_norm=embed_unit_norm)
    _assert_trace_equals_reference(trace, _reference_design(d, cfg, phi0, alpha, embed_unit_norm))
    assert trace.evals_per_iter.shape == (cfg.t_max,)
    assert trace.evals_per_iter[:trace.stop_iter].all() and not trace.evals_per_iter[trace.stop_iter:].any()
    if alpha == 5.0:
        assert not trace.evals_per_iter.any()


def test_design_stop_freezes_the_rest_of_the_trace():
    """After stop_iter every update makes no evaluation and mu and eta repeat
    that iterate bit for bit; the best iterate lies at least 50 iterations
    before the stop. On the full circle at P = 16, M = 16, N = 4 from the
    SVD start, alpha = inf stops at 58 with its best at 7 of 150, while
    alpha = 1, still setting new bests at its last update, reports
    stop_iter = t_max."""
    d = build_dictionary(16, 2 * np.pi, 16)
    cfg = DesignConfig(t_max=150)
    phi0 = initial_projection(d, 4, cfg)
    trace = design(d, cfg, phi0, alpha=np.inf)
    stop = trace.stop_iter
    assert (stop, trace.best_iter) == (58, 7)
    assert trace.evals_per_iter[:stop].all() and not trace.evals_per_iter[stop:].any()
    assert np.all(trace.coherence_per_iter[stop:] == trace.coherence_per_iter[stop])
    assert np.all(trace.objective_per_iter[stop:] == trace.objective_per_iter[stop])
    assert trace.best_iter <= stop - 50
    improving = design(d, cfg, phi0, alpha=1.0)
    assert improving.best_iter == cfg.t_max and improving.stop_iter == cfg.t_max


@pytest.mark.parametrize("grid", DESIGN_GRIDS)
def test_stall_tolerance_zero_is_the_old_rule(grid, monkeypatch):
    """At _STALL_MU_RTOL = 0 the mu half of the stall test reads "no new
    best over the window", so every trace is bitwise the one the designer
    gave before the tolerance."""
    monkeypatch.setattr(projection_design, "_STALL_MU_RTOL", 0.0)
    p, nu_max, n, t_max = DESIGN_GRIDS[grid]
    d = build_dictionary(p, nu_max, p)
    for init in ("svd", "random"):
        cfg = DesignConfig(t_max=t_max, init=init)
        phi0 = initial_projection(d, n, cfg)
        for alpha in (1.0, 3.0, 5.0, np.inf):
            for embed_unit_norm in (True, False):
                trace = design(d, cfg, phi0, alpha=alpha, embed_unit_norm=embed_unit_norm)
                _assert_trace_equals_reference(
                    trace, _reference_design(d, cfg, phi0, alpha, embed_unit_norm, mu_rtol=None)
                )


def test_alpha_sweep_with_the_stop_keeps_the_fig3_phi():
    """On the Fig.-3 grid from the SVD start the winner of the five-candidate
    sweep is alpha = 3, as in the reference loop without the stop. Its best
    mu keeps improving in the 7th digit up to the last of 200 updates; the
    stall rule stops it before t_max with its mu within 1e-4 relative of the
    full-budget winner's. The default candidates keep that trace bit for
    bit: this is the Phi of every Fig.-3 sweep. The grid's singular values
    are distinct, so the SVD start, and this, hold at any BLAS thread
    count."""
    five = (1.0, 1.5, 2.0, 3.0, 5.0)
    d = build_dictionary(64, FIG3_NU_MAX, 64)
    cfg = DesignConfig(t_max=200)
    phi0 = initial_projection(d, 16, cfg)
    runs = [_reference_design(d, cfg, phi0, alpha, stop_rule=False) for alpha in five]
    full = min(runs, key=lambda r: r[0][r[4]])  # min keeps the earliest of a tie
    assert full is runs[five.index(3.0)]
    swept = design_with_alpha_sweep(d, cfg, phi0, alphas=five)
    assert np.array_equal(swept.final_phi.phi, design(d, cfg, phi0, alpha=3.0).final_phi.phi)
    assert swept.stop_iter < cfg.t_max
    assert swept.final_coherence == pytest.approx(full[0][full[4]], rel=1e-4)
    default = design_with_alpha_sweep(d, cfg, phi0)
    for field in ("coherence_per_iter", "objective_per_iter"):
        assert np.array_equal(getattr(default, field), getattr(swept, field))
    assert np.array_equal(default.final_phi.phi, swept.final_phi.phi)


def test_stall_rule_stops_the_converged_p128_winner_early(tmp_path):
    """On the full circle at P = 128 from the SVD start, alpha = 3 (the
    sweep's winner there) has its mu settled to 10 digits by iterate 62:
    the stall rule stops it before iterate 100 with the mu of the run that
    spends all 200 updates, to 9 digits. Every singular value of this A_ring
    is the same, so the SVD start is one basis among many, and the one
    LAPACK returns changes with the BLAS thread count; the start is taken
    in a one-thread process."""
    start = tmp_path / "phi0.npy"
    code = (
        "import sys, numpy as np; from gomp.array_model import build_dictionary; "
        "from gomp.projection_design import DesignConfig, initial_projection; "
        "d = build_dictionary(128, 2 * np.pi, 64); "
        "np.save(sys.argv[1], initial_projection(d, 16, DesignConfig()).phi)"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code, str(start)], env=env, check=True, timeout=120)
    d = build_dictionary(128, 2 * np.pi, 64)
    cfg = DesignConfig(t_max=200)
    phi0 = ProjectionMatrix(phi=np.load(start))
    trace = design(d, cfg, phi0, alpha=3.0)
    mus, _, _, _, best_iter, stop = _reference_design(d, cfg, phi0, 3.0, stop_rule=False)
    assert stop == cfg.t_max and trace.stop_iter < 100
    assert trace.final_coherence == pytest.approx(mus[best_iter], rel=1e-9)


def _count_column_norms(monkeypatch):
    """Counts np.linalg.norm(..., axis=0) calls made in projection_design:
    one per Gram state and one per line-search try."""
    calls = {"norms": 0}

    def norm(x, *args, **kwargs):
        if kwargs.get("axis") == 0:
            calls["norms"] += 1
        return np.linalg.norm(x, *args, **kwargs)

    class CountingNumpy:
        linalg = types.SimpleNamespace(norm=norm)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(projection_design, "np", CountingNumpy())
    return calls


@pytest.mark.parametrize("alpha", [1.0, 5.0])
def test_design_evals_per_iter_counts_line_search_work(alpha, monkeypatch):
    """evals_per_iter counts the eta evaluations made: the column norms
    taken equal the start state plus one fresh state per active iteration,
    plus sum(evals_per_iter). On the Fig.-3 grid alpha = 1 evaluates at
    every iteration; alpha = 5 is stationary from the start, so the whole
    run takes the start state's column norms only and returns the start."""
    d = build_dictionary(64, FIG3_NU_MAX, 64)
    cfg = DesignConfig(t_max=12)
    phi0 = initial_projection(d, 16, cfg)
    calls = _count_column_norms(monkeypatch)
    trace = design(d, cfg, phi0, alpha=alpha)
    if alpha == 1.0:
        assert np.all(trace.evals_per_iter >= 1)
        assert calls["norms"] == 1 + cfg.t_max + trace.evals_per_iter.sum()
    else:
        assert np.array_equal(trace.evals_per_iter, np.zeros(cfg.t_max))
        assert calls["norms"] == 1
        assert np.array_equal(trace.final_phi.phi, phi0.phi)
        assert trace.best_iter == 0


def test_design_stationarity_is_absorbing_mid_run():
    """A run that turns stationary part-way stays stationary: every later
    update makes no evaluation, mu and eta repeat that iterate bit for bit,
    and the best iterate is not a later one. On the full circle at P = 16,
    M = 16, N = 4 from the SVD start, alpha = 2 turns stationary at iterate
    7 of 30, which stop_iter records, so update 8 is the first to keep it."""
    d = build_dictionary(16, 2 * np.pi, 16)
    cfg = DesignConfig(t_max=30)
    trace = design(d, cfg, initial_projection(d, 4, cfg), alpha=2.0)
    evals = trace.evals_per_iter
    assert evals[0] > 0 and not evals[-1]  # active at first, stationary at the end
    first = int(np.argmin(evals))  # update first + 1 is the first to keep its iterate
    assert not evals[first:].any() and trace.stop_iter == first == 7
    assert np.all(trace.coherence_per_iter[first:] == trace.coherence_per_iter[first])
    assert np.all(trace.objective_per_iter[first:] == trace.objective_per_iter[first])
    assert trace.best_iter <= first


def test_design_line_search_cost():
    """The backtracking line search needs few objective evaluations per
    iteration at the Fig.-1 point (1.525 with alpha = 1); a line search that
    rejects most trial steps shows here."""
    d = build_dictionary(64, 2 * np.pi, 64)
    cfg = DesignConfig(t_max=200)
    trace = design(d, cfg, initial_projection(d, 16, cfg), alpha=1.0)
    evals = trace.evals_per_iter
    assert len(evals) == cfg.t_max
    print(f"\n  line-search evaluations per iteration: {np.mean(evals):.3f}")
    assert np.mean(evals) <= 2.0


def test_design_improves_on_start():
    d = build_dictionary(64, 2 * np.pi, 64)
    cfg = DesignConfig(t_max=200)
    phi0 = initial_projection(d, 16, cfg)
    trace = design(d, cfg, phi0)
    assert trace.final_coherence < trace.coherence_per_iter[0]
    assert trace.coherence_per_iter.size == 201
    assert trace.objective_per_iter.size == 201
    assert trace.step_per_iter.size == 200


def test_design_best_so_far_never_worse_than_start():
    rng = np.random.default_rng(12)
    for _ in range(5):
        d = build_dictionary(12, 2 * np.pi, 6)
        phi0 = random_cm_projection(3, 6, seed=int(rng.integers(0, 1000)))
        trace = design(d, DesignConfig(t_max=25), phi0)
        assert trace.final_coherence <= trace.coherence_per_iter[0] + 1e-15


def test_design_beats_baselines_at_fig1_dimensions():
    """Median-over-seeds ordering: designed below dft and random baselines."""
    d = build_dictionary(64, 2 * np.pi, 64)
    cfg = DesignConfig(t_max=200)
    phi0 = initial_projection(d, 16, cfg)
    designed = design_with_alpha_sweep(d, cfg, phi0).final_coherence
    dft_mu = mutual_coherence(dft_projection(16, 64).phi @ d.A_ring)
    random_mu = float(np.median([
        mutual_coherence(random_cm_projection(16, 64, seed=s).phi @ d.A_ring)
        for s in range(10)
    ]))
    print(f"\n  designed={designed:.4f} dft={dft_mu:.4f} random(median)={random_mu:.4f}")
    assert designed < dft_mu
    assert designed < random_mu


def test_design_trace_coherences_in_unit_interval():
    d = build_dictionary(16, 2 * np.pi, 8)
    phi0 = random_cm_projection(4, 8, seed=5)
    trace = design(d, DesignConfig(t_max=30), phi0)
    assert np.all(trace.coherence_per_iter >= 0)
    assert np.all(trace.coherence_per_iter <= 1)


def test_alpha_sweep_not_worse_than_single_alpha():
    d = build_dictionary(32, 2 * np.pi, 16)
    cfg = DesignConfig(t_max=50)
    phi0 = initial_projection(d, 8, cfg)
    best = design_with_alpha_sweep(d, cfg, phi0, alphas=(1.0, 2.0))
    single = design(d, cfg, phi0)  # alpha = 1.0
    assert best.final_coherence <= single.final_coherence + 1e-15


def test_alpha_sweep_keeps_the_first_of_equal_minima(monkeypatch):
    mus = {1.0: 0.5, 2.0: 0.4, 3.0: 0.4, 5.0: 0.6}
    monkeypatch.setattr(projection_design, "design", lambda d, cfg, phi0, alpha, embed_unit_norm:
                        types.SimpleNamespace(alpha=alpha, final_coherence=mus[alpha]))
    assert design_with_alpha_sweep(None, None, None, alphas=tuple(mus)).alpha == 2.0


def test_svd_initializer_is_cm_and_deterministic():
    d = build_dictionary(24, 2 * np.pi * 0.7, 12)
    a = initial_projection(d, 4, DesignConfig())
    b = initial_projection(d, 4, DesignConfig())
    assert np.array_equal(a.phi, b.phi)
    assert np.max(np.abs(np.abs(a.phi) - 1.0)) < 1e-12


def test_svd_initializer_falls_back_to_random_phases_only_when_degenerate():
    """One row makes every column of Phi @ A_ring parallel, so N=1 falls
    back to the seeded random phases; N=4 on the Fig. 3 partial-span grid
    keeps the SVD start, which does not depend on the seed."""
    d = build_dictionary(64, 2 * np.pi * 15 / 64, 64)
    cfg = DesignConfig()
    assert np.array_equal(initial_projection(d, 1, cfg, seed=7).phi, random_cm_projection(1, 64, 7).phi)
    four = initial_projection(d, 4, cfg, seed=7)
    assert np.array_equal(four.phi, initial_projection(d, 4, cfg, seed=8).phi)
    assert not np.array_equal(four.phi, random_cm_projection(4, 64, 7).phi)
