"""Projection design tests.

Coherence and Welch-bound analytics, Gram error and shrinking operator
algebra, the finite-difference oracle for the descent direction (the
directional derivative of eta along Delta equals Re<G, Delta> with a
single constant 1.0), descent behavior, and the design loop contracts.
"""

import types

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


@pytest.mark.parametrize("mu", [[0.5, np.nan], [np.nan]])
def test_design_trace_rejects_nan_coherence(mu):
    """A NaN coherence is not in [0, 1]: a run whose eta and mu went NaN
    cannot be recorded as a trace."""
    phi = dft_projection(2, 4)
    steps = np.ones(len(mu) - 1)
    with pytest.raises(ValueError, match=r"coherence values must lie in \[0, 1\]"):
        DesignTrace(np.array(mu), np.zeros(len(mu)), phi, steps, steps.astype(int), 0)
    DesignTrace(np.full(len(mu), 0.5), np.zeros(len(mu)), phi, steps, steps.astype(int), 0)


# ------------------------------------------------------------------- design

def test_design_zero_iterations_returns_start():
    d = build_dictionary(16, 2 * np.pi, 8)
    phi0 = random_cm_projection(4, 8, seed=3)
    trace = design(d, DesignConfig(t_max=0), phi0)
    assert np.array_equal(trace.final_phi.phi, phi0.phi)
    assert trace.coherence_per_iter.size == 1
    assert trace.final_coherence == pytest.approx(
        mutual_coherence(phi0.phi @ d.A_ring), abs=1e-12
    )


def _reference_design(d, cfg, phi0, alpha, embed_unit_norm=True):
    """The design loop spelled out with the public kernels and no shortcut:
    at every iterate a fresh Gram error, its shrunk version, the direction
    gradient_eta (only its first term 4 Q D E D A^H, from _descent, without
    embed_unit_norm), halving the step (at most 20 times) while
    objective_eta of the trial point rises, projection, and doubling the
    next start step after an iteration that needed no halving."""
    beta = welch_bound(phi0.phi.shape[0], d.P)
    ah = d.A_ring.conj().T
    phi = np.array(phi0.phi)

    def gram(phi):
        q = phi @ d.A_ring
        return q, _inv_norms(q), gram_error(q, _inv_norms(q))

    q, dn, e = gram(phi)
    mus, etas, steps = [min(np.max(np.abs(e)), 1.0)], [objective_eta(phi, d)], []
    best_phi, best_iter = phi, 0
    base = cfg.step_size
    for t in range(1, cfg.t_max + 1):
        e_used = shrink_error(e, alpha, beta) if np.isfinite(alpha) else e
        if embed_unit_norm:
            grad = gradient_eta(phi, d, e_used)
        else:
            grad = _descent(ah, q, dn, None, e_used, embed_unit_norm=False)
        step, halvings = base, 0
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
    return np.array(mus), np.array(etas), np.array(steps), best_phi, best_iter


def _assert_trace_equals_reference(trace, reference):
    mus, etas, steps, best_phi, best_iter = reference
    assert np.array_equal(trace.coherence_per_iter, mus)
    assert np.array_equal(trace.objective_per_iter, etas)
    assert np.array_equal(trace.step_per_iter, steps)
    assert np.array_equal(trace.final_phi.phi, best_phi)
    assert trace.best_iter == best_iter


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


# the Fig.-3 partial-span grid and the full circle, both at P = M = 64, N = 16
FIG3_NU_MAX = 2 * np.pi * 15 / 64
DESIGN_GRIDS = {"fig3": FIG3_NU_MAX, "circle": 2 * np.pi}


@pytest.mark.parametrize("grid", DESIGN_GRIDS)
@pytest.mark.parametrize("alpha", [1.0, 3.0, 5.0, np.inf])
@pytest.mark.parametrize("embed_unit_norm", [True, False])
@pytest.mark.parametrize("init", ["svd", "random"])
def test_design_equals_reference_loop(grid, alpha, embed_unit_norm, init):
    """Stationary iterations (alpha * welch_bound above max |E|: alpha = 5 on
    both grids and alpha = 3 on the circle, where Phi settles into a
    two-iterate cycle of cm_project within five iterations) and reused Gram
    states leave every output bitwise equal to the loop that runs each
    iteration in full."""
    d = build_dictionary(64, DESIGN_GRIDS[grid], 64)
    cfg = DesignConfig(t_max=8, init=init)
    phi0 = initial_projection(d, 16, cfg)
    trace = design(d, cfg, phi0, alpha=alpha, embed_unit_norm=embed_unit_norm)
    _assert_trace_equals_reference(trace, _reference_design(d, cfg, phi0, alpha, embed_unit_norm))
    assert trace.evals_per_iter.shape == (cfg.t_max,)
    if alpha == 5.0:
        assert not trace.evals_per_iter.any()


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
    taken equal the start state plus one fresh state per iterate that does
    not repeat either of the two before it, plus sum(evals_per_iter). On
    the Fig.-3 grid alpha = 1 evaluates at every iteration; alpha = 5 is
    stationary throughout, so Phi only runs through cm_project, makes no
    evaluation, and computes fresh states until it cycles."""
    d = build_dictionary(64, FIG3_NU_MAX, 64)
    cfg = DesignConfig(t_max=12)
    phi0 = initial_projection(d, 16, cfg)
    chain = [phi0.phi]
    for _ in range(cfg.t_max):
        chain.append(cm_project(chain[-1]))
    repeats = [
        t for t in range(2, cfg.t_max + 1)
        if chain[t].tobytes() in (chain[t - 1].tobytes(), chain[t - 2].tobytes())
    ]
    calls = _count_column_norms(monkeypatch)
    trace = design(d, cfg, phi0, alpha=alpha)
    if alpha == 1.0:
        assert np.all(trace.evals_per_iter >= 1)
        fresh = cfg.t_max
    else:
        assert np.array_equal(trace.evals_per_iter, np.zeros(cfg.t_max))
        assert np.array_equal(trace.final_phi.phi, chain[trace.best_iter])
        assert repeats == list(range(4, cfg.t_max + 1))
        fresh = cfg.t_max - len(repeats)
    assert calls["norms"] == 1 + fresh + trace.evals_per_iter.sum()


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
