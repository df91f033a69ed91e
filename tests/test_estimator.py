"""Estimator tests.

OMP selection against a brute-force correlation oracle, least-squares
waveform fits (normal-equations orthogonality), the linearized frequency
step on synthetic off-grid data, acceptance-gated refinement monotonicity,
and the joint multi-source refinement contracts.
"""

import gc
import warnings
import weakref
from functools import lru_cache

import numpy as np
import pytest

import gomp.estimator
from gomp.array_model import build_dictionary, steering_gradient, steering_matrix
from gomp.estimator import (
    EstimationResult,
    delta_step,
    estimate,
    ls_signal,
    omp,
    refine_multi,
    refine_single,
    residual_cost,
)
from gomp.projection_design import (
    DesignConfig,
    design_with_alpha_sweep,
    initial_projection,
    mutual_coherence,
    random_cm_projection,
)


@lru_cache(maxsize=None)
def _designed_phi(n, m, p):
    """Shared low-coherence projection for recovery tests."""
    d = build_dictionary(p, 2 * np.pi, m)
    cfg = DesignConfig(t_max=200)
    phi = design_with_alpha_sweep(d, cfg, initial_projection(d, n, cfg)).final_phi
    return phi, d


def _cn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


# ---------------------------------------------------------------------- omp

def test_omp_single_source_matches_brute_force():
    """K=1 pick equals the argmax of normalized column correlation."""
    phi, d = _designed_phi(16, 64, 64)
    psi = phi.phi @ d.A_ring
    col_norms = np.linalg.norm(psi, axis=0)
    rng = np.random.default_rng(21)
    for _ in range(20):
        p_true = int(rng.integers(0, 64))
        x = _cn(rng, 8)
        y = np.outer(psi[:, p_true], x)
        indices, _ = omp(y, psi, 1, col_norms)
        brute = int(np.argmax(np.linalg.norm(psi.conj().T @ y, axis=1) / col_norms))
        assert indices[0] == brute == p_true


def test_omp_matches_reference_loop_on_noisy_fine_grid():
    """Picks and waveforms equal those of a reference simultaneous OMP that
    scores with np.linalg.norm(psi^H R) and refits with lstsq, on noisy
    off-grid data over a 16x oversampled grid, where neighbouring columns
    score close to each other."""
    d = build_dictionary(1024, 2 * np.pi, 64)
    phi = random_cm_projection(16, 64, seed=20).phi
    psi = phi @ d.A_ring
    col_norms = np.linalg.norm(psi, axis=0)
    rng = np.random.default_rng(24)
    for k in (1, 2, 3):
        for _ in range(10):
            nu = rng.uniform(0, 2 * np.pi, k)
            y = phi @ (steering_matrix(nu, 64) @ _cn(rng, k, 16)) + 0.5 * _cn(rng, 16, 16)
            chosen, residual = [], y
            for _ in range(k):
                scores = np.linalg.norm(psi.conj().T @ residual, axis=1) / col_norms
                scores[chosen] = -1.0
                chosen.append(int(np.argmax(scores)))
                ref = np.linalg.lstsq(psi[:, chosen], y, rcond=None)[0]
                residual = y - psi[:, chosen] @ ref
            indices, coeffs = omp(y, psi, k, col_norms)
            assert indices.tolist() == chosen
            assert np.allclose(coeffs, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


def test_omp_two_sources_exact_support():
    """Noiseless on-grid pair, separated, under the coherence guarantee."""
    phi, d = _designed_phi(16, 64, 64)
    psi = phi.phi @ d.A_ring
    mu = mutual_coherence(psi)
    assert 2 < 0.5 * (1 + 1 / mu), f"test premise violated: mu={mu:.3f}"
    rng = np.random.default_rng(22)
    for _ in range(20):
        p1 = int(rng.integers(0, 60))
        p2 = p1 + int(rng.integers(4, 30))
        if p2 >= 64:
            p2 -= 60
            p1, p2 = min(p1, p2), max(p1, p2)
        x = _cn(rng, 2, 8)
        y = psi[:, [p1, p2]] @ x
        indices, _ = omp(y, psi, 2, np.linalg.norm(psi, axis=0))
        assert set(indices) == {p1, p2}, f"support {sorted(indices)} != {{{p1}, {p2}}}"


def test_omp_coefficients_exact_on_true_support():
    phi, d = _designed_phi(16, 64, 64)
    psi = phi.phi @ d.A_ring
    rng = np.random.default_rng(23)
    x = _cn(rng, 8)
    y = np.outer(psi[:, 17], x)
    indices, coeffs = omp(y, psi, 1, np.linalg.norm(psi, axis=0))
    assert indices[0] == 17
    assert np.linalg.norm(coeffs[0] - x) < 1e-9 * np.linalg.norm(x)


def test_omp_rejects_zero_measurements():
    phi, d = _designed_phi(16, 64, 64)
    psi = phi.phi @ d.A_ring
    with pytest.raises(ValueError, match="zero"):
        omp(np.zeros((16, 4)), psi, 1, np.linalg.norm(psi, axis=0))


def test_omp_rejects_bad_k():
    phi, d = _designed_phi(16, 64, 64)
    psi = phi.phi @ d.A_ring
    col_norms = np.linalg.norm(psi, axis=0)
    y = np.ones((16, 2))
    with pytest.raises(ValueError):
        omp(y, psi, 0, col_norms)
    with pytest.raises(ValueError):
        omp(y, psi, 17, col_norms)


def test_omp_rejects_non_finite_measurements():
    phi, d = _designed_phi(16, 64, 64)
    y = np.ones((16, 4), dtype=complex)
    y[3, 1] = np.nan
    y[5, 0] = np.inf
    psi = phi.phi @ d.A_ring
    with pytest.raises(ValueError, match=r"non-finite entry \(nan\+0j\) at \(row 3, column 1\)"):
        omp(y, psi, 1, np.linalg.norm(psi, axis=0))


def test_omp_reports_rank_deficiency():
    psi = np.ones((4, 6), dtype=complex)  # all columns parallel
    y = np.ones((4, 2), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        omp(y, psi, 2, np.linalg.norm(psi, axis=0))


def test_omp_checks_the_column_norms_it_is_given():
    """The norms must be one per column of psi, none zero."""
    phi, d = _designed_phi(16, 64, 64)
    psi = phi.phi @ d.A_ring
    y = psi[:, [3]] @ np.ones((1, 4))
    with pytest.raises(ValueError, match=r"col_norms has shape \(63,\), the sensing matrix has 64 columns"):
        omp(y, psi, 1, np.linalg.norm(psi[:, 1:], axis=0))
    with pytest.raises(ValueError, match="zero column"):
        omp(y, psi, 1, np.zeros(64))


# ---------------------------------------------------------------- ls_signal

def test_ls_signal_exact_on_model_match():
    rng = np.random.default_rng(24)
    phi = random_cm_projection(8, 32, seed=3).phi
    nu = 1.234
    x = _cn(rng, 16)
    y = np.outer(phi @ steering_matrix(nu, 32)[:, 0], x)
    assert np.linalg.norm(ls_signal(y, phi, nu) - x) < 1e-10


def test_ls_signal_zero_measurements():
    phi = random_cm_projection(8, 32, seed=3).phi
    assert np.all(ls_signal(np.zeros((8, 5)), phi, 0.7) == 0)


def test_zero_response_raises_rank_deficiency_without_warning():
    """Phi a(nu) = 0 is a rank-deficient fit: both K=1 wrappers raise
    LinAlgError before any division, residual_cost also when x is given."""
    phi = np.zeros((8, 32), dtype=complex)
    y = np.ones((8, 5), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
            ls_signal(y, phi, 0.7)
        with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
            residual_cost(y, phi, 0.7, np.ones(5))


def test_ls_signal_residual_orthogonality():
    """Normal equations: the residual is orthogonal to the regressor."""
    rng = np.random.default_rng(25)
    phi = random_cm_projection(8, 32, seed=4).phi
    for _ in range(10):
        nu = float(rng.uniform(0, 2 * np.pi))
        y = _cn(rng, 8, 6)
        x = ls_signal(y, phi, nu)
        v = phi @ steering_matrix(nu, 32)[:, 0]
        inner = v.conj() @ (y - np.outer(v, x))
        assert np.max(np.abs(inner)) < 1e-9


# --------------------------------------------------------------- delta_step

def _step(y, phi, nu, x):
    """delta_step at (nu, x), handed the residual Y - Phi a(nu) x^T and the
    projected steering gradient Phi g(nu)."""
    m = phi.shape[1]
    resid = y - np.outer(phi @ steering_matrix(nu, m)[:, 0], x)
    return delta_step(resid, phi @ steering_gradient(steering_matrix(nu, m)), x[None, :])[0][0]


def test_delta_zero_at_exact_frequency():
    rng = np.random.default_rng(26)
    phi = random_cm_projection(8, 32, seed=5).phi
    nu = 2.1
    x = _cn(rng, 12)
    y = np.outer(phi @ steering_matrix(nu, 32)[:, 0], x)
    assert abs(_step(y, phi, nu, x)) < 1e-10


def test_delta_first_order_accuracy():
    """Synthetic off-grid oracle: |delta_hat - delta_true| = O(delta^2)."""
    rng = np.random.default_rng(27)
    phi = random_cm_projection(16, 64, seed=6).phi
    nu_ring = 0.9
    x = _cn(rng, 16)
    for d_true, tol in [(1e-3, 1e-5), (1e-4, 1e-7)]:
        y = np.outer(phi @ steering_matrix(nu_ring + d_true, 64)[:, 0], x)
        d_hat = _step(y, phi, nu_ring, x)
        assert abs(d_hat - d_true) <= tol, f"d_true={d_true}: d_hat={d_hat}"


def test_delta_quadratic_error_ratio_bounded():
    rng = np.random.default_rng(28)
    phi = random_cm_projection(16, 64, seed=7).phi
    nu_ring = 2.8
    x = _cn(rng, 16)
    ratios = []
    for d_true in (1e-4, 1e-3, 1e-2):
        y = np.outer(phi @ steering_matrix(nu_ring + d_true, 64)[:, 0], x)
        ratios.append(abs(_step(y, phi, nu_ring, x) - d_true) / d_true**2)
    print(f"\n  error/delta^2 ratios: {ratios}")
    assert max(ratios) < 50.0


def test_delta_sign():
    rng = np.random.default_rng(29)
    phi = random_cm_projection(16, 64, seed=8).phi
    x = _cn(rng, 16)
    y = np.outer(phi @ steering_matrix(1.5 - 1e-3, 64)[:, 0], x)
    assert _step(y, phi, 1.5, x) < 0


def test_delta_matches_kron_reference():
    """The kron-free step equals the vectorized least-squares solution
    Re(kg^H (vec Y - x kron Phi a)) / ||kg||^2 with kg = x kron Phi g."""
    rng = np.random.default_rng(43)
    for trial in range(60):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(1, m + 1))
        l = int(rng.integers(1, 12))
        phi = random_cm_projection(n, m, seed=trial).phi
        nu = float(rng.uniform(0, 2 * np.pi))
        x = _cn(rng, l)
        y = _cn(rng, n, l)
        va = phi @ steering_matrix(nu, m)[:, 0]
        kg = np.kron(x, phi @ steering_gradient(steering_matrix(nu, m))[:, 0])
        ref = np.real(kg.conj() @ (y.reshape(-1, order="F") - np.kron(x, va))) / np.real(kg.conj() @ kg)
        assert abs(_step(y, phi, nu, x) - ref) <= 1e-12 * abs(ref), f"trial {trial}"


def test_delta_step_matches_dense_joint_least_squares():
    """For K = 1..4 sources the joint step equals the real delta of the
    dense least squares min ||R - sum_k delta_k Phi g(nu_k) x_k^T - V dX||
    over (delta, Re dX, Im dX), built with kron, when handed the gradient
    responses projected off the range of V = Phi A(nu); half of the
    instances use a warm-start X that is not the least-squares fit."""
    rng = np.random.default_rng(51)
    for trial in range(50):
        k = trial % 4 + 1
        m = int(rng.integers(12, 33))
        n = int(rng.integers(2 * k + 1, m + 1))
        l = int(rng.integers(2, 10))
        phi = random_cm_projection(n, m, seed=400 + trial).phi
        nu = 2 * np.pi * (np.arange(k) + rng.uniform(0.2, 0.8, k)) / k
        v = phi @ steering_matrix(nu, m)
        vg = phi @ steering_gradient(steering_matrix(nu, m))
        y = v @ _cn(rng, k, l) + 0.2 * _cn(rng, n, l)
        x = np.linalg.lstsq(v, y, rcond=None)[0]
        if trial % 2:
            x = x * (1 + 0.3 * _cn(rng, k, l)) + 0.1 * _cn(rng, k, l)
        resid = y - v @ x
        got = delta_step(resid, vg - v @ np.linalg.lstsq(v, vg, rcond=None)[0], x)[0]
        kg = np.column_stack([np.kron(x[j], vg[:, j]) for j in range(k)])
        kv = np.kron(np.eye(l), v)
        dense = np.block([[kg.real, kv.real, -kv.imag], [kg.imag, kv.imag, kv.real]])
        r = resid.reshape(-1, order="F")
        ref = np.linalg.lstsq(dense, np.concatenate([r.real, r.imag]), rcond=None)[0][:k]
        assert got.shape == (k,)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), f"trial {trial}: {got} vs {ref}"


def test_delta_rejects_zero_waveform():
    phi = random_cm_projection(4, 8, seed=9).phi
    with pytest.raises(ValueError):
        _step(np.ones((4, 3)), phi, 0.5, np.zeros(3))


# ------------------------------------------------------------ residual_cost

def test_residual_cost_values():
    rng = np.random.default_rng(30)
    phi = random_cm_projection(4, 8, seed=10).phi
    x = _cn(rng, 5)
    y = np.outer(phi @ steering_matrix(0.3, 8)[:, 0], x)
    assert residual_cost(y, phi, 0.3, x) == 0.0
    assert residual_cost(y, phi, 0.3, np.zeros(5)) == pytest.approx(np.linalg.norm(y) ** 2)
    y2 = _cn(rng, 4, 5)
    v = phi @ steering_matrix(1.1, 8)[:, 0]
    assert residual_cost(y2, phi, 1.1, x) == pytest.approx(
        np.linalg.norm(y2 - np.outer(v, x)) ** 2
    )


# ------------------------------------------------------------ refine_single

def test_refine_single_is_refine_multi():
    """refine_single is refine_multi under its older name, not a wrapper:
    a scalar nu0 with an L-vector x0 is the one-source call."""
    assert gomp.estimator.refine_single is gomp.estimator.refine_multi is refine_single


def test_refine_exact_start_terminates_immediately():
    """Delta is exactly zero at the true frequency with the true waveform."""
    rng = np.random.default_rng(31)
    phi = random_cm_projection(8, 16, seed=11).phi
    nu = 0.77
    x = _cn(rng, 6)
    y = np.outer(phi @ steering_matrix(nu, 16)[:, 0], x)
    result = refine_single(y, phi, nu, x, 10)
    assert result.nu_hat[0] == nu
    assert result.n_iter == 0 and result.histories[0][0] == 0.0


def test_refine_rejected_first_update_returns_input():
    """Frozen adversarial start: the first update raises the residual, so
    the pass returns the starting pair untouched."""
    phi = random_cm_projection(8, 16, seed=0).phi
    r = np.random.default_rng(271)
    nu_a, nu_b = r.uniform(0, 2 * np.pi, 2)
    xa = r.standard_normal(4) + 1j * r.standard_normal(4)
    xb = r.standard_normal(4) + 1j * r.standard_normal(4)
    y = np.outer(phi @ steering_matrix(nu_a, 16)[:, 0], xa) + np.outer(
        phi @ steering_matrix(nu_b, 16)[:, 0], xb
    )
    nu0 = float(r.uniform(0, 2 * np.pi))
    c = r.standard_normal() + 1j * r.standard_normal()
    x0 = c * ls_signal(y, phi, nu0)
    result = refine_single(y, phi, nu0, x0, 10)
    assert result.nu_hat[0] == nu0
    assert np.array_equal(result.X_hat[0], x0)
    assert result.n_iter == 0 and result.stop_reason == "stalled"


def test_refine_history_nonincreasing_random_instances():
    """Acceptance gating makes the accepted-residual history monotone."""
    rng = np.random.default_rng(32)
    for trial in range(100):
        m = int(rng.integers(4, 32))
        n = int(rng.integers(2, m + 1))
        l = int(rng.integers(1, 12))
        phi = random_cm_projection(n, m, seed=trial).phi
        nu_true = float(rng.uniform(0, 2 * np.pi))
        x = _cn(rng, l)
        y = np.outer(phi @ steering_matrix(nu_true, m)[:, 0], x)
        if rng.random() < 0.7:
            y = y + float(rng.uniform(0, 1)) * _cn(rng, n, l)
        nu0 = nu_true + float(rng.uniform(-0.1, 0.1))
        x0 = ls_signal(y, phi, nu0)
        hist = refine_single(y, phi, nu0, x0, 8).histories[0]
        assert np.all(np.diff(hist) <= 0), f"trial {trial}: history not monotone"
        assert np.all(hist >= 0)
        assert np.all(hist <= hist[0])


def test_refine_single_pass_reduces_halfcell_offset():
    """One pass contracts the offset to under a quarter cell (in fact the
    variable-projection step converges within the pass)."""
    phi, d = _designed_phi(16, 64, 64)
    half = np.pi / 64
    rng = np.random.default_rng(33)
    for _ in range(10):
        p = int(rng.integers(0, 64))
        nu_true = d.grid[p] + half
        x = _cn(rng, 16)
        y = np.outer(phi.phi @ steering_matrix(nu_true, 64)[:, 0], x)
        x0 = ls_signal(y, phi.phi, d.grid[p])
        nu_hat = refine_single(y, phi.phi, d.grid[p], x0, 10).nu_hat[0]
        assert abs(nu_hat - nu_true) < half / 4, "offset not contracted"


def test_refine_single_equals_public_kernel_loop():
    """refine_single is bitwise the loop of delta_step, ls_signal and
    residual_cost with the documented stop and acceptance rules, the
    gradient response projected off the unit vector along Phi a(nu): no
    step once its predicted decrease is at most sqrt(eps) of the residual,
    and no acceptance of a step that does not lower it."""
    rng = np.random.default_rng(44)
    steps = 5
    for trial in range(20):
        m = int(rng.integers(4, 33))
        n = int(rng.integers(2, m + 1))
        l = int(rng.integers(1, 10))
        phi = random_cm_projection(n, m, seed=100 + trial).phi
        nu_true = float(rng.uniform(0, 2 * np.pi))
        y = np.outer(phi @ steering_matrix(nu_true, m)[:, 0], _cn(rng, l)) + 0.2 * _cn(rng, n, l)
        nu = nu_true + float(rng.uniform(-0.1, 0.1))
        x = ls_signal(y, phi, nu)
        result = refine_single(y, phi, nu, x, steps)
        eps = residual_cost(y, phi, nu, x)
        ref, stop = [eps], "max_steps"
        for _ in range(steps):
            v = phi @ steering_matrix(nu, m)[:, 0]
            vg = phi @ steering_gradient(steering_matrix(nu, m))
            w = v[:, None] / np.sqrt(np.vdot(v, v).real)
            resid = y - np.outer(v, x)
            delta, predicted = delta_step(resid, vg - w @ (w.conj().T @ vg), x[None, :])
            if predicted <= np.sqrt(np.finfo(float).eps) * eps:
                stop = "converged"
                break
            nu_new = nu + delta[0]
            x_new = ls_signal(y, phi, nu_new)
            eps_new = residual_cost(y, phi, nu_new, x_new)
            if eps_new >= eps:
                stop = "stalled"
                break
            nu, x, eps = nu_new, x_new, eps_new
            ref.append(eps)
        assert result.nu_hat[0] == nu and result.stop_reason == stop, f"trial {trial}"
        assert np.array_equal(result.X_hat[0], x) and np.array_equal(result.histories[0], ref), f"trial {trial}"


def test_refine_single_forms_each_iterate_once(monkeypatch):
    """One steering evaluation per iterate: the start, then one per
    evaluated step, since the step reuses the accepted iterate's fit; a
    step whose predicted decrease ends the refinement as converged is
    computed but not evaluated."""
    import gomp.estimator as est

    calls = {"steering": 0, "steps": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(est, "steering_matrix", counted(est.steering_matrix, "steering"))
    monkeypatch.setattr(est, "delta_step", counted(est.delta_step, "steps"))
    rng = np.random.default_rng(45)
    for trial in range(10):
        phi = random_cm_projection(8, 32, seed=200 + trial).phi
        nu_true = float(rng.uniform(0, 2 * np.pi))
        y = np.outer(phi @ steering_matrix(nu_true, 32)[:, 0], _cn(rng, 6)) + 0.3 * _cn(rng, 8, 6)
        nu0 = nu_true + float(rng.uniform(-0.1, 0.1))
        x0 = ls_signal(y, phi, nu0)
        calls.update(steering=0, steps=0)
        result = refine_single(y, phi, nu0, x0, 6)
        assert calls["steps"] >= 1
        evaluated = calls["steps"] - (result.stop_reason == "converged")
        assert calls["steering"] == 1 + evaluated, f"trial {trial}: {calls}, {result.stop_reason}"


def test_refine_single_step_is_variable_projection_step(monkeypatch):
    """The step refine_single takes is the real delta of the dense least
    squares min ||R - delta Phi g(nu) x^T - Phi a(nu) dx^T|| over
    (delta, Re dx, Im dx), built with kron; also for a warm-start x that
    is not the least-squares fit."""
    import gomp.estimator as est

    steps = []

    def recorded(*args):
        steps.append(delta_step(*args))
        return steps[-1]

    monkeypatch.setattr(est, "delta_step", recorded)
    rng = np.random.default_rng(48)
    for trial in range(50):
        m = int(rng.integers(4, 33))
        n = int(rng.integers(2, m + 1))
        l = int(rng.integers(1, 10))
        phi = random_cm_projection(n, m, seed=300 + trial).phi
        nu_true = float(rng.uniform(0, 2 * np.pi))
        y = np.outer(phi @ steering_matrix(nu_true, m)[:, 0], _cn(rng, l)) + 0.2 * _cn(rng, n, l)
        nu = nu_true + float(rng.uniform(-0.1, 0.1))
        x = ls_signal(y, phi, nu)
        if trial % 2:
            x = x * (1 + 0.3 * _cn(rng, l)) + 0.1 * _cn(rng, l)
        steps.clear()
        refine_single(y, phi, nu, x, 1)
        v = phi @ steering_matrix(nu, m)[:, 0]
        kg = np.kron(x, phi @ steering_gradient(steering_matrix(nu, m))[:, 0])
        kv = np.kron(np.eye(l), v[:, None])
        dense = np.block([[kg.real[:, None], kv.real, -kv.imag], [kg.imag[:, None], kv.imag, kv.real]])
        r = (y - np.outer(v, x)).reshape(-1, order="F")
        ref = np.linalg.lstsq(dense, np.concatenate([r.real, r.imag]), rcond=None)[0][0]
        assert len(steps) == 1
        assert abs(steps[0][0] - ref) <= 1e-10 * abs(ref), f"trial {trial}: {steps[0][0]} vs {ref}"


def test_refine_single_pass_converges_from_halfcell_offset():
    """Noiseless half-cell offset on the designed 16x64x64 projection: one
    pass of at most 10 steps lands within 1e-6 of the true frequency."""
    phi, d = _designed_phi(16, 64, 64)
    half = np.pi / 64
    rng = np.random.default_rng(46)
    for trial in range(10):
        p = int(rng.integers(0, 64))
        nu_true = d.grid[p] + half
        y = np.outer(phi.phi @ steering_matrix(nu_true, 64)[:, 0], _cn(rng, 16))
        x0 = ls_signal(y, phi.phi, d.grid[p])
        nu_hat = refine_single(y, phi.phi, d.grid[p], x0, 10).nu_hat[0]
        assert abs(nu_hat - nu_true) <= 1e-6, f"trial {trial}: error {abs(nu_hat - nu_true):.3e}"


# ------------------------------------------------------------- refine_multi

def test_refine_multi_single_source_equals_repeated_single():
    """A budget of 20 joint steps is bitwise four warm-started
    refine_single calls of 5 steps each: only the total budget matters."""
    rng = np.random.default_rng(34)
    phi = random_cm_projection(8, 32, seed=12).phi
    nu_true = 1.9
    x = _cn(rng, 8)
    y = np.outer(phi @ steering_matrix(nu_true, 32)[:, 0], x) + 0.05 * _cn(rng, 8, 8)
    nu0 = nu_true + 0.03
    x0 = ls_signal(y, phi, nu0)
    result = refine_multi(y, phi, [nu0], x0[None, :], 20)
    nu_ref, x_ref = nu0, x0
    for _ in range(4):
        single = refine_single(y, phi, nu_ref, x_ref, 5)
        nu_ref, x_ref = single.nu_hat[0], single.X_hat[0]
    assert result.nu_hat[0] == nu_ref
    assert np.array_equal(result.X_hat[0], x_ref)


def test_refine_multi_two_sources_offgrid():
    """Well-separated off-grid pair, exact on-grid start, noiseless."""
    phi, d = _designed_phi(16, 32, 64)
    rng = np.random.default_rng(35)
    steps = 50
    for trial in range(5):
        p1 = int(rng.integers(0, 25))
        p2 = p1 + int(rng.integers(12, 30))
        nu_true = d.grid[[p1, p2]] + rng.uniform(-0.5, 0.5, 2) * d.spacing
        x = _cn(rng, 2, 16)
        y = phi.phi @ (steering_matrix(nu_true, 32) @ x)
        x0 = np.vstack([
            ls_signal(y, phi.phi, d.grid[p1]),
            ls_signal(y, phi.phi, d.grid[p2]),
        ])
        result = refine_multi(y, phi.phi, d.grid[[p1, p2]], x0, steps)
        errs = np.abs(np.sort(result.nu_hat) - np.sort(nu_true))
        assert np.max(errs) <= 1e-5, f"trial {trial}: errors {errs}"


def test_refine_multi_two_sources_offgrid_in_one_pass_budget():
    """The noiseless pairs of test_refine_multi_two_sources_offgrid reach
    1e-9 within the budget of a single pass: the joint step does not
    contract at the rate of the coupling between the sources."""
    phi, d = _designed_phi(16, 32, 64)
    rng = np.random.default_rng(35)
    for trial in range(5):
        p1 = int(rng.integers(0, 25))
        p2 = p1 + int(rng.integers(12, 30))
        nu_true = d.grid[[p1, p2]] + rng.uniform(-0.5, 0.5, 2) * d.spacing
        x = _cn(rng, 2, 16)
        y = phi.phi @ (steering_matrix(nu_true, 32) @ x)
        x0 = np.vstack([ls_signal(y, phi.phi, d.grid[p1]), ls_signal(y, phi.phi, d.grid[p2])])
        result = refine_multi(y, phi.phi, d.grid[[p1, p2]], x0, 10)
        errs = np.abs(np.sort(result.nu_hat) - np.sort(nu_true))
        assert np.max(errs) <= 1e-9, f"trial {trial}: errors {errs}"


def test_refine_multi_rejects_coincident_frequencies():
    phi = random_cm_projection(8, 32, seed=15).phi
    y = _cn(np.random.default_rng(52), 8, 4)
    with pytest.raises(np.linalg.LinAlgError):
        refine_multi(y, phi, [0.0, 1e-14], np.ones((2, 4)), 50)


def test_refine_multi_reduces_total_residual():
    """Refinement never ends above the on-grid initialization residual."""
    phi, d = _designed_phi(16, 64, 64)
    psi = phi.phi @ d.A_ring
    rng = np.random.default_rng(36)
    for trial in range(5):
        k = 3
        cells = np.sort(rng.choice(64, size=k, replace=False))
        nu_true = d.grid[cells] + rng.uniform(-0.5, 0.5, k) * d.spacing
        x = _cn(rng, k, 16)
        y = phi.phi @ (steering_matrix(nu_true, 64) @ x)
        indices, x0 = omp(y, psi, k, np.linalg.norm(psi, axis=0))
        resid0 = np.linalg.norm(y - psi[:, indices] @ x0) ** 2
        result = refine_multi(y, phi.phi, d.grid[indices], x0, 50)
        model = sum(
            np.outer(phi.phi @ steering_matrix(result.nu_hat[i], 64)[:, 0], result.X_hat[i])
            for i in range(k)
        )
        resid = np.linalg.norm(y - model) ** 2
        assert resid <= resid0 + 1e-9, f"trial {trial}: {resid:.3e} > {resid0:.3e}"


def test_refine_multi_histories_each_nonincreasing():
    phi, d = _designed_phi(16, 64, 64)
    rng = np.random.default_rng(37)
    nu_true = np.array([0.5, 1.7, 3.9])
    x = _cn(rng, 3, 8)
    y = phi.phi @ (steering_matrix(nu_true, 64) @ x) + 0.1 * _cn(rng, 16, 8)
    psi = phi.phi @ d.A_ring
    indices, x0 = omp(y, psi, 3, np.linalg.norm(psi, axis=0))
    result = refine_multi(y, phi.phi, d.grid[indices], x0, 18)
    assert len(result.histories) == 1
    hist = result.histories[0]
    assert hist.size == result.n_iter + 1 >= 2
    assert np.all(np.diff(hist) < 0)


def test_refine_multi_early_exit_is_exact():
    """A stop before the budget changes nothing: on converging instances
    with K=1 and K=2, a budget of 50 steps gives nu_hat and X_hat bitwise
    equal to 400 steps, both converged, and a budget of exactly the
    accepted steps gives them at max_steps."""
    phi = random_cm_projection(64, 64, seed=13).phi
    rng = np.random.default_rng(49)
    for k in (1, 2):
        for trial in range(4):
            nu1 = float(rng.uniform(0, np.pi))
            nu_true = np.array([nu1, nu1 + np.pi + float(rng.uniform(-0.3, 0.3))])[:k]
            y = phi @ (steering_matrix(nu_true, 64) @ _cn(rng, k, 16)) + 0.1 * _cn(rng, 64, 16)
            nu0 = nu_true + rng.uniform(-0.5, 0.5, k) * 2 * np.pi / 64
            x0 = np.vstack([ls_signal(y, phi, nu) for nu in nu0])
            full = refine_multi(y, phi, nu0, x0, 400)
            assert full.stop_reason == "converged" and 1 <= full.n_iter < 400, f"K={k}, trial {trial}"
            for stop, steps in {"converged": 50, "max_steps": full.n_iter}.items():
                cut = refine_multi(y, phi, nu0, x0, steps)
                assert np.array_equal(cut.nu_hat, full.nu_hat), f"K={k}, trial {trial}, {steps} steps"
                assert np.array_equal(cut.X_hat, full.X_hat), f"K={k}, trial {trial}, {steps} steps"
                assert cut.stop_reason == stop


def test_warm_restart_from_a_converged_result_takes_no_step():
    """A converged stop is a fixed point: restarted from its nu_hat and
    X_hat, whose residual is bitwise the one it stopped at, the
    refinement computes the same step, evaluates nothing and reports
    converged again with the same estimate."""
    phi = random_cm_projection(16, 32, seed=18).phi
    d = build_dictionary(128, 2 * np.pi, 32)
    rng = np.random.default_rng(56)
    for k in (1, 2, 3):
        y = phi @ steering_matrix(rng.uniform(0, 2 * np.pi, k), 32) @ _cn(rng, k, 8) + 0.1 * _cn(rng, 16, 8)
        first = estimate(y, phi, d, k, 50)
        assert first.stop_reason == "converged" and first.n_iter >= 1, f"K={k}"
        again = refine_multi(y, phi, first.nu_hat, first.X_hat, 50)
        assert again.stop_reason == "converged" and again.n_iter == 0, f"K={k}"
        assert np.array_equal(again.nu_hat, first.nu_hat) and np.array_equal(again.X_hat, first.X_hat)
        assert np.array_equal(again.histories[0], first.histories[0][-1:])


def test_delta_step_predicts_the_decrease_of_its_linear_model():
    """delta_step's second output b^T delta is the decrease of ||R||^2
    that the linearized model achieves with the step: the dense least
    squares over (delta, dX) of test_delta_step_matches_dense_joint_least_squares
    lowers ||R||^2 by b^T delta plus ||P_V R||^2, which the waveform
    correction dX removes and which is zero at the least-squares fit."""
    rng = np.random.default_rng(57)
    for trial in range(20):
        k = trial % 4 + 1
        m = int(rng.integers(12, 33))
        n = int(rng.integers(2 * k + 1, m + 1))
        l = int(rng.integers(2, 10))
        phi = random_cm_projection(n, m, seed=500 + trial).phi
        nu = 2 * np.pi * (np.arange(k) + rng.uniform(0.2, 0.8, k)) / k
        v = phi @ steering_matrix(nu, m)
        vg = phi @ steering_gradient(steering_matrix(nu, m))
        y = v @ _cn(rng, k, l) + 0.2 * _cn(rng, n, l)
        x = np.linalg.lstsq(v, y, rcond=None)[0]
        if trial % 2:
            x = x * (1 + 0.3 * _cn(rng, k, l)) + 0.1 * _cn(rng, k, l)
        resid = y - v @ x
        proj = v @ np.linalg.lstsq(v, resid, rcond=None)[0]
        delta, predicted = delta_step(resid, vg - v @ np.linalg.lstsq(v, vg, rcond=None)[0], x)
        kg = np.column_stack([np.kron(x[j], vg[:, j]) for j in range(k)])
        kv = np.kron(np.eye(l), v)
        dense = np.block([[kg.real, kv.real, -kv.imag], [kg.imag, kv.imag, kv.real]])
        r = resid.reshape(-1, order="F")
        rr = np.concatenate([r.real, r.imag])
        model = rr - dense @ np.linalg.lstsq(dense, rr, rcond=None)[0]
        decrease = rr @ rr - model @ model - np.vdot(proj, proj).real
        assert predicted > 0
        assert abs(predicted - decrease) <= 1e-12 * (rr @ rr), f"trial {trial}: {predicted} vs {decrease}"


def test_step_budget_below_one_is_rejected_and_named():
    phi = random_cm_projection(8, 32, seed=17).phi
    d = build_dictionary(64, 2 * np.pi, 32)
    y = phi @ (steering_matrix([0.4], 32) @ _cn(np.random.default_rng(55), 1, 4))
    x0 = ls_signal(y, phi, 0.4)
    with pytest.raises(ValueError, match="max_steps must be >= 1, got 0"):
        refine_multi(y, phi, [0.4], x0[None, :], 0)
    with pytest.raises(ValueError, match="max_steps must be >= 1, got 0"):
        refine_single(y, phi, 0.4, x0, 0)
    with pytest.raises(ValueError, match="max_steps must be >= 1, got 0"):
        estimate(y, phi, d, 1, 0)


@pytest.mark.parametrize("j", [-1000, -100, 0, 100, 500])
def test_estimate_is_exactly_scale_invariant(j):
    """estimate works on Y over a power of two, so Y * 2^j gives bitwise
    the same frequencies and grid indices and X_hat * 2^j, also where
    OMP's scores and the squared residuals of Y itself leave the float
    range. At unit scale it is bitwise omp plus refine_multi on Y as given,
    histories included."""
    phi = random_cm_projection(8, 32, seed=61).phi
    d = build_dictionary(64, 2 * np.pi, 32)
    rng = np.random.default_rng(61)
    y = phi @ steering_matrix([0.7, 2.9, 4.4], 32) @ _cn(rng, 3, 8) + 0.05 * _cn(rng, 8, 8)
    ref = estimate(y, phi, d, 3, 50)
    assert ref.n_iter >= 2
    got = estimate(y * 2.0**j, phi, d, 3, 50)
    assert np.array_equal(got.nu_hat, ref.nu_hat)
    assert np.array_equal(got.initial_grid_indices, ref.initial_grid_indices)
    assert np.array_equal(got.X_hat * 2.0**-j, ref.X_hat)
    if j == 0:
        psi = phi @ d.A_ring
        indices, x0 = omp(y, psi, 3, np.linalg.norm(psi, axis=0))
        direct = refine_multi(y, phi, d.grid[indices], x0, 50)
        assert np.array_equal(got.nu_hat, direct.nu_hat)
        assert np.array_equal(got.X_hat, direct.X_hat)
        assert np.array_equal(got.histories[0], direct.histories[0])


def test_estimation_result_converged_reads_last_pass():
    """stop_reason is the one record of how the refinement ended, and only
    "converged" says it converged: the result has no second flag that
    could call a stalled stop converged. n_iter counts the accepted steps."""
    phi = random_cm_projection(8, 32, seed=14).phi
    rng = np.random.default_rng(50)
    y = np.outer(phi @ steering_matrix(1.2, 32)[:, 0], _cn(rng, 8)) + 0.05 * _cn(rng, 8, 8)
    x0 = ls_signal(y, phi, 1.25)[None, :]
    short = refine_multi(y, phi, [1.25], x0, 10)
    long = refine_multi(y, phi, [1.25], x0, 400)
    assert short.stop_reason == long.stop_reason == "converged"
    assert short.n_iter == long.n_iter == long.histories[0].size - 1
    two = np.array([2.0, 1.0])
    for stop in ("converged", "stalled", "max_steps"):
        result = EstimationResult(nu_hat=[0.1, 0.2], X_hat=np.ones((2, 3)), histories=(two,), stop_reason=stop)
        assert result.stop_reason == stop and result.n_iter == 1 and not hasattr(result, "converged")
    with pytest.raises(ValueError, match="stop_reason"):
        EstimationResult(nu_hat=[0.1], X_hat=np.ones((1, 3)), histories=(two,), stop_reason="done")


# ---------------------------------------------------------------- estimate

def test_estimate_noiseless_on_grid_is_exact():
    phi, d = _designed_phi(16, 64, 64)
    rng = np.random.default_rng(38)
    cells = np.array([5, 21, 40])
    x = _cn(rng, 3, 16)
    y = phi.phi @ (d.A_ring[:, cells] @ x)
    result = estimate(y, phi, d, 3, 50)
    assert set(result.initial_grid_indices) == set(cells)
    errs = np.abs(np.sort(result.nu_hat) - np.sort(d.grid[cells]))
    assert np.max(errs) < 1e-9


def test_estimate_refinement_beats_on_grid_start_at_20db():
    """K=5 at the N=16, M=64, P=64 operating point, 20 dB: the refined
    frequencies improve on the OMP grid start in at least 90 of 100 trials."""
    from gomp.array_model import UlaConfig, synthesize_measurements
    from gomp.bench import SweepConfig, build_projection, draw_scene, mse_frequencies, _seed_int
    from gomp.projection_design import DesignConfig

    nu_max = 2 * np.pi * 15 / 64
    cfg = SweepConfig(N=16, M=64, P=64, K=5, L=16, trials=100, seed=77,
                      snr_grid_db=(20.0,), nu_max=nu_max,
                      i_max=10, j_max=5,
                      design=DesignConfig(t_max=200))
    d = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    phi, _ = build_projection("designed", d, cfg)
    ula = UlaConfig(M=cfg.M)
    better = 0
    for trial in range(100):
        scene = draw_scene(cfg, _seed_int(cfg.seed, trial, 0))
        meas = synthesize_measurements(scene, phi, ula, 20.0, _seed_int(cfg.seed, 0, trial, 1))
        res = estimate(meas.Y, phi, d, cfg.K, cfg.i_max * cfg.j_max)
        m0 = mse_frequencies(scene.nu, d.grid[res.initial_grid_indices])
        m1 = mse_frequencies(scene.nu, res.nu_hat)
        better += m1 < m0
    print(f"\n  refined below on-grid in {better}/100 trials")
    assert better >= 90


def test_estimate_stalls_within_budget_at_20db():
    """K=5 at the Fig-3 operating point (N=16, M=64, P=64, partial span),
    20 dB: the joint refinement converges within the default budget, so
    at least 38 of 40 trials stop by themselves (converged or stalled),
    not because j_max ran out."""
    from gomp.array_model import UlaConfig, synthesize_measurements
    from gomp.bench import SweepConfig, build_projection, draw_scene, _seed_int

    cfg = SweepConfig(N=16, M=64, P=64, K=5, L=16, trials=40, seed=11,
                      snr_grid_db=(20.0,), nu_max=2 * np.pi * 15 / 64,
                      i_max=10, j_max=5,
                      design=DesignConfig(t_max=200))
    d = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    phi, _ = build_projection("designed", d, cfg)
    ula = UlaConfig(M=cfg.M)
    stopped = 0
    for trial in range(cfg.trials):
        scene = draw_scene(cfg, _seed_int(cfg.seed, trial, 0))
        meas = synthesize_measurements(scene, phi, ula, 20.0, _seed_int(cfg.seed, 0, trial, 1))
        stopped += estimate(meas.Y, phi, d, cfg.K, cfg.i_max * cfg.j_max).stop_reason != "max_steps"
    print(f"\n  converged or stalled in {stopped}/{cfg.trials} trials")
    assert stopped >= 38


def test_estimate_projection_matrix_equals_plain_array():
    """A ProjectionMatrix gives bitwise the result of the same projection
    passed as a plain array, on repeated calls too and with the sensing
    matrix and its column norms formed by the caller as one pair."""
    phi, d = _designed_phi(16, 64, 64)
    rng = np.random.default_rng(53)
    y = phi.phi @ (steering_matrix([0.7, 2.9, 4.4], 64) @ _cn(rng, 3, 8)) + 0.1 * _cn(rng, 16, 8)
    plain = estimate(y, phi.phi, d, 3, 50)
    psi = phi.phi @ d.A_ring
    for sensing in (None, None, (psi, np.linalg.norm(psi, axis=0))):
        cached = estimate(y, phi, d, 3, 50, sensing)
        assert np.array_equal(cached.initial_grid_indices, plain.initial_grid_indices)
        assert np.array_equal(cached.nu_hat, plain.nu_hat)
        assert np.array_equal(cached.X_hat, plain.X_hat)
        assert np.array_equal(cached.histories[0], plain.histories[0])
        assert cached.stop_reason == plain.stop_reason
    # norms without their Psi cannot be passed: estimate would score its own Psi by them
    with pytest.raises(TypeError):
        estimate(y, phi, d, 3, 50, psi_norms=np.linalg.norm(psi, axis=0))


def test_estimate_pure_noise_does_not_crash():
    phi, d = _designed_phi(16, 64, 64)
    rng = np.random.default_rng(39)
    y = _cn(rng, 16, 8)
    result = estimate(y, phi, d, 1, 20)
    assert np.all(np.isfinite(result.nu_hat))
    assert all(np.all(np.isfinite(h)) for h in result.histories)


def test_estimate_requires_k_at_most_n():
    phi, d = _designed_phi(16, 64, 64)
    with pytest.raises(ValueError):
        estimate(np.ones((16, 4)), phi, d, 17, 50)


def test_estimate_keeps_no_reference_to_its_inputs():
    """Nothing outlives the call: the projection and dictionary given to
    estimate are freed once the caller drops them."""
    d = build_dictionary(64, 2 * np.pi, 32)
    phi = random_cm_projection(8, 32, seed=16)
    y = phi.phi @ (steering_matrix([0.4, 2.2], 32) @ _cn(np.random.default_rng(54), 2, 4))
    estimate(y, phi, d, 2, 50)
    refs = weakref.ref(phi), weakref.ref(d)
    del phi, d
    gc.collect()
    assert all(ref() is None for ref in refs)
