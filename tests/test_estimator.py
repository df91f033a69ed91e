"""Estimator tests.

OMP selection against a brute-force correlation oracle, least-squares
waveform fits (normal-equations orthogonality), the linearized frequency
step on synthetic off-grid data, acceptance-gated refinement monotonicity,
and the multi-source cycling contracts.
"""

from functools import lru_cache

import numpy as np
import pytest

from gomp.array_model import build_dictionary, steering_gradient, steering_matrix, steering_vector
from gomp.estimator import (
    EstimationResult,
    GompConfig,
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
    sensing_matrix,
)


@lru_cache(maxsize=None)
def _designed_phi(n, m, p):
    """Shared low-coherence projection for recovery tests."""
    d = build_dictionary(p, 2 * np.pi, m)
    cfg = DesignConfig(t_max=200, seed=0)
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
        indices, _ = omp(y, psi, 1)
        brute = int(np.argmax(np.linalg.norm(psi.conj().T @ y, axis=1) / col_norms))
        assert indices[0] == brute == p_true


def test_omp_two_sources_exact_support():
    """Noiseless on-grid pair, separated, under the coherence guarantee."""
    phi, d = _designed_phi(16, 64, 64)
    psi = sensing_matrix(phi, d)
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
        y = psi.psi[:, [p1, p2]] @ x
        indices, _ = omp(y, psi, 2)
        assert set(indices) == {p1, p2}, f"support {sorted(indices)} != {{{p1}, {p2}}}"


def test_omp_coefficients_exact_on_true_support():
    phi, d = _designed_phi(16, 64, 64)
    psi = phi.phi @ d.A_ring
    rng = np.random.default_rng(23)
    x = _cn(rng, 8)
    y = np.outer(psi[:, 17], x)
    indices, coeffs = omp(y, psi, 1)
    assert indices[0] == 17
    assert np.linalg.norm(coeffs[0] - x) < 1e-9 * np.linalg.norm(x)


def test_omp_rejects_zero_measurements():
    phi, d = _designed_phi(16, 64, 64)
    with pytest.raises(ValueError, match="zero"):
        omp(np.zeros((16, 4)), phi.phi @ d.A_ring, 1)


def test_omp_rejects_bad_k():
    phi, d = _designed_phi(16, 64, 64)
    y = np.ones((16, 2))
    with pytest.raises(ValueError):
        omp(y, phi.phi @ d.A_ring, 0)
    with pytest.raises(ValueError):
        omp(y, phi.phi @ d.A_ring, 17)


def test_omp_rejects_non_finite_measurements():
    phi, d = _designed_phi(16, 64, 64)
    y = np.ones((16, 4), dtype=complex)
    y[3, 1] = np.nan
    y[5, 0] = np.inf
    with pytest.raises(ValueError, match=r"non-finite entry \(nan\+0j\) at \(row 3, column 1\)"):
        omp(y, phi.phi @ d.A_ring, 1)


def test_omp_reports_rank_deficiency():
    psi = np.ones((4, 6), dtype=complex)  # all columns parallel
    y = np.ones((4, 2), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        omp(y, psi, 2)


# ---------------------------------------------------------------- ls_signal

def test_ls_signal_exact_on_model_match():
    rng = np.random.default_rng(24)
    phi = random_cm_projection(8, 32, seed=3).phi
    nu = 1.234
    x = _cn(rng, 16)
    y = np.outer(phi @ steering_vector(nu, 32), x)
    assert np.linalg.norm(ls_signal(y, phi, nu) - x) < 1e-10


def test_ls_signal_zero_measurements():
    phi = random_cm_projection(8, 32, seed=3).phi
    assert np.all(ls_signal(np.zeros((8, 5)), phi, 0.7) == 0)


def test_ls_signal_residual_orthogonality():
    """Normal equations: the residual is orthogonal to the regressor."""
    rng = np.random.default_rng(25)
    phi = random_cm_projection(8, 32, seed=4).phi
    for _ in range(10):
        nu = float(rng.uniform(0, 2 * np.pi))
        y = _cn(rng, 8, 6)
        x = ls_signal(y, phi, nu)
        v = phi @ steering_vector(nu, 32)
        inner = v.conj() @ (y - np.outer(v, x))
        assert np.max(np.abs(inner)) < 1e-9


# --------------------------------------------------------------- delta_step

def test_delta_zero_at_exact_frequency():
    rng = np.random.default_rng(26)
    phi = random_cm_projection(8, 32, seed=5).phi
    nu = 2.1
    x = _cn(rng, 12)
    y = np.outer(phi @ steering_vector(nu, 32), x)
    assert abs(delta_step(y, phi, nu, x)) < 1e-10


def test_delta_first_order_accuracy():
    """Synthetic off-grid oracle: |delta_hat - delta_true| = O(delta^2)."""
    rng = np.random.default_rng(27)
    phi = random_cm_projection(16, 64, seed=6).phi
    nu_ring = 0.9
    x = _cn(rng, 16)
    for d_true, tol in [(1e-3, 1e-5), (1e-4, 1e-7)]:
        y = np.outer(phi @ steering_vector(nu_ring + d_true, 64), x)
        d_hat = delta_step(y, phi, nu_ring, x)
        assert abs(d_hat - d_true) <= tol, f"d_true={d_true}: d_hat={d_hat}"


def test_delta_quadratic_error_ratio_bounded():
    rng = np.random.default_rng(28)
    phi = random_cm_projection(16, 64, seed=7).phi
    nu_ring = 2.8
    x = _cn(rng, 16)
    ratios = []
    for d_true in (1e-4, 1e-3, 1e-2):
        y = np.outer(phi @ steering_vector(nu_ring + d_true, 64), x)
        ratios.append(abs(delta_step(y, phi, nu_ring, x) - d_true) / d_true**2)
    print(f"\n  error/delta^2 ratios: {ratios}")
    assert max(ratios) < 50.0


def test_delta_sign():
    rng = np.random.default_rng(29)
    phi = random_cm_projection(16, 64, seed=8).phi
    x = _cn(rng, 16)
    y = np.outer(phi @ steering_vector(1.5 - 1e-3, 64), x)
    assert delta_step(y, phi, 1.5, x) < 0


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
        va = phi @ steering_vector(nu, m)
        kg = np.kron(x, phi @ steering_gradient(nu, m))
        ref = np.real(kg.conj() @ (y.reshape(-1, order="F") - np.kron(x, va))) / np.real(kg.conj() @ kg)
        assert abs(delta_step(y, phi, nu, x) - ref) <= 1e-12 * abs(ref), f"trial {trial}"


def test_delta_rejects_zero_waveform():
    phi = random_cm_projection(4, 8, seed=9).phi
    with pytest.raises(ValueError):
        delta_step(np.ones((4, 3)), phi, 0.5, np.zeros(3))


# ------------------------------------------------------------ residual_cost

def test_residual_cost_values():
    rng = np.random.default_rng(30)
    phi = random_cm_projection(4, 8, seed=10).phi
    x = _cn(rng, 5)
    y = np.outer(phi @ steering_vector(0.3, 8), x)
    assert residual_cost(y, phi, 0.3, x) == 0.0
    assert residual_cost(y, phi, 0.3, np.zeros(5)) == pytest.approx(np.linalg.norm(y) ** 2)
    y2 = _cn(rng, 4, 5)
    v = phi @ steering_vector(1.1, 8)
    assert residual_cost(y2, phi, 1.1, x) == pytest.approx(
        np.linalg.norm(y2 - np.outer(v, x)) ** 2
    )


# ------------------------------------------------------------ refine_single

def test_refine_exact_start_terminates_immediately():
    """Delta is exactly zero at the true frequency with the true waveform."""
    rng = np.random.default_rng(31)
    phi = random_cm_projection(8, 16, seed=11).phi
    nu = 0.77
    x = _cn(rng, 6)
    y = np.outer(phi @ steering_vector(nu, 16), x)
    nu_hat, x_hat, hist = refine_single(y, phi, nu, x, GompConfig(i_max=10, j_max=1))
    assert nu_hat == nu
    assert hist.size >= 1
    assert hist[0] == 0.0


def test_refine_rejected_first_update_returns_input():
    """Frozen adversarial start: the first update raises the residual, so
    the pass returns the starting pair untouched."""
    phi = random_cm_projection(8, 16, seed=0).phi
    r = np.random.default_rng(271)
    nu_a, nu_b = r.uniform(0, 2 * np.pi, 2)
    xa = r.standard_normal(4) + 1j * r.standard_normal(4)
    xb = r.standard_normal(4) + 1j * r.standard_normal(4)
    y = np.outer(phi @ steering_vector(nu_a, 16), xa) + np.outer(
        phi @ steering_vector(nu_b, 16), xb
    )
    nu0 = float(r.uniform(0, 2 * np.pi))
    c = r.standard_normal() + 1j * r.standard_normal()
    x0 = c * ls_signal(y, phi, nu0)
    nu_hat, x_hat, hist = refine_single(y, phi, nu0, x0, GompConfig(i_max=10, j_max=1))
    assert nu_hat == nu0
    assert np.array_equal(x_hat, x0)
    assert hist.size == 1


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
        y = np.outer(phi @ steering_vector(nu_true, m), x)
        if rng.random() < 0.7:
            y = y + float(rng.uniform(0, 1)) * _cn(rng, n, l)
        nu0 = nu_true + float(rng.uniform(-0.1, 0.1))
        x0 = ls_signal(y, phi, nu0)
        _, _, hist = refine_single(y, phi, nu0, x0, GompConfig(i_max=8, j_max=1))
        assert np.all(np.diff(hist) <= 0), f"trial {trial}: history not monotone"
        assert np.all(hist >= 0)
        assert np.all(hist <= hist[0])


def test_refine_single_pass_reduces_halfcell_offset():
    """One pass contracts the offset; full convergence needs several passes."""
    phi, d = _designed_phi(16, 64, 64)
    half = np.pi / 64
    rng = np.random.default_rng(33)
    for _ in range(10):
        p = int(rng.integers(0, 64))
        nu_true = d.grid[p] + half
        x = _cn(rng, 16)
        y = np.outer(phi.phi @ steering_vector(nu_true, 64), x)
        x0 = ls_signal(y, phi.phi, d.grid[p])
        nu_hat, _, _ = refine_single(y, phi.phi, d.grid[p], x0, GompConfig(i_max=10, j_max=1))
        assert abs(nu_hat - nu_true) < half / 4, "offset not contracted"


def test_refine_single_equals_public_kernel_loop():
    """refine_single is bitwise the loop of delta_step, ls_signal and
    residual_cost with the documented acceptance rule."""
    rng = np.random.default_rng(44)
    cfg = GompConfig(i_max=5, j_max=1)
    for trial in range(20):
        m = int(rng.integers(4, 33))
        n = int(rng.integers(2, m + 1))
        l = int(rng.integers(1, 10))
        phi = random_cm_projection(n, m, seed=100 + trial).phi
        nu_true = float(rng.uniform(0, 2 * np.pi))
        y = np.outer(phi @ steering_vector(nu_true, m), _cn(rng, l)) + 0.2 * _cn(rng, n, l)
        nu = nu_true + float(rng.uniform(-0.1, 0.1))
        x = ls_signal(y, phi, nu)
        nu_hat, x_hat, hist = refine_single(y, phi, nu, x, cfg)
        eps = residual_cost(y, phi, nu, x)
        ref = [eps]
        for _ in range(cfg.i_max):
            nu_new = nu + delta_step(y, phi, nu, x)
            x_new = ls_signal(y, phi, nu_new)
            eps_new = residual_cost(y, phi, nu_new, x_new)
            if eps_new > eps:
                break
            nu, x, eps = nu_new, x_new, eps_new
            ref.append(eps)
        assert nu_hat == nu, f"trial {trial}"
        assert np.array_equal(x_hat, x) and np.array_equal(hist, ref), f"trial {trial}"


# ------------------------------------------------------------- refine_multi

def test_refine_multi_single_source_equals_repeated_single():
    """K=1 cycling is bitwise identical to warm-started single passes."""
    rng = np.random.default_rng(34)
    phi = random_cm_projection(8, 32, seed=12).phi
    nu_true = 1.9
    x = _cn(rng, 8)
    y = np.outer(phi @ steering_vector(nu_true, 32), x) + 0.05 * _cn(rng, 8, 8)
    nu0 = nu_true + 0.03
    x0 = ls_signal(y, phi, nu0)
    cfg = GompConfig(i_max=5, j_max=4)
    result = refine_multi(y, phi, [nu0], x0[None, :], cfg)
    nu_ref, x_ref = nu0, x0
    for _ in range(cfg.j_max):
        nu_ref, x_ref, _ = refine_single(y, phi, nu_ref, x_ref, cfg)
    assert result.nu_hat[0] == nu_ref
    assert np.array_equal(result.X_hat[0], x_ref)


def test_refine_multi_two_sources_offgrid():
    """Well-separated off-grid pair, exact on-grid start, noiseless."""
    phi, d = _designed_phi(16, 32, 64)
    rng = np.random.default_rng(35)
    cfg = GompConfig(i_max=10, j_max=5)
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
        result = refine_multi(y, phi.phi, d.grid[[p1, p2]], x0, cfg)
        errs = np.abs(np.sort(result.nu_hat) - np.sort(nu_true))
        assert np.max(errs) <= 1e-5, f"trial {trial}: errors {errs}"


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
        indices, x0 = omp(y, psi, k)
        resid0 = np.linalg.norm(y - psi[:, indices] @ x0) ** 2
        result = refine_multi(y, phi.phi, d.grid[indices], x0, GompConfig(i_max=10, j_max=5))
        model = sum(
            np.outer(phi.phi @ steering_vector(result.nu_hat[i], 64), result.X_hat[i])
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
    indices, x0 = omp(y, psi, 3)
    result = refine_multi(y, phi.phi, d.grid[indices], x0, GompConfig(i_max=6, j_max=3))
    assert len(result.histories) == 9
    for hist in result.histories:
        assert np.all(np.diff(hist) <= 0)
    assert result.residual_history.size == sum(h.size for h in result.histories)


# ---------------------------------------------------------------- estimate

def test_estimate_noiseless_on_grid_is_exact():
    phi, d = _designed_phi(16, 64, 64)
    rng = np.random.default_rng(38)
    cells = np.array([5, 21, 40])
    x = _cn(rng, 3, 16)
    y = phi.phi @ (d.A_ring[:, cells] @ x)
    result = estimate(y, phi, d, 3, GompConfig(i_max=10, j_max=5))
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
                      gomp=GompConfig(i_max=10, j_max=5),
                      design=DesignConfig(t_max=200, seed=0))
    d = build_dictionary(cfg.P, cfg.nu_max, cfg.M)
    phi, _ = build_projection("designed", d, cfg)
    ula = UlaConfig(M=cfg.M)
    better = 0
    for trial in range(100):
        scene = draw_scene(cfg, _seed_int(cfg.seed, trial, 0))
        meas = synthesize_measurements(scene, phi, ula, 20.0, _seed_int(cfg.seed, 0, trial, 1))
        res = estimate(meas.Y, phi, d, cfg.K, cfg.gomp)
        m0 = mse_frequencies(scene.nu, d.grid[res.initial_grid_indices])
        m1 = mse_frequencies(scene.nu, res.nu_hat)
        better += m1 < m0
    print(f"\n  refined below on-grid in {better}/100 trials")
    assert better >= 90


def test_estimate_pure_noise_does_not_crash():
    phi, d = _designed_phi(16, 64, 64)
    rng = np.random.default_rng(39)
    y = _cn(rng, 16, 8)
    result = estimate(y, phi, d, 1, GompConfig(i_max=10, j_max=2))
    assert np.all(np.isfinite(result.nu_hat))
    assert np.all(np.isfinite(result.residual_history))


def test_estimate_requires_k_at_most_n():
    phi, d = _designed_phi(16, 64, 64)
    with pytest.raises(ValueError):
        estimate(np.ones((16, 4)), phi, d, 17, GompConfig())
