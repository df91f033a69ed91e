"""The configurations and verdicts of acceptance criteria 3, 7 and 8, and
criterion 3's measurement, in one place: tests/test_acceptance.py gates on
the verdicts at its frozen seeds, and tools/criteria_margin.py reports the
same verdicts at seeds the tests do not use. Each verdict returns its
measured numbers, its margins and passed; a NaN measurement reaches the
margin and fails the verdict."""

import math
from functools import lru_cache

import numpy as np

from gomp.array_model import build_dictionary
from gomp.bench import SweepConfig
from gomp.projection_design import (
    DesignConfig,
    design,
    design_with_alpha_sweep,
    dft_projection,
    initial_projection,
    mutual_coherence,
    random_cm_projection,
)

# criterion 3: N = 16, M = 64 on the full circle at these grid sizes
COHERENCE_GRIDS = (64, 128)


def _designed_and_no_shrink(d, cfg, seed=0):
    """Best mu of the alpha sweep and of the no-shrink ablation (alpha = inf)
    from the same start."""
    phi0 = initial_projection(d, 16, cfg, seed)
    return (design_with_alpha_sweep(d, cfg, phi0).final_coherence,
            design(d, cfg, phi0, alpha=math.inf).final_coherence)


def coherence_ordering(p: int, seeds) -> dict:
    """Criterion 3 at grid size p: the medians over seeds of the designed and
    no-shrink mu, each seed starting from its own random phases, of the
    random-phase baseline with the same seeds, and the DFT baseline's mu."""
    d = build_dictionary(p, 2 * np.pi, 64)
    runs = [_designed_and_no_shrink(d, DesignConfig(t_max=200, init="random"), seed) for seed in seeds]
    designed, no_shrink = zip(*runs)
    return {
        "designed": float(np.median(designed)),
        "no_shrink": float(np.median(no_shrink)),
        "random": float(np.median([mutual_coherence(random_cm_projection(16, 64, seed=seed).phi @ d.A_ring)
                                   for seed in seeds])),
        "dft": mutual_coherence(dft_projection(16, 64).phi @ d.A_ring),
    }


@lru_cache(maxsize=None)
def svd_start_coherence(p: int) -> tuple[float, float]:
    """Criterion 3's run from the default SVD start, which no seed moves:
    (designed mu, no-shrink mu)."""
    return _designed_and_no_shrink(build_dictionary(p, 2 * np.pi, 64), DesignConfig(t_max=200))


def coherence_verdict(p: int, seeds) -> dict:
    """Criterion 3 at grid size p: the medians of coherence_ordering, the gaps
    from the designed median and from the SVD-start design to each baseline,
    and passed: every gap is above 0."""
    med = coherence_ordering(p, seeds)
    svd_design, svd_noshrink = svd_start_coherence(p)
    designed = med["designed"]
    gaps = {"random": med["random"] - designed, "dft": med["dft"] - designed,
            "no_shrink": med["no_shrink"] - designed,
            "svd_start_random": med["random"] - svd_design, "svd_start_dft": med["dft"] - svd_design,
            "svd_start_no_shrink": svd_noshrink - svd_design}
    return {"medians": med, "gaps": gaps, "passed": all(g > 0 for g in gaps.values())}


def floor_cases(seed_k1: int = 107, seed_k5: int = 108) -> list:
    """Criterion 7's (K, config) pairs: noiseless on-grid sweeps on the twice
    oversampled grid, at K = 1 and K = 5 (see the test for the choices)."""
    return [
        (1, SweepConfig(N=16, M=64, P=128, K=1, L=16, trials=600, seed=seed_k1,
                        snr_grid_db=(np.inf,),
                        scene_nu_max=2 * np.pi - 2 * np.pi / 128,
                        i_max=2, j_max=1,
                        design=DesignConfig(t_max=200))),
        (5, SweepConfig(N=48, M=64, P=128, K=5, L=64, trials=600, seed=seed_k5,
                        snr_grid_db=(np.inf,),
                        scene_nu_max=2 * np.pi - 2 * np.pi / 128,
                        min_separation=6 * 2 * np.pi / 128,
                        i_max=2, j_max=1,
                        design=DesignConfig(t_max=200))),
    ]


def floor_verdict(cfg: SweepConfig, row) -> dict:
    """Criterion 7 on a sweep's one row: the on-grid MSE over the quantization
    floor K Delta^2 / 12 (ratio), its distance to the nearer end of
    [0.8, 1.2] (margin), the failed trials, and passed: no trial failed and
    the ratio lies within [0.8, 1.2]."""
    low, high = 0.8, 1.2
    ratio = row.mse_ongrid / (cfg.K * (cfg.nu_max / cfg.P) ** 2 / 12.0)
    return {"ratio": ratio, "margin": min(ratio - low, high - ratio), "failed_trials": row.failed_trials,
            "passed": row.failed_trials == 0 and low <= ratio <= high}


def fig3_config(seed: int = 109) -> SweepConfig:
    """Criterion 8's Fig.-3 sweep: N=16, M=64, P=64, K=5, L=16 on the
    partial span nu_max = 2 pi 15/64, 200 trials per SNR."""
    return SweepConfig(N=16, M=64, P=64, K=5, L=16, trials=200, seed=seed,
                       snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0),
                       nu_max=2 * np.pi * 15 / 64,
                       i_max=10, j_max=5,
                       design=DesignConfig(t_max=200))


def fig3_verdict(cfg: SweepConfig, rows) -> dict:
    """Criterion 8 on the Fig.-3 sweep's rows: the rises of each MSE curve
    over increasing SNR, the smallest on-grid/refined MSE ratio at 10 dB and
    above (NaN if one of those MSEs is), and passed: every trial is counted,
    every row's MSEs are finite (a row whose trials all failed reads NaN),
    refined MSE is below on-grid MSE at each SNR >= 10 dB, and each curve
    rises at most once."""
    rows = sorted(rows, key=lambda r: r.snr_db)
    ongrid = np.array([r.mse_ongrid for r in rows])
    refined = np.array([r.mse_refined for r in rows])
    at_10db_up = np.array([r.snr_db >= 10.0 for r in rows])
    rises = {"ongrid": int(np.sum(np.diff(ongrid) > 0)), "refined": int(np.sum(np.diff(refined) > 0))}
    return {
        "rises": rises,
        "min_ongrid_over_refined_at_10db_up": float(np.min(ongrid[at_10db_up] / refined[at_10db_up])),
        "passed": (all(r.trials_ok + r.failed_trials == cfg.trials for r in rows)
                   and bool(np.isfinite([ongrid, refined]).all())
                   and bool(np.all(refined[at_10db_up] < ongrid[at_10db_up])) and max(rises.values()) <= 1),
    }
