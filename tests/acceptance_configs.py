"""The configurations of acceptance criteria 3, 7 and 8, and criterion 3's
measurement, in one place: tests/test_acceptance.py gates on them at its
frozen seeds, and tools/criteria_margin.py reports their margins at seeds
the tests do not use."""

import math

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


def svd_start_coherence(p: int) -> tuple[float, float]:
    """Criterion 3's run from the default SVD start, which no seed moves:
    (designed mu, no-shrink mu)."""
    return _designed_and_no_shrink(build_dictionary(p, 2 * np.pi, 64), DesignConfig(t_max=200))


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


def floor_ratio(cfg: SweepConfig, mse_ongrid: float) -> float:
    """Criterion 7's on-grid MSE over the quantization floor K Delta^2 / 12."""
    return mse_ongrid / (cfg.K * (cfg.nu_max / cfg.P) ** 2 / 12.0)


def fig3_config(seed: int = 109) -> SweepConfig:
    """Criterion 8's Fig.-3 sweep: N=16, M=64, P=64, K=5, L=16 on the
    partial span nu_max = 2 pi 15/64, 200 trials per SNR."""
    return SweepConfig(N=16, M=64, P=64, K=5, L=16, trials=200, seed=seed,
                       snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0),
                       nu_max=2 * np.pi * 15 / 64,
                       i_max=10, j_max=5,
                       design=DesignConfig(t_max=200))
