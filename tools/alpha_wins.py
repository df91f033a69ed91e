"""Report which shrinkage relaxation alpha wins the designer's sweep, start
by start, and which starts the default candidates would lose.

design_with_alpha_sweep runs one design per alpha candidate from the same
start and keeps the lowest final coherence. This tool runs every candidate
of the five-candidate sweep (1, 1.5, 2, 3, 5) and of DEFAULT_ALPHAS from
each start below, for both methods that sweep alpha (designed, and
gd_prior_a, which renormalizes instead of embedding the unit norms), and
writes, per method and start, each alpha's final mu and updates that moved
Phi (stop_iter), the winner (min keeps the first of equal minima, as the
sweep does) and the default sweep's mu; then, per method, the wins and the
summed stop_iter per alpha, and the starts where the default sweep ends
above the five-candidate one (lost), as JSON. The starts, with the
configurations of tests/acceptance_configs.py:

- the SVD start of the Fig.-3 grid (criterion 8) and of the full circle
  at each criterion-3 grid size (N = 16, M = 64, P = 64 and 128);
- random starts at criterion 3's seeds 0-9 on each full-circle grid and
  on the Fig.-3 grid;
- random starts at seeds 1000 ... 1000 + k - 1 on each full-circle grid
  (--seeds k);
- the SVD start of criterion 7's K = 5 design (N = 48, P = 128).

--seeds 30 gives 94 starts per method. The full-circle SVD start is
LAPACK's choice among equal singular values and changes with the BLAS
thread count, so run the tool at each count to compare. It reads and never gates: it exits
0 whatever wins. gomp is imported as installed or from PYTHONPATH:

    PYTHONPATH=src python3 tools/alpha_wins.py --seeds 30 --out alpha_wins.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from acceptance_configs import COHERENCE_GRIDS, fig3_config, floor_cases  # noqa: E402
from gomp.array_model import build_dictionary  # noqa: E402
from gomp.projection_design import DEFAULT_ALPHAS, DesignConfig, design, initial_projection  # noqa: E402

FIVE = (1.0, 1.5, 2.0, 3.0, 5.0)
SEED_BASE = 1000
CRITERION_3_SEEDS = range(10)
# embed_unit_norm of each method that sweeps alpha
METHODS = {"designed": True, "gd_prior_a": False}


def starts(seeds: list[int]):
    """(name, dictionary, design config, N, seed) of every start."""
    fig3 = fig3_config()
    fig3_d = build_dictionary(fig3.P, fig3.nu_max, fig3.M)
    circle = {p: build_dictionary(p, 2 * np.pi, 64) for p in COHERENCE_GRIDS}
    svd, rand = DesignConfig(t_max=200), DesignConfig(t_max=200, init="random")
    yield "fig3 svd", fig3_d, fig3.design, fig3.N, 0
    for p, d in circle.items():
        yield f"P={p} svd", d, svd, 16, 0
    for seed in CRITERION_3_SEEDS:
        for p, d in circle.items():
            yield f"P={p} random {seed}", d, rand, 16, seed
        yield f"fig3 random {seed}", fig3_d, replace(fig3.design, init="random"), fig3.N, seed
    for seed in seeds:
        for p, d in circle.items():
            yield f"P={p} random {seed}", d, rand, 16, seed
    k5 = dict(floor_cases())[5]
    yield "criterion 7 K=5 svd", build_dictionary(k5.P, k5.nu_max, k5.M), k5.design, k5.N, k5.seed


def run_start(d, cfg, n, seed, embed_unit_norm) -> dict:
    phi0 = initial_projection(d, n, cfg, seed)
    alphas = FIVE + tuple(a for a in DEFAULT_ALPHAS if a not in FIVE)
    traces = {a: design(d, cfg, phi0, alpha=a, embed_unit_norm=embed_unit_norm) for a in alphas}
    mu = {a: t.final_coherence for a, t in traces.items()}
    winner = min(FIVE, key=mu.get)
    return {
        "mu": {f"{a:g}": mu[a] for a in alphas},
        "stop_iter": {f"{a:g}": traces[a].stop_iter for a in alphas},
        "winner": f"{winner:g}",
        "mu_five": mu[winner],
        "mu_default": min(mu[a] for a in DEFAULT_ALPHAS),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, default=5, help="unused random seeds per full-circle grid (k)")
    parser.add_argument("--out", type=Path, required=True, help="JSON report to write")
    args = parser.parse_args(argv)
    if args.seeds < 0:
        parser.error(f"--seeds must be at least 0, got {args.seeds}")
    seeds = list(range(SEED_BASE, SEED_BASE + args.seeds))
    per_start = []
    for name, d, cfg, n, seed in starts(seeds):
        for method, embed_unit_norm in METHODS.items():
            row = {"method": method, "start": name, **run_start(d, cfg, n, seed, embed_unit_norm)}
            per_start.append(row)
            mus = " ".join(f"{a}={m:.5f}" for a, m in row["mu"].items())
            print(f"{method} {name}: {mus} winner {row['winner']}")
    alphas = list(per_start[0]["mu"])
    rows = {method: [r for r in per_start if r["method"] == method] for method in METHODS}
    wins = {method: {a: sum(r["winner"] == a for r in rs) for a in alphas} for method, rs in rows.items()}
    active = {method: {a: sum(r["stop_iter"][a] for r in rs) for a in alphas} for method, rs in rows.items()}
    lost = [{"method": r["method"], "start": r["start"], "winner": r["winner"], "mu_five": r["mu_five"],
             "mu_default": r["mu_default"]} for r in per_start if r["mu_default"] > r["mu_five"]]
    report = {
        "seeds": seeds,
        "default_alphas": [f"{a:g}" for a in DEFAULT_ALPHAS],
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "starts": len(rows["designed"]),
        "wins": wins,
        "stop_iter_sum": active,
        "lost": lost,
        "per_start": per_start,
    }
    for method in METHODS:
        print(f"{method}, {report['starts']} starts: wins {json.dumps(wins[method])}, "
              f"stop_iter sum {json.dumps(active[method])}")
    print(f"lost by the default {report['default_alphas']}: {len(lost)}")
    for r in lost:
        print(f"  {r['method']} {r['start']}: alpha={r['winner']} {r['mu_five']:.5f}, default {r['mu_default']:.5f}")
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
