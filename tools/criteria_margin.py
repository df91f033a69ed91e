"""Report how close acceptance criteria 3, 7 and 8 come to failing, at seeds
the tests do not use.

tests/test_acceptance.py gates each statistical criterion at one frozen
seed set. This tool runs the same configurations (tests/acceptance_configs.py)
at k other seeds and writes, per criterion, the pass rate and the closest
margin, as JSON:

- criterion 8, the Fig.-3 sweep at seed 1000 + j: the rises of each MSE
  curve (at most one passes) and the smallest on-grid/refined MSE ratio at
  10 dB and above (above 1 passes);
- criterion 3, N=16, M=64 on the full circle at P=64 and 128, with the 10
  random starts and random baselines 1000 + 10 j ... 1009 + 10 j: the gap
  from the designed median mu to each baseline's median, and from the
  SVD-start design (which no seed moves) to each baseline (above 0 passes);
- criterion 7, the K=1 and K=5 noiseless sweeps at seed 1000 + j: the
  on-grid MSE over the quantization floor (within [0.8, 1.2] passes) and
  its distance to the nearer end.

It reads and never gates: it exits 0 whatever the margins are, and no
test runs it. gomp is imported as installed or from PYTHONPATH:

    PYTHONPATH=src python3 tools/criteria_margin.py --seeds 5 --out margins.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from acceptance_configs import (  # noqa: E402
    COHERENCE_GRIDS,
    coherence_ordering,
    fig3_config,
    floor_cases,
    floor_ratio,
    svd_start_coherence,
)
from gomp.bench import run_mse_sweep  # noqa: E402

SEED_BASE = 1000


def criterion_8(seeds: list[int]) -> dict:
    per_seed = []
    for seed in seeds:
        cfg = fig3_config(seed)
        rows = sorted(run_mse_sweep(cfg).rows, key=lambda r: r.snr_db)
        ongrid = np.array([r.mse_ongrid for r in rows])
        refined = np.array([r.mse_refined for r in rows])
        high = [r.mse_ongrid / r.mse_refined for r in rows if r.snr_db >= 10.0]
        rises = {"ongrid": int(np.sum(np.diff(ongrid) > 0)), "refined": int(np.sum(np.diff(refined) > 0))}
        complete = all(r.trials_ok + r.failed_trials == cfg.trials for r in rows)
        per_seed.append({
            "seed": seed,
            "rises": rises,
            "min_ongrid_over_refined_at_10db_up": min(high),
            "passed": complete and max(rises.values()) <= 1 and min(high) > 1.0,
        })
    return {
        "pass_rate": f"{sum(s['passed'] for s in per_seed)}/{len(per_seed)}",
        "closest": {
            "max_rises": max(max(s["rises"].values()) for s in per_seed),
            "min_ongrid_over_refined_at_10db_up": min(s["min_ongrid_over_refined_at_10db_up"] for s in per_seed),
        },
        "per_seed": per_seed,
    }


def criterion_3(seeds: list[int]) -> dict:
    svd = {p: svd_start_coherence(p) for p in COHERENCE_GRIDS}
    per_seed = []
    for j in range(len(seeds)):
        block = range(SEED_BASE + 10 * j, SEED_BASE + 10 * j + 10)
        grids = {}
        for p in COHERENCE_GRIDS:
            med = coherence_ordering(p, block)
            svd_design, svd_noshrink = svd[p]
            gaps = {
                "random": med["random"] - med["designed"],
                "dft": med["dft"] - med["designed"],
                "no_shrink": med["no_shrink"] - med["designed"],
                "svd_start_random": med["random"] - svd_design,
                "svd_start_dft": med["dft"] - svd_design,
                "svd_start_no_shrink": svd_noshrink - svd_design,
            }
            grids[f"P={p}"] = {"medians": med, "gaps": gaps}
        per_seed.append({
            "seeds": [block.start, block.stop - 1],
            **grids,
            "passed": all(g > 0 for grid in grids.values() for g in grid["gaps"].values()),
        })
    closest = {
        f"P={p}": {k: min(s[f"P={p}"]["gaps"][k] for s in per_seed) for k in per_seed[0][f"P={p}"]["gaps"]}
        for p in COHERENCE_GRIDS
    }
    return {
        "pass_rate": f"{sum(s['passed'] for s in per_seed)}/{len(per_seed)}",
        "closest": closest,
        "svd_start": {f"P={p}": {"designed": d, "no_shrink": n} for p, (d, n) in svd.items()},
        "per_seed": per_seed,
    }


def criterion_7(seeds: list[int]) -> dict:
    per_seed = []
    for seed in seeds:
        cases = {}
        for k, cfg in floor_cases(seed, seed):
            row = run_mse_sweep(cfg).rows[0]
            ratio = floor_ratio(cfg, row.mse_ongrid)
            cases[f"K={k}"] = {"ratio": ratio, "margin": min(ratio - 0.8, 1.2 - ratio),
                               "failed_trials": row.failed_trials}
        per_seed.append({
            "seed": seed,
            **cases,
            "passed": all(c["margin"] >= 0 and c["failed_trials"] == 0 for c in cases.values()),
        })
    keys = [k for k in per_seed[0] if k.startswith("K=")]
    return {
        "pass_rate": f"{sum(s['passed'] for s in per_seed)}/{len(per_seed)}",
        "closest": {k: min((s[k] for s in per_seed), key=lambda c: c["margin"]) for k in keys},
        "per_seed": per_seed,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds per criterion (k)")
    parser.add_argument("--out", type=Path, required=True, help="JSON report to write")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    seeds = list(range(SEED_BASE, SEED_BASE + args.seeds))
    report = {
        "seeds": seeds,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    for name, measure in (("criterion_8", criterion_8), ("criterion_3", criterion_3), ("criterion_7", criterion_7)):
        report[name] = measure(seeds)
        print(f"{name}: pass {report[name]['pass_rate']}, closest {json.dumps(report[name]['closest'])}")
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
