"""Report how close acceptance criteria 3, 7 and 8 come to failing, at seeds
the tests do not use.

tests/test_acceptance.py gates each statistical criterion at one frozen
seed set. This tool runs the same configurations at k other seeds, judges
each run with the verdict function the test asserts (fig3_verdict,
coherence_verdict, floor_verdict in tests/acceptance_configs.py, which
hold every bound), and writes, per criterion, the pass rate, each seed's
verdict and the closest margin over the seeds, as JSON:

- criterion 8, the Fig.-3 sweep at seed 1000 + j: the rises of each MSE
  curve and the smallest on-grid/refined MSE ratio at 10 dB and above;
- criterion 3, N=16, M=64 on the full circle at P=64 and 128, with the 10
  random starts and random baselines 1000 + 10 j ... 1009 + 10 j: the gap
  from the designed median mu, and from the SVD-start design (which no
  seed moves), to each baseline;
- criterion 7, the K=1 and K=5 noiseless sweeps at seed 1000 + j: the
  on-grid MSE over the quantization floor and its distance to the nearer
  end of the band.

A NaN measurement fails its seed and is the closest margin. The tool
reads and never gates: it exits 0 whatever the margins are. gomp is
imported as installed or from PYTHONPATH:

    PYTHONPATH=src python3 tools/criteria_margin.py --seeds 5 --out margins.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from acceptance_configs import (  # noqa: E402
    COHERENCE_GRIDS,
    coherence_verdict,
    fig3_config,
    fig3_verdict,
    floor_cases,
    floor_verdict,
    svd_start_coherence,
)
from gomp.bench import run_mse_sweep  # noqa: E402

SEED_BASE = 1000


def _least(items, key=float):
    """min(items, key=key), except that an item whose key is NaN is the
    least: min() keeps a NaN only when it comes first."""
    return min(items, key=lambda x: (not math.isnan(key(x)), key(x)))


def _pop_passed(verdicts) -> bool:
    """Remove 'passed' from each verdict; whether all of them passed."""
    return all([v.pop("passed") for v in verdicts])


def _report(per_seed: list[dict], closest: dict, **extra) -> dict:
    return {"pass_rate": f"{sum(s['passed'] for s in per_seed)}/{len(per_seed)}", "closest": closest,
            **extra, "per_seed": per_seed}


def criterion_8(seeds: list[int]) -> dict:
    cfgs = {seed: fig3_config(seed) for seed in seeds}
    per_seed = [{"seed": seed, **fig3_verdict(cfg, run_mse_sweep(cfg).rows)} for seed, cfg in cfgs.items()]
    return _report(per_seed, {
        "max_rises": max(max(s["rises"].values()) for s in per_seed),
        "min_ongrid_over_refined_at_10db_up": _least(s["min_ongrid_over_refined_at_10db_up"] for s in per_seed),
    })


def criterion_3(seeds: list[int]) -> dict:
    per_seed = []
    for j in range(len(seeds)):
        block = range(SEED_BASE + 10 * j, SEED_BASE + 10 * j + 10)
        grids = {f"P={p}": coherence_verdict(p, block) for p in COHERENCE_GRIDS}
        passed = _pop_passed(grids.values())
        per_seed.append({"seeds": [block.start, block.stop - 1], **grids, "passed": passed})
    names = {p: f"P={p}" for p in COHERENCE_GRIDS}
    closest = {n: {k: _least(s[n]["gaps"][k] for s in per_seed) for k in per_seed[0][n]["gaps"]}
               for n in names.values()}
    svd = {n: dict(zip(("designed", "no_shrink"), svd_start_coherence(p))) for p, n in names.items()}
    return _report(per_seed, closest, svd_start=svd)


def criterion_7(seeds: list[int]) -> dict:
    per_seed = []
    for seed in seeds:
        cases = {f"K={k}": floor_verdict(cfg, run_mse_sweep(cfg).rows[0]) for k, cfg in floor_cases(seed, seed)}
        passed = _pop_passed(cases.values())
        per_seed.append({"seed": seed, **cases, "passed": passed})
    keys = [k for k in per_seed[0] if k.startswith("K=")]
    return _report(per_seed, {k: _least((s[k] for s in per_seed), key=lambda c: c["margin"]) for k in keys})


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
