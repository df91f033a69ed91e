"""Record a paired parent/change benchmark comparison as a BENCH_*.json file.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in two checkouts, one seed per pair, T being the ``run_seconds`` of the change
checkout's ``BENCHMARK.json`` on every side, and writes for each workload and
end-to-end metric both sides' medians and quartiles, the parent's
inter-quartile range (the noise band), the ratio of the medians, the pairs
the change won and whether the change stayed within the bound
BENCHMARK.json fixes, for the host-scaled metrics and the raw ones, and
whether the two ratios point the same way; next to them every run's scaled
metrics, its ``raw_metrics`` and host-speed scales, its position in its
pair, the commit each checkout ran, the line total of its
``src/gomp/*.py`` (as ``wc -l`` counts it) and the environment.
``--traced W`` adds one traced seed-1 run (``--trace 1``) per checkout for
workload W.

The run order rotates: with n sides, pair i runs them rotated by i mod n,
and reversed on the second n of every 2n pairs. So each side holds each
position once in every n pairs, and an effect of position (a host that
warms up or slows down within a pair) falls on every side alike; with
three sides every 6 pairs run all 6 orders.

``--anchor`` adds a third checkout, a fixed commit that every record runs,
to the same session, and ``summary_vs_anchor`` holds the change/anchor
ratios next to ``summary``'s change/parent ones. Host speed differs between
sessions, so two records compare only through their change/anchor ratios.
``--aa`` runs the parent checkout a second time in each pair, as the side
``aa``; ``summary_aa`` holds the aa/parent ratios and pairs won, the noise
floor that a change/parent ratio must clear. Both are a report; the bounds
gate change/parent only. One invocation writes the whole record:

    python3 tools/bench_record.py --parent ../gomp-parent --change ../gomp-change \\
        --anchor ../gomp-anchor --aa --plan sweep-fig3:1-10 --plan design-fig1:1,2,3 \\
        --traced sweep-fig3 --out BENCH_<parent-short-sha>.json

The output is rewritten after every run, so an interrupted record keeps the
runs it finished. Each checkout must be a git work tree (``git clone`` of the
commit to measure) with ``BENCHMARK.json`` and ``perfbench/`` at its root;
perfbench leaves its per-run records in ``<checkout>/.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_of(text: str) -> list[int]:
    """'1-10' or '1,2,11' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def src_lines(checkout: Path) -> int:
    """Newline count of the checkout's src/gomp/*.py, the total wc -l prints."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "gomp").glob("*.py"))


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its result line plus its record from .bench_out/."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    git = record["environment"].pop("git")
    if git["commit"] is None:
        raise RuntimeError(f"{checkout} is not a git work tree, so the record could not name its commit")
    return {
        "git": git,
        "seed": seed,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw_metrics": record.get("raw_metrics"),
        "host_speed": {k: v for k, v in record.get("host_speed", {}).items() if k != "samples_s"},
        "setup_runs_s": record["setup_runs_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "environment": record["environment"],
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def direction(ratio: float) -> int:
    """1, 0 or -1 as ratio is above, at or below 1."""
    return (ratio > 1) - (ratio < 1)


def order(sides: tuple, i: int) -> tuple:
    """The run order of pair i: sides rotated by i mod n, reversed on the
    second n of every 2n pairs."""
    n = len(sides)
    rotated = sides[i % n:] + sides[:i % n]
    return rotated[::-1] if (i // n) % 2 else rotated


def summarize(runs: dict, spec: dict, base: str = "parent", side: str = "change") -> dict:
    """Per end-to-end metric: scaled and raw quartiles of the base and the
    side compared with it, the base's noise band, the median ratio
    side/base, the pairs the side won, and whether the scaled and raw
    ratios agree in direction; for the change against the parent also the
    bound and whether it held."""
    gated = (base, side) == ("parent", "change")
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        row = {"unit": metric["unit"], "better": metric["better"]}
        if gated:
            row["bound"] = metric["bound"]
        for key in ("metrics", "raw_metrics"):
            vals = {s: [r[key][name] for r in runs[s] if r[key] and name in r[key]] for s in (base, side)}
            if not all(vals.values()):
                continue
            stats = {s: quartiles(v) for s, v in vals.items()}
            b, c = stats[base]["median"], stats[side]["median"]
            better = [(cv < bv) if lower else (cv > bv) for bv, cv in zip(vals[base], vals[side])]
            row["scaled" if key == "metrics" else "raw"] = summary = {
                **stats,
                f"{base}_iqr": stats[base]["q3"] - stats[base]["q1"],
                f"ratio_{side}_over_{base}": c / b,
                "pairs_won": f"{sum(better)}/{len(better)}",
            }
            if gated:
                summary["within_bound"] = ((c / b - 1.0) if lower else (1.0 - c / b)) <= metric["bound"]
        if "scaled" in row and "raw" in row:
            ratio = f"ratio_{side}_over_{base}"
            row["scaled_raw_agree"] = direction(row["scaled"][ratio]) == direction(row["raw"][ratio])
        out[name] = row
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--anchor", type=Path, help="checkout of the fixed anchor commit (optional)")
    parser.add_argument("--aa", action="store_true", help="run the parent twice in each pair (A/A floor)")
    parser.add_argument("--plan", action="append", default=[], help="WORKLOAD:SEEDS, e.g. sweep-fig3:1-10")
    parser.add_argument("--traced", action="append", default=[], help="workload for one traced seed-1 run")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.anchor:
        checkouts["anchor"] = args.anchor.resolve()
    if args.aa:
        checkouts["aa"] = checkouts["parent"]
    sides = tuple(checkouts)
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {spec['run_seconds']:g} --trace 0",
        "order": (f"pair i runs {', '.join(sides)} rotated by i mod {len(sides)}, reversed on the second "
                  f"{len(sides)} of every {2 * len(sides)} pairs; each run records its position (0 = first)"),
        "checkouts": {s: {"path": p.name, "commit": None, "dirty": None, "src_lines": src_lines(p)}
                      for s, p in checkouts.items()},
        "environment": None,
        "workloads": {},
        "traced": {},
    }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for plan in args.plan:
        workload, _, seeds = plan.partition(":")
        entry = doc["workloads"][workload] = {"runs": {s: [] for s in sides}, "summary": {}}
        for i, seed in enumerate(seeds_of(seeds)):
            for position, side in enumerate(order(sides, i)):
                result = run(checkouts[side], workload, seed, spec["run_seconds"], 0)
                doc["environment"] = doc["environment"] or result["environment"]
                doc["checkouts"][side].update(result["git"])
                entry["runs"][side].append({k: v for k, v in result.items() if k not in ("environment", "git")}
                                           | {"position": position})
                entry["summary"] = summarize(entry["runs"], spec)
                if args.anchor:
                    entry["summary_vs_anchor"] = summarize(entry["runs"], spec, "anchor")
                if args.aa:
                    entry["summary_aa"] = summarize(entry["runs"], spec, "parent", "aa")
                save()
    for workload in args.traced:
        for side in (s for s in sides if s != "aa"):
            result = run(checkouts[side], workload, 1, spec["run_seconds"], 1)
            doc["checkouts"][side].update(result["git"])
            doc["traced"].setdefault(workload, {})[side] = result["metrics"]
            save()
    save()


if __name__ == "__main__":
    main()
