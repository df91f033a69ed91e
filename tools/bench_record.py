"""Record a paired parent/change benchmark comparison as a BENCH_*.json file.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in two checkouts, one seed per pair, alternating which checkout runs first,
and writes for each workload and end-to-end metric both sides' medians and
quartiles, the parent's inter-quartile range (the noise band), the ratio of
the medians, the pairs the change won and whether the change stayed within
the bound BENCHMARK.json fixes; next to them every run's scaled metrics, its
``raw_metrics`` and host-speed scales, the commit each checkout ran, the line
total of its ``src/gomp/*.py`` (as ``wc -l`` counts it) and the environment.
``--traced W`` adds one traced seed-1 run (``--trace 1``) per checkout for
workload W.

``--anchor`` adds a third checkout, a fixed commit that every record runs,
to the same session: each pair runs it too (parent, change, anchor on even
pair indices and the reverse on odd ones), and ``summary_vs_anchor`` holds
the change/anchor ratios next to ``summary``'s change/parent ones. Host
speed differs between sessions, so two records compare only through their
change/anchor ratios. They are a report; the bounds gate change/parent only.
One invocation writes the whole record:

    python3 tools/bench_record.py --parent ../gomp-parent --change ../gomp-change \\
        --anchor ../gomp-anchor --plan sweep-fig3:1-10 --plan design-fig1:1,2,3 \\
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


def summarize(runs: dict, spec: dict, base: str = "parent") -> dict:
    """Per end-to-end metric: scaled and raw quartiles of the base side and
    the change, the base's noise band, the median ratio change/base and the
    pairs won; against the parent also the bound and whether it held."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        row = {"unit": metric["unit"], "better": metric["better"]}
        if base == "parent":
            row["bound"] = metric["bound"]
        for key in ("metrics", "raw_metrics"):
            vals = {s: [r[key][name] for r in runs[s] if r[key] and name in r[key]] for s in (base, "change")}
            if not all(vals.values()):
                continue
            stats = {s: quartiles(v) for s, v in vals.items()}
            b, c = stats[base]["median"], stats["change"]["median"]
            better = [(cv < bv) if lower else (cv > bv) for bv, cv in zip(vals[base], vals["change"])]
            row["scaled" if key == "metrics" else "raw"] = summary = {
                **stats,
                f"{base}_iqr": stats[base]["q3"] - stats[base]["q1"],
                f"ratio_change_over_{base}": c / b,
                "pairs_won": f"{sum(better)}/{len(better)}",
            }
            if base == "parent":
                summary["within_bound"] = ((c / b - 1.0) if lower else (1.0 - c / b)) <= metric["bound"]
        out[name] = row
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--anchor", type=Path, help="checkout of the fixed anchor commit (optional)")
    parser.add_argument("--plan", action="append", default=[], help="WORKLOAD:SEEDS, e.g. sweep-fig3:1-10")
    parser.add_argument("--traced", action="append", default=[], help="workload for one traced seed-1 run")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.anchor:
        checkouts["anchor"] = args.anchor.resolve()
    sides = tuple(checkouts)
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "order": f"pairs alternate the run order: {', '.join(sides)} on even pair indices, reversed on odd ones",
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
            for side in sides if i % 2 == 0 else sides[::-1]:
                result = run(checkouts[side], workload, seed, args.seconds, 0)
                doc["environment"] = doc["environment"] or result["environment"]
                doc["checkouts"][side].update(result["git"])
                entry["runs"][side].append({k: v for k, v in result.items() if k not in ("environment", "git")})
                entry["summary"] = summarize(entry["runs"], spec)
                if args.anchor:
                    entry["summary_vs_anchor"] = summarize(entry["runs"], spec, "anchor")
                save()
    for workload in args.traced:
        for side in sides:
            result = run(checkouts[side], workload, 1, args.seconds, 1)
            doc["checkouts"][side].update(result["git"])
            doc["traced"].setdefault(workload, {})[side] = result["metrics"]
            save()
    save()


if __name__ == "__main__":
    main()
