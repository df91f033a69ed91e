"""gomp benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the run sets up the workload several times, then calls
its entry point in a closed loop (one caller) for ``--seconds`` seconds and
reports the end-to-end metrics named in BENCHMARK.json, with timings
scaled to a nominal host speed (see hostspeed.py). With ``--trace 1``
it alternates untraced and traced calls on the same inputs for
``--seconds`` seconds, checks that all give byte-identical outputs, and
reports the per-layer metrics. The
last line of standard output is the result as one JSON object; a fuller
record (environment, per-call samples, spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the load is this single process (and, for estimate-cli,
# one gomp subprocess at a time). On a shared 2-core host, two BLAS threads
# made the same design run both slower and twice as variable.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_gomp() -> None:
    """Import gomp from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "gomp" / "__init__.py").is_file():
        fail(f"no gomp sources under {src}; run from the root of a gomp checkout")
    sys.path.insert(0, str(src))
    gomp = importlib.import_module("gomp")
    if Path(gomp.__file__).resolve().parent != src / "gomp":
        fail(f"imported gomp from {gomp.__file__}, not from {src}")


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and reasons, and the unit of
    every metric."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git() -> dict:
    """Commit and dirty flag of ROOT when it is itself a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], env=env, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        return {
            "commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load": "one benchmark process; estimate-cli adds one gomp subprocess at a time",
        "git": _git(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_timed(w, ctx, seconds: float, speed) -> dict:
    """Closed loop of calls for ``seconds``; at least one call. The host
    speed is sampled before every call and after the last."""
    calls = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        speed.sample()
        wall, res = w.call(ctx, k, ROOT)
        calls.append({"k": k, "wall_s": wall, "ops": res.ops, "failed": res.failed, "ok": res.ok})
        k += 1
        if time.perf_counter() >= deadline:
            break
    speed.sample()
    return {
        "calls": calls,
        "metrics": {
            "ops_per_s": sum(c["ops"] for c in calls) / sum(c["wall_s"] for c in calls),
            "latency_ms_p50": statistics.median(c["wall_s"] for c in calls) * 1e3,
        },
        "latency_samples": len(calls),
        "attempted": sum(c["ops"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "correct": all(c["ok"] for c in calls),
    }


def run_traced(w, ctx, name: str, seed: int, seconds: float) -> dict:
    """Pairs of one untraced and one traced call on the inputs of call 0,
    alternating which runs first, for ``seconds`` (at least one pair); then
    the probes of the workload."""
    import layers
    from gomp import bench
    from tracing import Tracer, self_times, tracing, write_spans

    in_process = name == "estimate-cli"
    tracer = Tracer(layers.NEW_TRIAL_ON, layers.KEEP_RESULTS)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while True:
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            with tracing(layers.TARGETS, tracer) if with_trace else contextlib.nullcontext():
                wall, res = w.call(ctx, 0, ROOT, in_process=in_process)
            (traced if with_trace else plain).append((wall, res))
        pair += 1
        if time.perf_counter() >= deadline:
            break
    spans = tracer.spans
    traced_wall = sum(wall for wall, _ in traced)
    self_sum = sum(self_times(spans))
    identical = all(res.output == plain[0][1].output for _, res in plain + traced)
    cfg = w.sweep_config(name, w.call_seed(seed, 0))
    metrics = layers.layer_metrics(spans, cfg.design.step_size, bench.mse_frequencies, truth=ctx.truth)
    for names in w.PROBES.values():
        metrics.update(dict.fromkeys(names, 0.0))
    calls = plain + traced
    if name == "design-fig1":
        metrics.update(w.eta_probes(ctx))
    if in_process:
        calls.append(w.call(ctx, 0, ROOT))  # one subprocess, checked against the in-process output
        metrics.update(w.cli_probes(ROOT))
        metrics["cli.in_process_ms"] = statistics.median(wall for wall, _ in plain) * 1e3
    metrics["trace.overhead"] = (
        statistics.median(wall for wall, _ in traced) / statistics.median(wall for wall, _ in plain) - 1.0
    )
    metrics["trace.uncovered_share"] = (traced_wall - self_sum) / traced_wall
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(spans, OUT_DIR / f"{name}-seed{seed}-spans.jsonl.gz")
    return {
        "metrics": metrics,
        "untraced_walls_s": [wall for wall, _ in plain],
        "traced_walls_s": [wall for wall, _ in traced],
        "span_count": len(spans),
        "self_time_sum_s": self_sum,
        "outputs_identical": identical,
        "attempted": sum(res.ops for _, res in calls),
        "failed": sum(res.failed for _, res in calls) + (0 if identical else sum(res.ops for _, res in traced)),
        "correct": all(res.ok for _, res in calls) and identical and self_sum <= traced_wall,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    import_gomp()
    import workloads as w
    from hostspeed import HostSpeed

    setup_speed, call_speed = HostSpeed(), HostSpeed()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        # one set-up: start a fresh interpreter that imports gomp, then build
        # the workload's inputs in this process
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup_speed.sample()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import gomp.cli"], cwd=ROOT, env=w.cli_env(ROOT),
                           check=True, timeout=120)
            ctx = w.setup(name, seed, workdir)
            setup_times.append(time.perf_counter() - start)
        setup_speed.sample()
        if name == "estimate-cli":
            code, ctx.expected_stdout = w.run_cli_in_process(ctx.cli_args)
            if code != 0:
                fail(f"in-process reference `gomp {' '.join(ctx.cli_args)}` exited with {code}")
        if trace:
            body = run_traced(w, ctx, name, seed, seconds)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            body = run_timed(w, ctx, seconds, call_speed)
            body["metrics"]["setup_s"] = statistics.median(setup_times)
            body["raw_metrics"] = dict(body["metrics"])
            body["host_speed"] = {"setup_scale": setup_speed.scale, "call_scale": call_speed.scale,
                                  "samples_s": setup_speed.samples + call_speed.samples}
            body["metrics"]["setup_s"] *= setup_speed.scale
            body["metrics"]["latency_ms_p50"] *= call_speed.scale
            body["metrics"]["ops_per_s"] /= call_speed.scale
            body["metrics"]["peak_rss_mb"] = peak_rss_mb(children=name == "estimate-cli")
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(body["metrics"]) != set(units):
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(body['metrics']) ^ set(units))}")
    record = {
        "workload": name,
        "why": next(x["why"] for x in spec["workloads"] if x["name"] == name),
        "moves": w.WORKLOADS[name]["moves"],
        "does_not_move": w.WORKLOADS[name]["does_not_move"],
        "entry": w.WORKLOADS[name]["entry"],
        "config": w.WORKLOADS[name]["config"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_runs_s": setup_times,
        "environment": environment(),
        **body,
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for metric, value in body["metrics"].items():
        print(f"{name}  {metric} = {value:.6g} {units[metric]}")
    if "latency_samples" in body:
        print(f"{name}  latency samples = {body['latency_samples']}")
    print(f"{name}  failed_share = {body['failed'] / body['attempted']:.6g} ({body['failed']}/{body['attempted']})")
    return {
        "correct": bool(body["correct"]),
        "attempted": int(body["attempted"]),
        "failed": int(body["failed"]),
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in body["metrics"].items()},
    }


def run_all(names: list, seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        *summary, last = proc.stdout.strip().splitlines()
        print("\n".join(summary))
        results[name] = json.loads(last)
    return results


def main(argv=None) -> None:
    spec = load_spec()
    names = [x["name"] for x in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        result = run_all(names, args.seed, args.seconds, args.trace)
    else:
        result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
