"""The benchmark's workloads: configs, set-up, one call, and output checks.

Every workload drives one public entry point of gomp. A call's inputs are a
pure function of the benchmark seed and the call index, so the same seed
gives the same inputs. Configs use the flat keys of ``gomp --config`` files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gomp import bench, cli
from gomp.array_model import UlaConfig, build_dictionary, synthesize_measurements
from gomp.projection_design import gradient_eta, gram_error, initial_projection, objective_eta

SNR_GRID = [0.0, 5.0, 10.0, 15.0, 20.0]

# the criterion-8 (Fig. 3) configuration
FIG3 = {
    "N": 16, "M": 64, "P": 64, "K": 5, "L": 16,
    "nu_max": 2.0 * math.pi * 15.0 / 64.0,
    "snr_grid_db": SNR_GRID,
    "projection_kind": "designed",
    "t_max": 200, "i_max": 10, "j_max": 5,
}

WORKLOADS = {
    "sweep-fig3": {
        "entry": "gomp.bench.run_mse_sweep",
        "config": {**FIG3, "trials": 8},
        "moves": ["estimator.refine_multi", "estimator.delta_step", "estimator.residual_cost",
                  "estimator.ls_signal", "projection_design.design_with_alpha_sweep"],
        "does_not_move": ["estimator.omp", "cli"],
    },
    "sweep-k1-fine": {
        "entry": "gomp.bench.run_mse_sweep",
        "config": {
            "N": 16, "M": 64, "P": 1024, "K": 1, "L": 16,
            "nu_max": 2.0 * math.pi,
            "scene_nu_max": 2.0 * math.pi * (1.0 - 1.0 / 1024.0),
            "snr_grid_db": SNR_GRID,
            "projection_kind": "random",
            "i_max": 10, "j_max": 5,
            "trials": 40,
        },
        "moves": ["estimator.omp", "estimator.estimate (Psi formation)", "estimator.refine_single",
                  "array_model.build_dictionary", "bench.draw_scene", "bench.mse_frequencies"],
        "does_not_move": ["projection_design", "cli"],
    },
    "design-fig1": {
        "entry": "gomp.bench.run_coherence_experiment",
        "config": {
            "N": 16, "M": 64, "P": 64, "p_grid": [64, 128], "nu_max": 2.0 * math.pi,
            "methods": ["designed", "dft", "random", "gd_prior_b"],
            "t_max": 200,
        },
        "moves": ["projection_design.design", "projection_design.shrink_error",
                  "projection_design.cm_project", "projection_design.design_with_alpha_sweep"],
        "does_not_move": ["estimator", "array_model.synthesize_measurements", "cli"],
    },
    "estimate-cli": {
        "entry": "python -m gomp.cli estimate",
        "config": FIG3,
        "snr_db": 20.0,
        "moves": ["cli import", "projection_design.design_with_alpha_sweep",
                  "bench.read_measurements_csv", "estimator.estimate"],
        "does_not_move": ["bench.draw_scene", "bench.mse_frequencies"],
    },
}

def call_seed(seed: int, k: int) -> int:
    """Seed of call k of a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def sweep_config(name: str, seed: int) -> bench.SweepConfig:
    return bench.config_from_dict({**WORKLOADS[name]["config"], "seed": seed})


@dataclass
class Context:
    """What set-up leaves for the calls: a scratch directory and, per
    workload, the inputs the calls and probes read."""

    name: str
    seed: int
    workdir: Path
    dictionaries: dict = field(default_factory=dict)
    phis: dict = field(default_factory=dict)
    truth: np.ndarray | None = None
    cli_args: list = field(default_factory=list)
    expected_stdout: str | None = None


@dataclass
class CallResult:
    ops: int
    failed: int
    ok: bool
    output: bytes


def setup(name: str, seed: int, workdir: Path) -> Context:
    """The work done once before the timed phase: build the dictionary and
    projection of the workload and, for estimate-cli, write the config and
    a measurement file synthesized from a seeded scene."""
    ctx = Context(name=name, seed=seed, workdir=workdir)
    cfg = sweep_config(name, call_seed(seed, 0))
    for p in cfg.p_grid or (cfg.P,):
        dictionary = build_dictionary(int(p), cfg.nu_max, cfg.M)
        ctx.dictionaries[int(p)] = dictionary
        if name == "design-fig1":
            ctx.phis[int(p)] = initial_projection(dictionary, cfg.N, cfg.design)
        else:
            ctx.phis[int(p)] = bench.build_projection(cfg.projection_kind, dictionary, cfg)[0]
    if name == "estimate-cli":
        config_path = workdir / "estimate-config.json"
        y_path = workdir / "y.csv"
        config_path.write_text(json.dumps(WORKLOADS[name]["config"], indent=1), encoding="utf-8")
        scene = bench.draw_scene(cfg, call_seed(seed, 1))
        meas = synthesize_measurements(
            scene, ctx.phis[cfg.P], UlaConfig(M=cfg.M), WORKLOADS[name]["snr_db"], call_seed(seed, 2)
        )
        bench.write_measurements_csv(meas.Y, y_path)
        ctx.truth = np.array(scene.nu)
        ctx.cli_args = ["estimate", "--config", str(config_path), "--seed", str(cfg.seed), "--y", str(y_path)]
    return ctx


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli_in_process(args: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli(args)
    return code, out.getvalue()


def call(ctx: Context, k: int, root: Path, in_process: bool = False) -> tuple[float, CallResult]:
    """Run call k of the workload; returns its wall time in seconds and the
    checked result. estimate-cli runs a subprocess unless ``in_process``."""
    name = ctx.name
    if name == "estimate-cli":
        start = time.perf_counter()
        if in_process:
            code, stdout = run_cli_in_process(ctx.cli_args)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "gomp.cli", *ctx.cli_args],
                cwd=root, env=cli_env(root), capture_output=True, text=True, timeout=120,
            )
            code, stdout = proc.returncode, proc.stdout
        wall = time.perf_counter() - start
        ok = code == 0 and stdout == ctx.expected_stdout
        return wall, CallResult(ops=1, failed=0 if ok else 1, ok=ok, output=stdout.encode())

    cfg = sweep_config(name, call_seed(ctx.seed, k))
    entry = bench.run_coherence_experiment if name == "design-fig1" else bench.run_mse_sweep
    start = time.perf_counter()
    result = entry(cfg)
    wall = time.perf_counter() - start
    csv_path = ctx.workdir / f"call{k}.csv"
    bench.emit_csv(result, csv_path)
    output = csv_path.read_bytes()
    csv_path.unlink()
    if name == "design-fig1":
        return wall, check_coherence(cfg, result, output)
    return wall, check_sweep(cfg, result, output)


def check_sweep(cfg: bench.SweepConfig, result, output: bytes) -> CallResult:
    """Every SNR row accounts for all its trials and has finite MSEs."""
    ok = len(result.rows) == len(cfg.snr_grid_db)
    failed = 0
    for r in result.rows:
        row_ok = (
            r.trials_ok + r.failed_trials == cfg.trials
            and math.isfinite(r.mse_ongrid)
            and math.isfinite(r.mse_refined)
        )
        ok = ok and row_ok
        failed += r.failed_trials if row_ok else cfg.trials
    return CallResult(ops=len(cfg.snr_grid_db) * cfg.trials, failed=failed, ok=ok, output=output)


def design_iterations(cfg: bench.SweepConfig) -> dict:
    """Design iterations per (method, P) trace of a coherence experiment."""
    alphas = len(cfg.alpha_candidates)
    runs = {"designed": alphas, "gd_prior_a": alphas, "gd_prior_b": 1, "dft": 0, "random": 0}
    return {(kind, int(p)): runs[kind] * cfg.design.t_max for p in cfg.p_grid or (cfg.P,) for kind in cfg.methods}


def check_coherence(cfg: bench.SweepConfig, result, output: bytes) -> CallResult:
    """Every trace has t_max + 1 rows and every coherence lies in [0, 1]."""
    iters = design_iterations(cfg)
    counts = Counter((r[0], r[1]) for r in result.rows)
    bad = {(r[0], r[1]) for r in result.rows if not 0.0 <= r[3] <= 1.0}
    bad |= {key for key in iters if counts[key] != cfg.design.t_max + 1}
    ok = not bad and set(counts) == set(iters)
    ops = sum(iters.values())
    return CallResult(ops=ops, failed=sum(iters.get(k, 0) for k in bad), ok=ok, output=output)


# standalone probes, run on the workload they serve and read 0 elsewhere
PROBES = {
    "design-fig1": tuple(
        f"projection_design.{kind}_eta_ms.p{p}" for p in (64, 128) for kind in ("objective", "gradient")
    ),
    "estimate-cli": ("cli.interpreter_ms", "cli.import_ms", "cli.in_process_ms"),
}


def eta_probes(ctx: Context, reps: int = 30) -> dict:
    """Standalone objective and gradient evaluations on the set-up Phi at
    P=64 and P=128: the kernel cost of one line-search try and one
    gradient. Median over ``reps`` calls, in ms."""
    out = {}
    for p in (64, 128):
        dictionary, phi = ctx.dictionaries[p], ctx.phis[p]
        q = phi.phi @ dictionary.A_ring
        e = gram_error(q, 1.0 / np.linalg.norm(q, axis=0))
        out[f"projection_design.objective_eta_ms.p{p}"] = _median_ms(lambda: objective_eta(phi, dictionary), reps)
        out[f"projection_design.gradient_eta_ms.p{p}"] = _median_ms(lambda: gradient_eta(phi, dictionary, e), reps)
    return out


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def cli_probes(root: Path, reps: int = 3) -> dict:
    """Interpreter start and ``import gomp.cli`` as subprocesses, median of
    ``reps`` each, in ms; the import figure excludes interpreter start."""

    def run(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=cli_env(root), check=True, timeout=120)
        return time.perf_counter() - start

    interp = float(np.median([run("pass") for _ in range(reps)])) * 1e3
    imp = float(np.median([run("import gomp.cli") for _ in range(reps)])) * 1e3
    return {"cli.interpreter_ms": interp, "cli.import_ms": imp - interp}
