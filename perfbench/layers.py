"""Per-layer metrics derived from the spans of traced calls.

The traced names are gomp's public functions, wrapped in the namespace that
looks each one up at call time (``gomp.bench`` calls ``estimate`` through
its own binding, ``estimate`` calls ``omp`` through ``gomp.estimator``, and
so on). Metric names are ``<module>.<quantity>``; a metric reads 0 on a
workload that never calls that layer. Times are in milliseconds.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment

from tracing import Span, self_times

TARGETS = (
    ("gomp.bench", "estimate", "estimator.estimate"),
    ("gomp.bench", "synthesize_measurements", "array_model.synthesize_measurements"),
    ("gomp.bench", "draw_scene", "bench.draw_scene"),
    ("gomp.bench", "mse_frequencies", "bench.mse_frequencies"),
    ("gomp.bench", "build_dictionary", "array_model.build_dictionary"),
    ("gomp.bench", "build_projection", "bench.build_projection"),
    ("gomp.bench", "design", "projection_design.design"),
    ("gomp.bench", "design_with_alpha_sweep", "projection_design.design_with_alpha_sweep"),
    ("gomp.bench", "initial_projection", "projection_design.initial_projection"),
    ("gomp.bench", "mutual_coherence", "projection_design.mutual_coherence"),
    ("gomp.bench", "read_measurements_csv", "bench.read_measurements_csv"),
    ("gomp.estimator", "omp", "estimator.omp"),
    ("gomp.estimator", "refine_multi", "estimator.refine_multi"),
    ("gomp.estimator", "refine_single", "estimator.refine_single"),
    ("gomp.estimator", "delta_step", "estimator.delta_step"),
    ("gomp.estimator", "ls_signal", "estimator.ls_signal"),
    ("gomp.estimator", "residual_cost", "estimator.residual_cost"),
    ("gomp.projection_design", "design", "projection_design.design"),
    ("gomp.projection_design", "shrink_error", "projection_design.shrink_error"),
    ("gomp.projection_design", "cm_project", "projection_design.cm_project"),
    ("gomp.cli", "estimate", "estimator.estimate"),
    ("gomp.cli", "build_dictionary", "array_model.build_dictionary"),
)

# each sweep trial starts with one scene draw
NEW_TRIAL_ON = ("bench.draw_scene",)

# return values the metrics read
KEEP_RESULTS = (
    "bench.draw_scene",
    "estimator.estimate",
    "array_model.build_dictionary",
    "projection_design.design",
    "projection_design.design_with_alpha_sweep",
)

# DesignConfig's line-search rule: at most this many halvings per iteration,
# double the next start step after an iteration that needed none, capped.
MAX_HALVINGS = 20
MAX_STEP = 1e9


def linesearch_evals(steps, step_size: float) -> list[int] | None:
    """Objective evaluations per design iteration, replayed from the
    accepted steps of ``DesignTrace.step_per_iter``.

    Each iteration starts at the carried-over step and halves it while the
    trial point raises eta, evaluating eta once per try and at most
    MAX_HALVINGS times. Returns None when the steps do not follow that rule.
    """
    base = float(step_size)
    evals = []
    for step in np.asarray(steps, dtype=float):
        ratio = math.log2(base / step) if step > 0 else -1.0
        halvings = round(ratio)
        if halvings < 0 or halvings > MAX_HALVINGS or abs(ratio - halvings) > 1e-9:
            return None
        evals.append(halvings + 1 if halvings < MAX_HALVINGS else MAX_HALVINGS)
        base = min(step * 2.0, MAX_STEP) if halvings == 0 else step
    return evals


def support_hit(truth, picks, spacing: float) -> bool:
    """True when, after optimal one-to-one pairing, every on-grid pick lies
    within half a grid cell of its true source."""
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    picks = np.atleast_1d(np.asarray(picks, dtype=float))
    cost = np.abs(truth[:, None] - picks[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return bool(np.all(np.abs(truth[rows] - picks[cols]) <= spacing / 2.0))


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def _pct(xs, q) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def layer_metrics(spans: list[Span], step_size: float, mse_frequencies, truth=None) -> dict:
    """Per-layer metrics of the traced calls whose spans are ``spans``.

    ``mse_frequencies`` scores recorded estimates against recorded scenes
    (``truth`` stands in for the scene of trial 0 when a call drew none,
    as in a ``gomp estimate`` call on a synthesized file).
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.id)

    def dur_ms(name, p=None):
        return [spans[i].duration * 1e3 for i in by_name[name] if p is None or spans[i].p == p]

    def self_total_ms(name, parent=None):
        ids = by_name[name]
        if parent is not None:
            ids = [i for i in ids if spans[i].parent is not None and spans[spans[i].parent].name == parent]
        return sum(own[i] for i in ids) * 1e3

    estimates = [spans[i] for i in by_name["estimator.estimate"]]
    n_est = len(estimates)
    designs = by_name["projection_design.design"]
    n_design = len(designs)
    per_trial = (lambda v: v / n_est) if n_est else (lambda v: 0.0)
    per_design = (lambda v: v / n_design) if n_design else (lambda v: 0.0)

    attempts = len(by_name["estimator.delta_step"])
    accepted = sum(
        len(h) - 1 for s in estimates if not s.failed for h in s.result.histories
    )

    evals = []
    for i in designs:
        replay = linesearch_evals(spans[i].result.step_per_iter, step_size)
        if replay is not None:
            evals.extend(replay)

    scenes = {spans[i].trial: spans[i].result.nu for i in by_name["bench.draw_scene"]}
    if truth is not None:
        scenes.setdefault(0, np.asarray(truth, dtype=float))
    errors, hits = [], []
    dictionary = None  # the one built most recently, which the call's estimates use
    for s in spans:
        if s.name == "array_model.build_dictionary" and not s.failed:
            dictionary = s.result
        elif s.name == "estimator.estimate" and not s.failed and s.trial in scenes:
            nu = scenes[s.trial]
            errors.append(mse_frequencies(nu, s.result.nu_hat))
            picks = dictionary.grid[s.result.initial_grid_indices]
            hits.append(support_hit(nu, picks, dictionary.spacing))
    mus = [spans[i].result.final_coherence for i in by_name["projection_design.design_with_alpha_sweep"]]

    return {
        "array_model.build_dictionary_ms": _mean(dur_ms("array_model.build_dictionary")),
        "array_model.synthesize_ms": _mean(dur_ms("array_model.synthesize_measurements")),
        "estimator.estimate_ms.p50": _pct(dur_ms("estimator.estimate"), 50),
        "estimator.estimate_ms.p90": _pct(dur_ms("estimator.estimate"), 90),
        "estimator.estimate_self_ms": per_trial(self_total_ms("estimator.estimate")),
        "estimator.omp_ms": _mean(dur_ms("estimator.omp")),
        "estimator.refine_multi_ms": _mean(dur_ms("estimator.refine_multi")),
        "estimator.delta_step_ms": per_trial(self_total_ms("estimator.delta_step")),
        "estimator.ls_signal_ms": per_trial(self_total_ms("estimator.ls_signal")),
        "estimator.residual_cost_ms": per_trial(self_total_ms("estimator.residual_cost")),
        "estimator.refine_single_calls": per_trial(len(by_name["estimator.refine_single"])),
        "estimator.step_attempts": per_trial(attempts),
        "estimator.step_accept_ratio": accepted / attempts if attempts else 0.0,
        "projection_design.alpha_sweep_ms.p64": _mean(dur_ms("projection_design.design_with_alpha_sweep", 64)),
        "projection_design.alpha_sweep_ms.p128": _mean(dur_ms("projection_design.design_with_alpha_sweep", 128)),
        "projection_design.design_ms.p64": _mean(dur_ms("projection_design.design", 64)),
        "projection_design.design_ms.p128": _mean(dur_ms("projection_design.design", 128)),
        "projection_design.design_self_ms": per_design(self_total_ms("projection_design.design")),
        "projection_design.shrink_error_ms": per_design(self_total_ms("projection_design.shrink_error")),
        "projection_design.cm_project_ms": per_design(
            self_total_ms("projection_design.cm_project", parent="projection_design.design")
        ),
        "projection_design.linesearch_evals_per_iter": _mean(evals),
        "projection_design.initial_projection_ms": _mean(dur_ms("projection_design.initial_projection")),
        "projection_design.mutual_coherence_ms": _mean(dur_ms("projection_design.mutual_coherence")),
        "bench.draw_scene_ms": _mean(dur_ms("bench.draw_scene")),
        "bench.mse_frequencies_ms": _mean(dur_ms("bench.mse_frequencies")),
        "bench.build_projection_ms": _mean(dur_ms("bench.build_projection")),
        "bench.read_measurements_csv_ms": _mean(dur_ms("bench.read_measurements_csv")),
        "mse_refined_p50": _pct(errors, 50),
        "support_hit_rate": _mean(hits),
        "mu_designed_p50": _pct(mus, 50),
    }
