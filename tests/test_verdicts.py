"""The verdicts of acceptance criteria 3, 7 and 8 (tests/acceptance_configs.py)
on synthetic sweep rows and coherence medians, and tools/criteria_margin.py,
which must report the same verdicts. No sweep or design runs here."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import acceptance_configs
from acceptance_configs import coherence_verdict, fig3_config, fig3_verdict, floor_cases, floor_verdict
from gomp.bench import SweepResult, SweepRow

_spec = importlib.util.spec_from_file_location(
    "criteria_margin", Path(__file__).resolve().parents[1] / "tools" / "criteria_margin.py"
)
criteria_margin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(criteria_margin)

SNRS = (0.0, 5.0, 10.0, 15.0, 20.0)
ONGRID = (0.2, 0.06, 0.009, 0.005, 0.004)
REFINED = (0.21, 0.058, 0.008, 0.004, 0.003)


def _rows(ongrid=ONGRID, refined=REFINED, trials_ok=(200,) * 5, failed=(0,) * 5):
    return [SweepRow("designed", snr, on, re, 0.0, ok, f)
            for snr, on, re, ok, f in zip(SNRS, ongrid, refined, trials_ok, failed)]


def _all_failed_at(snr_db=15.0):
    """Every trial at snr_db failed, so that row's MSEs are NaN."""
    rows = _rows()
    rows[SNRS.index(snr_db)] = SweepRow("designed", snr_db, math.nan, math.nan, math.nan, 0, 200)
    return rows


# ---------------------------------------------------------------- criterion 8

def test_fig3_verdict_passes_the_reference_curve():
    verdict = fig3_verdict(fig3_config(), _rows())
    assert verdict == {"rises": {"ongrid": 0, "refined": 0},
                       "min_ongrid_over_refined_at_10db_up": 0.009 / 0.008, "passed": True}


def test_fig3_verdict_allows_one_rise_per_curve_not_two():
    one = fig3_verdict(fig3_config(), _rows(ongrid=(0.2, 0.25, 0.009, 0.005, 0.004)))
    two = fig3_verdict(fig3_config(), _rows(ongrid=(0.2, 0.25, 0.009, 0.01, 0.004)))
    assert one["rises"]["ongrid"] == 1 and one["passed"]
    assert two["rises"]["ongrid"] == 2 and not two["passed"]


def test_fig3_verdict_needs_refined_strictly_below_ongrid_from_10db():
    tie = fig3_verdict(fig3_config(), _rows(refined=(0.21, 0.058, 0.009, 0.004, 0.003)))
    assert tie["min_ongrid_over_refined_at_10db_up"] == 1.0 and not tie["passed"]
    # below 10 dB, refined above on-grid is allowed (REFINED at 0 dB already is)
    assert fig3_verdict(fig3_config(), _rows())["passed"]


def test_fig3_verdict_fails_a_missing_trial():
    assert not fig3_verdict(fig3_config(), _rows(trials_ok=(200, 200, 199, 200, 200)))["passed"]


@pytest.mark.parametrize("snr_db", [0.0, 5.0, 15.0])
def test_fig3_verdict_fails_an_all_failed_row_and_reports_nan(snr_db):
    """An all-failed row fails the verdict at any SNR, though below 10 dB no
    ratio is read and a NaN counts no rise. From 10 dB the margin reads NaN:
    min() over the ratios would skip the NaN of the row."""
    verdict = fig3_verdict(fig3_config(), _all_failed_at(snr_db))
    assert math.isnan(verdict["min_ongrid_over_refined_at_10db_up"]) == (snr_db >= 10.0)
    assert not verdict["passed"]


# ---------------------------------------------------------------- criterion 7

# K Delta^2 / 12 is exactly 1 here, so the ratio is the row's MSE
UNIT_FLOOR = SimpleNamespace(K=3, nu_max=2.0, P=1)


def _floor_row(mse, failed=0):
    return SweepRow("designed", math.inf, mse, mse, 0.0, 600 - failed, failed)


@pytest.mark.parametrize("ratio", [0.8, 1.0, 1.2])
def test_floor_verdict_passes_the_closed_band(ratio):
    verdict = floor_verdict(UNIT_FLOOR, _floor_row(ratio))
    assert verdict["ratio"] == ratio and verdict["margin"] >= 0 and verdict["passed"]


@pytest.mark.parametrize("ratio", [np.nextafter(0.8, 0.0), np.nextafter(1.2, 2.0), math.nan])
def test_floor_verdict_fails_outside_the_band(ratio):
    verdict = floor_verdict(UNIT_FLOOR, _floor_row(ratio))
    assert not verdict["margin"] >= 0 and not verdict["passed"]


def test_floor_verdict_fails_a_failed_trial():
    verdict = floor_verdict(UNIT_FLOOR, _floor_row(1.0, failed=1))
    assert verdict["failed_trials"] == 1 and not verdict["passed"]


# ---------------------------------------------------------------- criterion 3

def _stub_coherence(monkeypatch, designed=0.3, svd=(0.3, 0.5)):
    medians = {"designed": designed, "no_shrink": 0.5, "random": 0.6, "dft": 0.9}
    monkeypatch.setattr(acceptance_configs, "coherence_ordering", lambda p, seeds: dict(medians))
    monkeypatch.setattr(acceptance_configs, "svd_start_coherence", lambda p: svd)


def test_coherence_verdict_passes_positive_gaps(monkeypatch):
    _stub_coherence(monkeypatch)
    verdict = coherence_verdict(64, range(10))
    assert verdict["gaps"] == pytest.approx({"random": 0.3, "dft": 0.6, "no_shrink": 0.2, "svd_start_random": 0.3,
                                             "svd_start_dft": 0.6, "svd_start_no_shrink": 0.2})
    assert verdict["passed"]


@pytest.mark.parametrize("designed, svd", [(0.5, (0.3, 0.5)), (0.3, (0.5, 0.5))])
def test_coherence_verdict_fails_a_zero_gap(monkeypatch, designed, svd):
    _stub_coherence(monkeypatch, designed, svd)
    verdict = coherence_verdict(64, range(10))
    assert min(verdict["gaps"].values()) == 0.0 and not verdict["passed"]


# ---------------------------------------------------------------- the report

def test_report_calls_the_verdicts_of_criteria_8_and_7(monkeypatch):
    """Seed 1000 passes both criteria; seed 1001 has an all-failed 15 dB row
    (criterion 8) and a failed K=5 trial (criterion 7). Each seed's passed
    is the verdict's, and the NaN margin is the closest."""
    def sweep(cfg):
        if cfg.snr_grid_db == SNRS:
            return SweepResult(rows=tuple(_rows() if cfg.seed == 1000 else _all_failed_at()))
        floor = cfg.K * (cfg.nu_max / cfg.P) ** 2 / 12.0
        return SweepResult(rows=(_floor_row(floor, failed=int(cfg.seed == 1001 and cfg.K == 5)),))

    monkeypatch.setattr(criteria_margin, "run_mse_sweep", sweep)
    fig3 = criteria_margin.criterion_8([1000, 1001])
    expected = [fig3_verdict(fig3_config(s), sweep(fig3_config(s)).rows)["passed"] for s in (1000, 1001)]
    assert [s["passed"] for s in fig3["per_seed"]] == expected == [True, False]
    assert fig3["pass_rate"] == "1/2"
    assert math.isnan(fig3["closest"]["min_ongrid_over_refined_at_10db_up"])

    floor = criteria_margin.criterion_7([1000, 1001])
    expected = [all(floor_verdict(cfg, sweep(cfg).rows[0])["passed"] for _, cfg in floor_cases(s, s))
                for s in (1000, 1001)]
    assert [s["passed"] for s in floor["per_seed"]] == expected == [True, False]
    assert "passed" not in floor["per_seed"][0]["K=1"]


def test_report_closest_gap_is_nan_when_one_seed_is(monkeypatch):
    monkeypatch.setattr(acceptance_configs, "coherence_ordering",
                        lambda p, seeds: {"designed": math.nan if seeds.start == 1010 else 0.3,
                                          "no_shrink": 0.5, "random": 0.6, "dft": 0.9})
    for module in (acceptance_configs, criteria_margin):
        monkeypatch.setattr(module, "svd_start_coherence", lambda p: (0.3, 0.5))
    coherence = criteria_margin.criterion_3([1000, 1001])
    assert [s["passed"] for s in coherence["per_seed"]] == [True, False]
    assert math.isnan(coherence["closest"]["P=64"]["random"])
    assert coherence["closest"]["P=64"]["svd_start_random"] == pytest.approx(0.3)
