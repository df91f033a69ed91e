"""tools/alpha_wins.py: its list of design starts, and its winners, win
counts and lost starts on a stand-in designer. No design runs here."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

_spec = importlib.util.spec_from_file_location(
    "alpha_wins", Path(__file__).resolve().parents[1] / "tools" / "alpha_wins.py"
)
alpha_wins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(alpha_wins)


def test_thirty_seeds_give_the_94_starts_once_each():
    names = [start[0] for start in alpha_wins.starts(list(range(1000, 1030)))]
    assert len(names) == len(set(names)) == 94
    assert names[:3] == ["fig3 svd", "P=64 svd", "P=128 svd"] and names[-1] == "criterion 7 K=5 svd"


def test_winner_keeps_the_first_minimum_and_lost_lists_a_dropped_winner(monkeypatch, tmp_path, capsys):
    """Start 0 is won by alpha = 1; start 1 ties 3 and 5, which the first
    (3) wins; start 2 is won by alpha = 2, which the default lacks, so it is
    the one lost start, at the default's best mu (alpha = 3). Each start
    runs for designed and for gd_prior_a (without the embedded unit norm),
    and the stand-in scores gd_prior_a 0.1 higher."""
    mus = {0: {1.0: 0.3, 1.5: 0.4, 2.0: 0.5, 3.0: 0.6, 5.0: 0.6},
           1: {1.0: 0.8, 1.5: 0.8, 2.0: 0.8, 3.0: 0.7, 5.0: 0.7},
           2: {1.0: 0.8, 1.5: 0.76, 2.0: 0.75, 3.0: 0.78, 5.0: 0.85}}
    monkeypatch.setattr(alpha_wins, "DEFAULT_ALPHAS", (1.0, 3.0, 5.0))
    monkeypatch.setattr(alpha_wins, "starts", lambda seeds: [(f"s{k}", None, None, 16, k) for k in mus])
    monkeypatch.setattr(alpha_wins, "initial_projection", lambda d, n, cfg, seed: seed)
    monkeypatch.setattr(alpha_wins, "design", lambda d, cfg, phi0, alpha, embed_unit_norm:
                        SimpleNamespace(final_coherence=mus[phi0][alpha] + 0.1 * (not embed_unit_norm),
                                        stop_iter=int(10 * alpha)))
    out = tmp_path / "wins.json"
    alpha_wins.main(["--seeds", "0", "--out", str(out)])
    report = json.loads(out.read_text())
    assert [(s["method"], s["winner"]) for s in report["per_start"]] == [
        (m, w) for w in ("1", "3", "2") for m in ("designed", "gd_prior_a")]
    for method in ("designed", "gd_prior_a"):
        assert report["wins"][method] == {"1": 1, "1.5": 0, "2": 1, "3": 1, "5": 0}
        assert report["stop_iter_sum"][method] == {"1": 30, "1.5": 45, "2": 60, "3": 90, "5": 150}
    assert report["starts"] == 3
    assert report["lost"] == [
        {"method": "designed", "start": "s2", "winner": "2", "mu_five": 0.75, "mu_default": 0.78},
        {"method": "gd_prior_a", "start": "s2", "winner": "2", "mu_five": 0.85, "mu_default": 0.88}]
    out = capsys.readouterr().out
    assert "designed s2: 1=0.80000 1.5=0.76000 2=0.75000 3=0.78000 5=0.85000 winner 2" in out
