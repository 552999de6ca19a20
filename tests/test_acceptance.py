"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.  The headline comparison (criteria 4-7) is computed once for
ten seeds and shared.
"""
import dataclasses
import filecmp
import time

import numpy as np
import pytest

from schedsim.channel import ChannelParams, UserLink, cost231_path_loss
from schedsim.cli import main
from schedsim.engine import SimConfig, comparison_configs, run, run_comparison
from schedsim.metrics import jain_index
from schedsim.sched import DpfaParams, VpfaParams

N_SEEDS = 10
HEADLINE_POLICIES = ("pfa", "dpfa", "vpfa")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print("[criterion %02d] %s: %s" % (criterion, "PASS" if ok else "FAIL", detail))


@pytest.fixture(scope="module")
def headline():
    """Default comparison (N=10, 20k slots) for seeds 0..9, plus wall time."""
    t0 = time.perf_counter()
    comparisons = []
    for seed in range(N_SEEDS):
        base = SimConfig(seed=seed)
        comparisons.append(
            run_comparison(comparison_configs(base, list(HEADLINE_POLICIES)), reference="pfa")
        )
    elapsed = time.perf_counter() - t0

    def seed_mean(policy, fn):
        return float(np.mean([fn(c.results[policy]) for c in comparisons]))

    fi = {p: seed_mean(p, lambda r: r.metrics.jain()) for p in HEADLINE_POLICIES}
    drop = {
        p: float(
            np.mean(
                [
                    next(row.drop_pct_vs_reference for row in c.summary if row.policy == p)
                    for c in comparisons
                ]
            )
        )
        for p in HEADLINE_POLICIES
    }

    def farthest_bits(result):
        far = int(np.argmax([link.distance_m for link in result.links]))
        return float(result.metrics.per_user_bits[far])

    edge_bits = {p: seed_mean(p, farthest_bits) for p in ("pfa", "vpfa")}
    return {
        "comparisons": comparisons,
        "elapsed": elapsed,
        "fi": fi,
        "drop": drop,
        "edge_bits": edge_bits,
    }


def test_criterion_01_jain_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        v = rng.uniform(0.0, 1e6, size=n)
        v[rng.random(n) < 0.25] = 0.0
        if not v.any():
            v[0] = 1.0
        fi = jain_index(v)
        oracle = float(v.sum()) ** 2 / (n * float((v * v).sum()))
        worst = max(worst, abs(fi - oracle) / oracle)
        assert abs(fi - oracle) <= 1e-12 * oracle
        assert 1.0 / n <= fi <= 1.0
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, "worst rel err %.2e over 1000 vectors in %.2fs" % (worst, elapsed))
    assert elapsed < 1.0


def test_criterion_02_degenerate_scheduler_equivalences():
    t0 = time.perf_counter()
    base = SimConfig(seed=5)
    res_pfa = run(base)
    res_maxci = run(dataclasses.replace(base, policy="maxci"))
    res_pf_forced = run(
        dataclasses.replace(base, policy="dpfa", dpfa=DpfaParams(alpha=1.0, beta_override=1.0))
    )
    res_ci_forced = run(
        dataclasses.replace(base, policy="dpfa", dpfa=DpfaParams(alpha=1.0, beta_override=0.0))
    )
    elapsed = time.perf_counter() - t0
    pf_match = bool(np.array_equal(res_pfa.decisions, res_pf_forced.decisions))
    ci_match = bool(np.array_equal(res_maxci.decisions, res_ci_forced.decisions))
    ok = pf_match and ci_match and elapsed < 5.0
    _report(
        2,
        ok,
        "unit-exponent==pfa %s, zero-beta==maxci %s over 20k slots in %.2fs"
        % (pf_match, ci_match, elapsed),
    )
    assert pf_match and ci_match
    assert elapsed < 5.0


def test_criterion_03_equal_rate_pf_fairness():
    n, total = 10, 20000
    cfg = SimConfig(
        channel=ChannelParams(fast_fading_enabled=False),
        n_users=n,
        total_slots=total,
        policy="pfa",
    )
    links = [UserLink(k, 600.0, 0.0) for k in range(n)]
    res = run(cfg, links=links)
    counts = res.metrics.schedule_counts
    dev = float(np.max(np.abs(counts - total / n)) / (total / n))
    ok = dev <= 0.02
    _report(3, ok, "max deviation from T/N is %.3f%% (bound 2%%)" % (dev * 100))
    assert ok


def test_criterion_04_headline_fairness_ordering(headline):
    fi = headline["fi"]
    elapsed = headline["elapsed"]
    ordering = fi["vpfa"] > fi["dpfa"] > fi["pfa"]
    vpfa_ok = fi["vpfa"] >= 0.90
    pfa_ok = 0.65 <= fi["pfa"] <= 0.88
    ok = ordering and vpfa_ok and pfa_ok and elapsed < 30.0
    _report(
        4,
        ok,
        "FI vpfa %.3f > dpfa %.3f > pfa %.3f; 10 seeds in %.1fs"
        % (fi["vpfa"], fi["dpfa"], fi["pfa"], elapsed),
    )
    assert ordering, "fairness ordering violated: %s" % fi
    assert vpfa_ok, "FI(vpfa) %.3f below 0.90" % fi["vpfa"]
    assert pfa_ok, "FI(pfa) %.3f outside [0.65, 0.88]" % fi["pfa"]
    assert elapsed < 30.0


def test_criterion_05_throughput_drop_ordering(headline):
    drop = headline["drop"]
    ordering = drop["vpfa"] < drop["dpfa"]
    in_band = 5.0 <= drop["vpfa"] <= 35.0 and 5.0 <= drop["dpfa"] <= 35.0
    ok = ordering and in_band
    _report(
        5,
        ok,
        "drop vpfa %.1f%%, dpfa %.1f%% (need vpfa < dpfa, both in [5, 35])"
        % (drop["vpfa"], drop["dpfa"]),
    )
    assert ordering, "drop(vpfa) %.1f%% not below drop(dpfa) %.1f%%" % (
        drop["vpfa"],
        drop["dpfa"],
    )
    assert in_band, "drops outside [5%%, 35%%]: vpfa %.1f%%, dpfa %.1f%%" % (
        drop["vpfa"],
        drop["dpfa"],
    )


def test_criterion_06_cell_edge_gain(headline):
    edge = headline["edge_bits"]
    ratio = edge["vpfa"] / edge["pfa"]
    ok = ratio >= 1.2
    _report(6, ok, "farthest-user bits vpfa/pfa = %.2f (need >= 1.2)" % ratio)
    assert ok, "edge-user gain %.2f below 1.2" % ratio


def test_criterion_07_variance_phase_starves_top_user(headline):
    bad_seeds = []
    for seed, comp in enumerate(headline["comparisons"]):
        res = comp.results["vpfa"]
        assert res.phase_switch_slot is not None, "vpfa never left its PF phase"
        top_user = int(np.argmax(res.vpfa_warmup_bits))
        counts = res.vpfa_variance_counts
        if counts[top_user] != counts.min():
            bad_seeds.append(seed)
    ok = not bad_seeds
    _report(
        7,
        ok,
        "top warm-up user has the fewest variance-phase slots in %d/%d seeds"
        % (N_SEEDS - len(bad_seeds), N_SEEDS),
    )
    assert ok, "starvation property violated for seeds %s" % bad_seeds


def test_criterion_08_byte_identical_outputs(tmp_path):
    args = [
        "--set",
        "total_slots=3000",
        "--policies",
        "pfa,dpfa,vpfa",
        "--reference",
        "pfa",
    ]
    assert main(["compare", *args, "--out", str(tmp_path / "c1")]) == 0
    assert main(["compare", *args, "--out", str(tmp_path / "c2")]) == 0
    assert main(["figures", *args, "--out", str(tmp_path / "f1")]) == 0
    assert main(["figures", *args, "--out", str(tmp_path / "f2")]) == 0

    def same_tree(a, b):
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        if files_a != files_b:
            return False
        return all(filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)

    csv_ok = same_tree(tmp_path / "c1", tmp_path / "c2")
    svg_ok = same_tree(tmp_path / "f1", tmp_path / "f2")
    n_files = len(list((tmp_path / "f1").rglob("*.svg")))
    ok = csv_ok and svg_ok and n_files == 4
    _report(8, ok, "compare reruns byte-identical %s, figures reruns byte-identical %s" % (csv_ok, svg_ok))
    assert ok


def test_criterion_09_cost231_spot_value():
    pl = cost231_path_loss(1000.0, ChannelParams())
    ok = abs(pl - 140.8) <= 0.1
    _report(9, ok, "path loss at 1 km / 2 GHz / metro = %.4f dB (140.8 +- 0.1)" % pl)
    assert ok


def test_criterion_10_vpfa_phase_machine_trace():
    # 2 equal-rate users, no fading: PF alternates deterministically, the FI
    # series follows the closed parity form, and the hand-traced stability
    # counter (cold start 1; +1 while |dFI| < 0.01 else 0) reaches 3 after
    # the evaluation at slot 13, so slot 14 is the first variance selection.
    cfg = SimConfig(
        channel=ChannelParams(fast_fading_enabled=False),
        n_users=2,
        total_slots=40,
        policy="vpfa",
        vpfa=VpfaParams(s_fi=1, l_sc=3),
    )
    links = [UserLink(0, 700.0, 0.0), UserLink(1, 700.0, 0.0)]
    res = run(cfg, links=links)
    ok = res.phase_switch_slot == 14
    _report(10, ok, "phase switch at slot %s (hand trace: 14)" % res.phase_switch_slot)
    assert ok
