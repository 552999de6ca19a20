import statistics

import numpy as np
import pytest

from schedsim.engine import SimConfig
from schedsim.errors import ConfigError
from schedsim.sched import (
    EPS_RATE,
    DpfaParams,
    VpfaParams,
    dpfa_priority,
    make_scheduler,
    pfa_priority,
    select,
    update_avg_throughput,
    update_beta,
    update_timers,
    variance_scores,
)


def argmax_oracle(values):
    best, best_i = None, None
    for i, v in enumerate(values):
        if best is None or v > best:
            best, best_i = v, i
    return best_i


def arr(*values):
    return np.array(values, dtype=float)


def ints(*values):
    return np.array(values, dtype=np.int64)


class TestPfaPriority:
    def test_equal_rate_and_average(self):
        assert pfa_priority(arr(150.0), arr(150.0)).tolist() == [1.0]

    def test_direct_ratio(self):
        assert pfa_priority(arr(200.0), arr(100.0)).tolist() == [2.0]

    def test_cold_start_floor(self):
        assert pfa_priority(arr(50.0), arr(0.0)).tolist() == [50.0 / EPS_RATE]

    def test_scaling_all_averages_keeps_argmax(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            r = rng.uniform(1.0, 1e5, size=10)
            avg = rng.uniform(10.0, 1e5, size=10)  # above the floor
            base = argmax_oracle(pfa_priority(r, avg))
            for c in (0.5, 3.0, 100.0):
                assert argmax_oracle(pfa_priority(r, c * avg)) == base


class TestAvgThroughputUpdate:
    def test_tc_one_replaces(self):
        avg = arr(123.0, 40.0)
        update_avg_throughput(avg, arr(55.0, 9.0), 0, 1.0)
        assert avg.tolist() == [55.0, 0.0]

    def test_scheduled_ewma(self):
        avg = arr(100.0, 100.0)
        update_avg_throughput(avg, arr(200.0, 200.0), 0, 100.0)
        assert avg[0] == pytest.approx(101.0)

    def test_unscheduled_decay(self):
        avg = arr(100.0, 100.0)
        update_avg_throughput(avg, arr(200.0, 200.0), 1, 100.0)
        assert avg[0] == pytest.approx(99.0)

    def test_bad_time_constant(self):
        with pytest.raises(ConfigError, match="tc_slots"):
            SimConfig(tc_slots=0.5).validate()


class TestDpfaPriority:
    def test_unit_exponents_reduce_to_pf(self):
        rng = np.random.default_rng(2)
        r, avg = rng.uniform(0, 1e5, size=100), rng.uniform(0, 1e5, size=100)
        assert np.array_equal(dpfa_priority(r, avg, 1.0, 1.0), pfa_priority(r, avg))

    def test_zero_beta_is_max_ci(self):
        assert dpfa_priority(arr(777.0), arr(123.0), 1.0, 0.0).tolist() == [777.0]

    def test_zero_alpha_unit_beta_is_catch_up(self):
        assert dpfa_priority(arr(777.0), arr(4.0), 0.0, 1.0).tolist() == [1.0 / 4.0]


class TestTimers:
    def timers(self, a, b, gamma, delta, literal=False):
        a_next, b_next = update_timers(ints(a), ints(b), arr(gamma), delta, literal)
        return int(a_next[0]), int(b_next[0])

    def test_center_slot_resets_edge_timer(self):
        delta = 2.0
        assert self.timers(5, 3, 2 * delta, delta) == (0, 4)

    def test_edge_slot_resets_center_timer(self):
        delta = 2.0
        assert self.timers(0, 7, delta / 2, delta) == (1, 0)

    def test_boundary_counts_as_center(self):
        assert self.timers(4, 9, 2.0, 2.0) == (0, 10)

    def test_literal_mode_matches_printed_piecewise_form(self):
        delta = 2.0
        a, b = update_timers(ints(3, 3, 3), ints(5, 5, 5), arr(3.0, 2.0, 1.0), delta, True)
        assert a.tolist() == [0, 0, 4]
        assert b.tolist() == [0, 6, 6]

    def test_exclusivity_under_default_semantics(self):
        rng = np.random.default_rng(8)
        a = b = np.zeros(5, dtype=np.int64)
        for _ in range(500):
            a, b = update_timers(a, b, rng.exponential(2.0, size=5), 2.0, False)
            assert np.all(a * b == 0)
            assert np.all(a >= 0) and np.all(b >= 0)

    def test_bad_delta(self):
        with pytest.raises(ConfigError, match="dpfa_delta"):
            DpfaParams(delta=0.0).validate()


class TestBetaUpdate:
    def params(self, theta=20, b=0.5, delta=2.0):
        return DpfaParams(delta=delta, theta=theta, b=b)

    def beta(self, a, b_timer, gamma, p):
        return update_beta(ints(*a), ints(*b_timer), arr(*gamma), p).tolist()

    def test_long_edge_user_is_neutral(self):
        p = self.params()
        assert self.beta([p.theta], [999], [1.0], p) == [1.0]

    def test_long_center_user_is_reweighted(self):
        p = self.params()
        assert self.beta([0], [p.theta + 5], [2 * p.delta], p) == [2.0]

    def test_floor_binds(self):
        p = self.params()
        assert self.beta([0], [p.theta + 5], [0.2 * p.delta], p) == [0.5]

    def test_neutral_branch_has_precedence(self):
        # both branch conditions can hold at once; beta = 1 must win
        p = self.params()
        assert self.beta([0, 0], [0, p.theta], [5 * p.delta, 5 * p.delta], p) == [1.0, 1.0]


class TestVpfaScore:
    def test_equal_ledgers_score_zero(self):
        assert variance_scores(arr(500.0, 500.0, 500.0), None).tolist() == [0.0, 0.0, 0.0]

    def test_two_user_deficit(self):
        scores = variance_scores(arr(100.0, 300.0), None)
        assert scores.tolist() == [100.0, -100.0]
        assert select(scores) == 0

    def test_series_all_zero_window(self):
        assert variance_scores(arr(0.0, 0.0), np.zeros((0, 2))).tolist() == [0.0, 0.0]

    def test_series_variance_of_window(self):
        # 6 PF-phase slots through a 4-row window: the filled window holds the
        # last 4 one-hot delivery rows, and each score is that column's
        # population variance
        rates, snrs = random_stream(2, 6, 12)
        sched = make_scheduler("vpfa", 2, vpfa=VpfaParams(variance_mode="series", window=4))
        rows = []
        for t in range(6):
            chosen = sched.step(rates[t], snrs[t])
            rows.append([rates[t][k] if k == chosen else 0.0 for k in range(2)])
        scores = variance_scores(sched.delivered_bits, sched.window[: sched.slots_elapsed])
        expected = [statistics.pvariance([row[k] for row in rows[-4:]]) for k in range(2)]
        assert scores.tolist() == pytest.approx(expected, rel=1e-12)


class TestSelect:
    def test_unique_max(self):
        assert select([1.0, 3.0, 2.0]) == 1

    def test_tie_breaks_low_index(self):
        assert select([2.0, 2.0]) == 0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            v = rng.uniform(-10, 10, size=10)
            assert select(v) == argmax_oracle(v)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            select([1.0, float("nan")])


class TestPowerIdentities:
    # the exact-sequence equivalences below lean on IEEE pow(x, 1) == x and
    # pow(x, 0) == 1; pin that assumption down
    def test_numpy_pow_one_and_zero_are_exact(self):
        rng = np.random.default_rng(17)
        v = rng.uniform(1e-3, 1e9, size=1000)
        assert np.all(np.power(v, 1.0) == v)
        assert np.all(np.power(v, 0.0) == 1.0)


def random_stream(n_users, n_slots, seed, lo=1e3, hi=2e5):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(lo, hi, size=(n_slots, n_users))
    snrs = rng.exponential(5.0, size=(n_slots, n_users))
    return rates, snrs


def dpfa(n_users, **kw):
    return make_scheduler("dpfa", n_users, dpfa=DpfaParams(**kw))


def vpfa(n_users, **kw):
    return make_scheduler("vpfa", n_users, vpfa=VpfaParams(**kw))


class TestStep:
    def test_pfa_cold_start_picks_best_rate(self):
        sched = make_scheduler("pfa", 2)
        assert sched.step(arr(10.0, 20.0), arr(1.0, 1.0)) == 1

    def test_round_robin_cycles(self):
        sched = make_scheduler("rr", 3)
        rates, snrs = random_stream(3, 6, 0)
        assert [sched.step(rates[t], snrs[t]) for t in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_length_mismatch_rejected(self):
        sched = make_scheduler("pfa", 3)
        with pytest.raises(ValueError):
            sched.step(arr(1.0, 2.0), arr(1.0, 2.0, 3.0))

    def test_exactly_one_user_per_slot(self):
        rates, snrs = random_stream(5, 400, 1)
        for name in ("pfa", "maxci", "rr"):
            sched = make_scheduler(name, 5, dpfa=DpfaParams(delta=3.0))
            counts = np.zeros(5, dtype=int)
            for t in range(400):
                counts[sched.step(rates[t], snrs[t])] += 1
            assert counts.sum() == 400

    def test_ewma_conservation_matches_scalar_update(self):
        # exactly one user receives the r-term and everyone decays: the
        # in-policy update must agree with the per-user formula
        sched = make_scheduler("pfa", 4, tc_slots=50.0)
        rates, snrs = random_stream(4, 100, 2)
        for t in range(100):
            before = sched.avg_throughput.copy()
            chosen = sched.step(rates[t], snrs[t])
            expected = []
            for k in range(4):
                decayed = (1.0 - 1.0 / 50.0) * before[k]
                expected.append(decayed + rates[t][k] / 50.0 if k == chosen else decayed)
            assert sched.avg_throughput.tolist() == expected

    def test_growing_time_constant(self):
        sched = make_scheduler("pfa", 2, tc_mode="growing")
        assert sched.t_c == 1.0
        sched.step(arr(5.0, 3.0), arr(1.0, 1.0))
        # first slot fully replaces the chosen user's average
        assert sched.avg_throughput.tolist() == [5.0, 0.0]
        assert sched.t_c == 2.0

    def test_dpfa_forced_unit_exponents_equals_pfa(self):
        rates, snrs = random_stream(6, 2000, 3)
        pfa = make_scheduler("pfa", 6)
        forced = dpfa(6, delta=5.0, beta_override=1.0)
        for t in range(2000):
            assert pfa.step(rates[t], snrs[t]) == forced.step(rates[t], snrs[t])
        assert np.array_equal(pfa.avg_throughput, forced.avg_throughput)

    def test_dpfa_forced_zero_beta_equals_max_ci(self):
        rates, snrs = random_stream(6, 2000, 4)
        maxci = make_scheduler("maxci", 6)
        forced = dpfa(6, delta=5.0, beta_override=0.0)
        for t in range(2000):
            assert maxci.step(rates[t], snrs[t]) == forced.step(rates[t], snrs[t])

    def test_dpfa_catch_up_form_matches_direct_oracle(self):
        # alpha=0, beta=1 forced: every slot must pick argmax 1/R_k with R_k
        # replayed through the per-user EWMA formula
        rates, snrs = random_stream(5, 2000, 5)
        sched = dpfa(5, alpha=0.0, delta=5.0, beta_override=1.0)
        avg = [EPS_RATE] * 5
        for t in range(2000):
            expected = argmax_oracle([1.0 / max(a, EPS_RATE) for a in avg])
            chosen = sched.step(rates[t], snrs[t])
            assert chosen == expected
            avg = [
                (1.0 - 1.0 / 1000.0) * avg[k] + (rates[t][k] / 1000.0 if k == chosen else 0.0)
                for k in range(5)
            ]

    def test_dpfa_priorities_match_scalar_formula(self):
        rates = arr(2e4, 5e4, 9e4)
        avg = arr(0.5, 1e4, 8e4)
        beta = arr(0.7, 1.0, 1.3)
        expected = [r**1.5 / max(a, EPS_RATE) ** b for r, a, b in zip(rates, avg, beta)]
        assert dpfa_priority(rates, avg, 1.5, beta).tolist() == pytest.approx(expected, rel=1e-14)
        # and the policy serves the argmax of that formula every slot
        stream, snrs = random_stream(3, 200, 13)
        sched = dpfa(3, alpha=1.5, delta=5.0, beta_override=0.7)
        for t in range(200):
            want = [r**1.5 / max(a, EPS_RATE) ** 0.7 for r, a in zip(stream[t], sched.avg_throughput)]
            assert sched.step(stream[t], snrs[t]) == argmax_oracle(want)

    def test_dpfa_requires_resolved_delta(self):
        with pytest.raises(ConfigError):
            dpfa(3, delta=None)

    def test_dpfa_timers_stay_exclusive(self):
        rates, snrs = random_stream(4, 1000, 6)
        sched = dpfa(4, delta=5.0)
        for t in range(1000):
            sched.step(rates[t], snrs[t])
            assert np.all(sched.edge_slots * sched.center_slots == 0)

    def test_dpfa_beta_floor(self):
        sched = dpfa(2, delta=5.0, theta=2, b=0.5)
        rates = arr(1e4, 1e4)
        # drive user snrs: user 0 stays center long enough to be reweighted
        for _ in range(5):
            sched.step(rates, arr(50.0, 1.0))
        assert sched.center_slots[0] == 5
        assert sched.beta[0] == 10.0  # gamma/delta
        for _ in range(3):
            sched.step(rates, arr(0.1, 1.0))
        # user 0 now at the edge: timer semantics reset B, grace restores beta=1
        assert sched.beta[0] == 1.0


class TestVpfaPhases:
    def test_warmup_is_decision_identical_to_pfa(self):
        rates, snrs = random_stream(5, 1500, 7)
        pfa = make_scheduler("pfa", 5)
        sched = vpfa(5)
        for t in range(1500):
            assert pfa.step(rates[t], snrs[t]) == sched.step(rates[t], snrs[t])

    def test_signed_stability_flag_reaches_scheduler(self):
        # signed mode treats FI increases as stable, so a rising series
        # switches in the minimum number of evaluations
        signed = vpfa(3, l_sc=3, signed_stability=True)
        assert not signed.observe_fi(0.50)  # cold start
        assert not signed.observe_fi(0.60)  # +0.10, stable under signed test
        assert signed.observe_fi(0.70)
        unsigned = vpfa(3, l_sc=3)
        assert not unsigned.observe_fi(0.50)
        assert not unsigned.observe_fi(0.60)  # |+0.10| resets
        assert unsigned.c_s == 0

    def test_observe_fi_switches_once_and_never_back(self):
        sched = vpfa(3, l_sc=2)
        assert not sched.observe_fi(0.5)   # cold start -> C_s = 1
        assert sched.observe_fi(0.5005)    # stable -> C_s = 2 = L_sc
        assert sched.phase == "variance"
        assert not sched.observe_fi(0.9)   # no effect after the switch
        assert sched.phase == "variance"

    def test_variance_phase_never_selects_by_pf(self):
        rates, snrs = random_stream(3, 300, 8)
        sched = vpfa(3, l_sc=1)
        sched.observe_fi(0.7)  # force the switch immediately
        assert sched.phase == "variance"
        for t in range(300):
            before = sched.delivered_bits.copy()
            chosen = sched.step(rates[t], snrs[t])
            # deficit mode: the chosen user is always a current minimum
            assert before[chosen] == before.min()

    def test_deficit_mode_equalizes_heterogeneous_rates(self):
        # constant rates spread 10:1; after a long variance phase the ledger
        # spread is bounded by the largest single-slot delivery
        n = 4
        rates = arr(1e5, 5e4, 2e4, 1e4)
        snrs = np.ones(n)
        sched = vpfa(n, l_sc=1)
        sched.observe_fi(0.5)
        for _ in range(20_000):
            sched.step(rates, snrs)
        led = sched.delivered_bits
        assert led.max() - led.min() <= rates.max()

    def test_cumulative_ledger_is_nondecreasing(self):
        rates, snrs = random_stream(3, 200, 9)
        sched = vpfa(3)
        prev = sched.delivered_bits.copy()
        for t in range(200):
            sched.step(rates[t], snrs[t])
            assert np.all(sched.delivered_bits >= prev)
            prev = sched.delivered_bits.copy()


class TestFactory:
    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_scheduler("flying", 3)

    def test_all_policies_constructible(self):
        for name in ("pfa", "dpfa", "maxci", "rr", "vpfa"):
            s = make_scheduler(name, 4, dpfa=DpfaParams(delta=2.0))
            assert s.name == name
