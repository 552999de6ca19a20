import numpy as np
import pytest

from schedsim.engine import SimConfig, _decide, resolve_delta
from schedsim.errors import ConfigError
from schedsim.sched import (
    EPS_RATE,
    ROW_MAX_USERS_PER_SLOT,
    DpfaParams,
    VpfaParams,
    center_timer,
    least_served,
    make_scheduler,
    select,
    update_beta,
)
from test_properties import ledger_after, ledger_heap, least_served_oracle, pf_priority, update_avg_throughput


def argmax_oracle(values):
    best, best_i = None, None
    for i, v in enumerate(values):
        if best is None or v > best:
            best, best_i = v, i
    return best_i


def step1(sched, rates, snrs) -> int:
    """Decide one slot through the block interface."""
    return int(sched.step(np.atleast_2d(rates), np.atleast_2d(snrs))[0])


def arr(*values):
    return np.array(values, dtype=float)


def ints(*values):
    return np.array(values, dtype=np.int64)


class TestPfaPriority:
    # pfa's metric is pf_priority at its default exponent 1
    def test_equal_rate_and_average(self):
        assert pf_priority(arr(150.0), arr(150.0)).tolist() == [1.0]

    def test_direct_ratio(self):
        assert pf_priority(arr(200.0), arr(100.0)).tolist() == [2.0]

    def test_cold_start_floor(self):
        assert pf_priority(arr(50.0), arr(0.0)).tolist() == [50.0 / EPS_RATE]

    def test_scaling_all_averages_keeps_argmax(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            r = rng.uniform(1.0, 1e5, size=10)
            avg = rng.uniform(10.0, 1e5, size=10)  # above the floor
            base = argmax_oracle(pf_priority(r, avg))
            for c in (0.5, 3.0, 100.0):
                assert argmax_oracle(pf_priority(r, c * avg)) == base

    def test_buffer_holds_the_same_metric(self):
        rng = np.random.default_rng(22)
        r, avg = rng.uniform(0, 1e5, size=50), rng.uniform(0, 1e5, size=50)
        buf = np.empty(50)
        assert pf_priority(r, avg, out=buf) is buf
        assert np.array_equal(buf, pf_priority(r, avg))
        assert np.array_equal(buf, r / np.maximum(avg, EPS_RATE))


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
    # dpfa passes pf_priority its numerator r^alpha, computed once per block
    def test_unit_exponents_reduce_to_pf(self):
        # x^1 is x bit for bit, so the slot loop skips both powers for pfa
        rng = np.random.default_rng(2)
        r, avg = rng.uniform(0, 1e5, size=100), rng.uniform(0, 1e5, size=100)
        assert np.array_equal(pf_priority(np.power(r, 1.0), avg, np.ones(100)), r / np.maximum(avg, EPS_RATE))

    def test_zero_beta_is_max_ci(self):
        assert pf_priority(np.power(arr(777.0), 1.0), arr(123.0), 0.0).tolist() == [777.0]

    def test_zero_alpha_unit_beta_is_catch_up(self):
        assert pf_priority(np.power(arr(777.0), 0.0), arr(4.0), 1.0).tolist() == [1.0 / 4.0]

    def test_buffer_holds_the_same_metric(self):
        rng = np.random.default_rng(3)
        r, avg, beta = rng.uniform(0, 1e5, size=50), rng.uniform(0, 1e5, size=50), rng.uniform(0.5, 3, size=50)
        buf = np.empty(50)
        assert pf_priority(np.power(r, 0.8), avg, beta, buf) is buf
        assert np.array_equal(buf, np.power(r, 0.8) / np.power(np.maximum(avg, EPS_RATE), beta))


class TestTimers:
    # one timer: B counts the slots since the last edge slot.  The paper's
    # edge timer A is not carried; it is positive exactly where B is 0.
    def timer(self, b, gamma, delta):
        return int(center_timer(ints(b), arr(gamma)[None], delta)[0, 0])

    def test_center_slot_resets_edge_timer(self):
        delta = 2.0
        assert self.timer(3, 2 * delta, delta) == 4  # B > 0: the edge timer is 0

    def test_edge_slot_resets_center_timer(self):
        delta = 2.0
        assert self.timer(7, delta / 2, delta) == 0

    def test_boundary_counts_as_center(self):
        assert self.timer(9, 2.0, 2.0) == 10

    def test_exclusivity_under_default_semantics(self):
        # B is 0 exactly at the edge slots, where A would count
        rng = np.random.default_rng(8)
        snrs = rng.exponential(2.0, size=(500, 5))
        b = center_timer(np.zeros(5, dtype=np.int64), snrs, 2.0)
        assert np.array_equal(b == 0, snrs < 2.0)
        assert np.all(b >= 0)

    def test_block_matches_slot_by_slot_reference(self):
        # the per-slot piecewise update, applied row by row from non-zero
        # carried timers, against the closed form over the whole block
        rng = np.random.default_rng(11)
        snrs = rng.exponential(2.0, size=(300, 6))
        center = ints(9, 0, 0, 2, 0, 0)
        b_block = center_timer(center, snrs, 2.0)
        b = center
        for t, gamma in enumerate(snrs):
            b = np.where(gamma < 2.0, 0, b + 1)
            assert b_block[t].tolist() == b.tolist()

    @staticmethod
    def accumulate_timer(center, snrs, delta):
        """The closed form as one accumulate down the columns at every shape."""
        run = np.arange(1, len(snrs) + 1)[:, None] + center
        last_edge = np.maximum.accumulate(run * (snrs < delta), axis=0)
        return run - last_edge

    @pytest.mark.parametrize("min_slots,max_slots,users,row_by_row", [(1, 16, 256, True), (1, 10, 1000, True),
                                                                    (64, 200, 16, False), (64, 100, 10, False)])
    def test_each_running_maximum_matches_the_accumulate(self, min_slots, max_slots, users, row_by_row):
        # random carries, blocks of random lengths that all take one side of
        # the pick: the row loop on wide blocks, the accumulate on long ones
        rng = np.random.default_rng(max_slots * users)
        delta = 1.0
        for _ in range(5):
            lengths = rng.integers(min_slots, max_slots + 1, size=int(rng.integers(1, 8)))
            snrs = rng.exponential(delta, size=(int(lengths.sum()), users))
            snrs[rng.random(snrs.shape) < 0.02] = delta  # the boundary counts as center
            center = rng.integers(0, 50, size=users)
            start = 0
            for length in lengths.tolist():
                assert (users >= ROW_MAX_USERS_PER_SLOT * length) == row_by_row
                block = snrs[start:start + length]
                got = center_timer(center, block, delta)
                assert got.dtype == np.int64
                assert np.array_equal(got, self.accumulate_timer(center, block, delta))
                center, start = got[-1], start + length

    def test_bad_delta(self):
        with pytest.raises(ConfigError, match="dpfa_delta"):
            DpfaParams(delta=0.0).validate()


class TestBetaUpdate:
    def params(self, theta=20, delta=2.0):
        return DpfaParams(delta=delta, theta=theta)

    def beta(self, b_timer, gamma, p):
        return update_beta(ints(*b_timer), arr(*gamma), p).tolist()

    def test_long_edge_user_is_neutral(self):
        # an edge slot zeroes B however long the user was at the center
        p = self.params()
        b_timer = center_timer(ints(999), arr(1.0)[None], p.delta)[0]
        assert self.beta(b_timer, [1.0], p) == [1.0]

    def test_long_center_user_is_reweighted(self):
        p = self.params()
        assert self.beta([p.theta + 5], [2 * p.delta], p) == [2.0]

    def test_neutral_branch_has_precedence(self):
        # at or below theta, beta = 1 however far above delta the SNR is
        p = self.params()
        assert self.beta([0, p.theta], [5 * p.delta, 5 * p.delta], p) == [1.0, 1.0]


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

    def test_block_gives_each_rows_decision(self):
        rng = np.random.default_rng(32)
        block = rng.choice([0.0, 1.0, 2.0], size=(50, 4))  # ties in most rows
        assert select(block).tolist() == [select(row) for row in block]


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
        assert step1(sched, arr(10.0, 20.0), arr(1.0, 1.0)) == 1

    def test_round_robin_cycles(self):
        sched = make_scheduler("rr", 3)
        rates, snrs = random_stream(3, 6, 0)
        assert sched.step(rates[:4], snrs[:4]).tolist() == [0, 1, 2, 0]
        assert sched.step(rates[4:], snrs[4:]).tolist() == [1, 2]

    @pytest.mark.parametrize("policy", ["pfa", "dpfa", "maxci", "rr", "vpfa"])
    def test_empty_block_changes_nothing(self, policy):
        sched = make_scheduler(policy, 3, dpfa=DpfaParams(delta=3.0))
        assert sched.step(np.empty((0, 3)), np.empty((0, 3))).tolist() == []
        assert sched.slots_elapsed == 0
        rates, snrs = random_stream(3, 1, 0)
        assert sched.step(rates, snrs).shape == (1,)

    def test_exactly_one_user_per_slot(self):
        rates, snrs = random_stream(5, 400, 1)
        for name in ("pfa", "maxci", "rr"):
            sched = make_scheduler(name, 5, dpfa=DpfaParams(delta=3.0))
            counts = np.zeros(5, dtype=int)
            for t in range(400):
                counts[step1(sched, rates[t], snrs[t])] += 1
            assert counts.sum() == 400

    def test_ewma_conservation_matches_scalar_update(self):
        # exactly one user receives the r-term and everyone decays: the
        # in-policy update must agree with the per-user formula
        sched = make_scheduler("pfa", 4, tc_slots=50.0)
        rates, snrs = random_stream(4, 100, 2)
        for t in range(100):
            before = sched.avg_throughput.copy()
            chosen = step1(sched, rates[t], snrs[t])
            expected = []
            for k in range(4):
                decayed = (1.0 - 1.0 / 50.0) * before[k]
                expected.append(decayed + rates[t][k] / 50.0 if k == chosen else decayed)
            assert sched.avg_throughput.tolist() == expected

    def test_growing_time_constant(self):
        sched = make_scheduler("pfa", 2, tc_mode="growing")
        assert sched.t_c == 1.0
        step1(sched, arr(5.0, 3.0), arr(1.0, 1.0))
        # first slot fully replaces the chosen user's average
        assert sched.avg_throughput.tolist() == [5.0, 0.0]
        assert sched.t_c == 2.0

    def test_dpfa_forced_unit_exponents_equals_pfa(self):
        rates, snrs = random_stream(6, 2000, 3)
        pfa = make_scheduler("pfa", 6)
        forced = dpfa(6, delta=5.0, beta_override=1.0)
        for t in range(2000):
            assert step1(pfa, rates[t], snrs[t]) == step1(forced, rates[t], snrs[t])
        assert np.array_equal(pfa.avg_throughput, forced.avg_throughput)

    def test_dpfa_forced_zero_beta_equals_max_ci(self):
        rates, snrs = random_stream(6, 2000, 4)
        maxci = make_scheduler("maxci", 6)
        forced = dpfa(6, delta=5.0, beta_override=0.0)
        for t in range(2000):
            assert step1(maxci, rates[t], snrs[t]) == step1(forced, rates[t], snrs[t])

    def test_dpfa_catch_up_form_matches_direct_oracle(self):
        # alpha=0, beta=1 forced: every slot must pick argmax 1/R_k with R_k
        # replayed through the per-user EWMA formula
        rates, snrs = random_stream(5, 2000, 5)
        sched = dpfa(5, alpha=0.0, delta=5.0, beta_override=1.0)
        avg = [EPS_RATE] * 5
        for t in range(2000):
            expected = argmax_oracle([1.0 / max(a, EPS_RATE) for a in avg])
            chosen = step1(sched, rates[t], snrs[t])
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
        assert pf_priority(np.power(rates, 1.5), avg, beta).tolist() == pytest.approx(expected, rel=1e-14)
        # and the policy serves the argmax of that formula every slot
        stream, snrs = random_stream(3, 200, 13)
        sched = dpfa(3, alpha=1.5, delta=5.0, beta_override=0.7)
        for t in range(200):
            want = [r**1.5 / max(a, EPS_RATE) ** 0.7 for r, a in zip(stream[t], sched.avg_throughput)]
            assert step1(sched, stream[t], snrs[t]) == argmax_oracle(want)

    def test_dpfa_requires_resolved_delta(self):
        # make_scheduler takes the delta it is given; the engine builds each
        # scheduler from the resolved config, so a default delta arrives resolved
        (share,) = _decide([SimConfig(policy="dpfa", total_slots=5)])
        assert share.scheduler.dpfa.delta == resolve_delta(SimConfig().channel)

    def test_dpfa_timers_stay_exclusive(self):
        # the carried B is 0 after an edge slot and counts on after a center slot
        rates, snrs = random_stream(4, 1000, 6)
        sched = dpfa(4, delta=5.0)
        b = np.zeros(4, dtype=np.int64)
        for t in range(1000):
            step1(sched, rates[t], snrs[t])
            b = np.where(snrs[t] < 5.0, 0, b + 1)
            assert sched.center_slots.tolist() == b.tolist()

    def test_dpfa_carries_its_timer_without_the_block(self):
        # the carried B is the block's last row, copied, not a view that keeps the block alive
        rates, snrs = random_stream(1000, 10, 4)
        sched = dpfa(1000, delta=5.0)
        sched.step(rates, snrs)
        assert sched.center_slots.shape == (1000,)
        assert sched.center_slots.base is None

    def test_dpfa_deprioritizes_long_center_user(self):
        sched = dpfa(2, delta=5.0, theta=2)
        rates = arr(1e4, 1e4)
        # user 0 stays at the center: from its third slot B > theta and its
        # exponent is gamma/delta = 10, so user 1 wins even with the larger
        # average, where pfa would serve user 0 in slots 3 and 5
        assert [step1(sched, rates, arr(50.0, 1.0)) for _ in range(5)] == [0, 1, 1, 1, 1]
        assert sched.center_slots[0] == 5
        # an edge slot resets B and with it the exponent to 1: user 0, now
        # with the smaller average, is served again
        assert step1(sched, rates, arr(0.1, 1.0)) == 0
        assert sched.center_slots[0] == 0


class TestVpfaPhases:
    def test_warmup_is_decision_identical_to_pfa(self):
        # up to the switch, which the scheduler fires on its own at an FI evaluation
        rates, snrs = random_stream(5, 1500, 7)
        pfa = make_scheduler("pfa", 5)
        sched = vpfa(5)
        got = [step1(sched, rates[t], snrs[t]) for t in range(1500)]
        want = [step1(pfa, rates[t], snrs[t]) for t in range(1500)]
        assert sched.switch_slot is not None and sched.switch_slot % 100 == 1
        assert got[:sched.switch_slot - 1] == want[:sched.switch_slot - 1]

    def test_signed_stability_flag_reaches_scheduler(self):
        # each slot's one user with rate 1 is served, so the index after slots
        # 1, 2 and 3 rises 1/3, 2/3, 1: stable under the signed test, which
        # switches in the minimum number of evaluations, and not under |change|
        rates = np.eye(3)
        signed = vpfa(3, s_fi=1, l_sc=3, signed_stability=True)
        assert signed.step(rates, rates).tolist() == [0, 1, 2]
        assert (signed.c_s, signed.switch_slot) == (3, 4)
        unsigned = vpfa(3, s_fi=1, l_sc=3)
        assert unsigned.step(rates[:2], rates[:2]).tolist() == [0, 1]
        assert (unsigned.c_s, unsigned.switch_slot) == (0, None)

    def test_switches_once_and_never_back(self):
        # user 0 alone has bits after slots 1 and 2, so the index stays at 1/3
        sched = vpfa(3, s_fi=1, l_sc=2)
        first = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert sched.step(first, first).tolist() == [0, 0]
        assert (sched.c_s, sched.switch_slot, sched.warmup_bits.tolist()) == (2, 3, [2.0, 0.0, 0.0])
        # no evaluation after the switch: the counter and the switch slot stay, and the variance phase serves
        rates, snrs = random_stream(3, 50, 10)
        decisions = sched.step(rates, snrs)
        assert (sched.c_s, sched.switch_slot) == (2, 3)
        assert np.array_equal(decisions, least_served_oracle(np.array([2.0, 0.0, 0.0]), rates)[0])

    def test_all_zero_ledger_is_not_folded(self):
        # its index is undefined, and a run stops at that evaluation; the counter waits for bits
        sched = vpfa(3, s_fi=1, l_sc=1)
        zeros = np.zeros((4, 3))
        sched.step(zeros, zeros)
        assert (sched.c_s, sched.last_fi, sched.switch_slot) == (0, None, None)
        sched.step(np.eye(3)[:1], np.ones((1, 3)))
        assert (sched.c_s, sched.switch_slot, sched.warmup_bits.tolist()) == (1, 6, [1.0, 0.0, 0.0])

    def test_infinite_ledger_seeds_the_heap_as_it_is(self):
        # user 0's two slots of 1e308 bits pass the float range: a run stops on
        # its bits after deciding, so the scheduler switches and serves on
        sched = vpfa(2, s_fi=2, l_sc=1)
        rates = np.array([[1e308, 0.0], [1e308, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with np.errstate(over="ignore"):  # as a run holds it
            assert sched.step(rates, rates).tolist() == [0, 0, 1, 1]
        assert (sched.switch_slot, sched.warmup_bits.tolist()) == (3, [np.inf, 0.0])

    def test_variance_phase_never_selects_by_pf(self):
        rates = random_stream(3, 300, 8)[0]
        ledger = np.zeros(3)
        heap = ledger_heap(ledger)
        for t in range(300):
            chosen = int(least_served(heap, rates[t:t + 1])[0])
            # deficit mode: the chosen user is always a current minimum
            assert ledger[chosen] == ledger.min()
            ledger[chosen] += rates[t, chosen]

    def test_deficit_mode_equalizes_heterogeneous_rates(self):
        # constant rates spread 10:1; after a long variance phase the ledger
        # spread is bounded by the largest single-slot delivery
        rates = np.tile(arr(1e5, 5e4, 2e4, 1e4), (20_000, 1))
        led = ledger_after(np.zeros(4), rates, least_served(ledger_heap(np.zeros(4)), rates))
        assert led.max() - led.min() <= rates.max()

    def test_cumulative_ledger_is_nondecreasing(self):
        # through the warm-up, the switch the first evaluation fires at slot 101, and the variance phase
        rates, snrs = random_stream(3, 200, 9)
        sched = vpfa(3, l_sc=1)
        ledger = np.zeros(3)
        for t in range(200):
            assert sched.switch_slot == (None if t < 100 else 101)
            if t == 100:
                assert np.array_equal(sched.warmup_bits, ledger)
            prev = ledger.copy()
            c = step1(sched, rates[t], snrs[t])
            ledger[c] += rates[t, c]
            assert np.all(ledger >= prev)
        # the warm-up ledger stops at the switch; the variance phase credits its heap
        assert not np.array_equal(sched.warmup_bits, ledger)


class TestFactory:
    def test_unknown_policy(self):
        # by the config, which make_scheduler trusts
        with pytest.raises(ConfigError, match="policy"):
            SimConfig(policy="flying").validate()

    def test_all_policies_constructible(self):
        for name in ("pfa", "dpfa", "maxci", "rr", "vpfa"):
            s = make_scheduler(name, 4, dpfa=DpfaParams(delta=2.0))
            assert s.name == name
