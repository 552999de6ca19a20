import dataclasses

import numpy as np
import pytest

from schedsim.channel import ChannelParams, UserLink, snr
from schedsim.engine import (
    SimConfig,
    channel_trace,
    comparison_configs,
    resolve_delta,
    resolved_config,
    run,
    run_comparison,
)
from schedsim.errors import ConfigError
from schedsim.sched import VpfaParams


def small_config(**kw):
    defaults = dict(n_users=4, total_slots=500, seed=3)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestValidation:
    def test_zero_slots_rejected(self):
        with pytest.raises(ConfigError):
            run(small_config(total_slots=0))

    def test_zero_users_rejected(self):
        with pytest.raises(ConfigError):
            run(small_config(n_users=0))

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            run(small_config(policy="flying"))

    def test_link_count_must_match_n_users(self):
        with pytest.raises(ConfigError, match="links"):
            run(small_config(n_users=4), links=[UserLink(0, 500.0, 0.0)])


class TestNoBitsDelivered:
    def test_error_names_the_slot_and_the_zero_rate_users(self):
        # a 400 dB shadowing loss zeroes users 0-11; round robin serves user 0 first
        links = [UserLink(k, 500.0, -400.0 if k < 12 else 0.0) for k in range(14)]
        cfg = SimConfig(policy="rr", n_users=14, total_slots=30, vpfa=VpfaParams(s_fi=1))
        with pytest.raises(ConfigError, match=r"^fairness index undefined at slot 1: no bits were delivered yet; "
                                              r"users with rate 0 in every slot so far: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9 "
                                              r"and 2 more$"):
            run(cfg, links=links)

    def test_a_later_evaluation_with_bits_passes(self):
        links = [UserLink(0, 500.0, -400.0), UserLink(1, 500.0, 0.0)]
        res = run(SimConfig(policy="rr", n_users=2, total_slots=30, vpfa=VpfaParams(s_fi=2)), links=links)
        assert res.fi_series[0] == (2, 0.5)


class TestDeterminism:
    def test_same_config_bit_identical(self):
        a = run(small_config(policy="pfa"))
        b = run(small_config(policy="pfa"))
        assert np.array_equal(a.decisions, b.decisions)
        assert np.array_equal(a.metrics.per_user_bits, b.metrics.per_user_bits)
        assert a.fi_series == b.fi_series
        assert a.system_series == b.system_series

    def test_different_seed_differs(self):
        a = run(small_config(seed=1))
        b = run(small_config(seed=2))
        assert not np.array_equal(a.decisions, b.decisions)


class TestChannelIsolation:
    def test_rate_matrix_is_policy_independent(self):
        base = small_config(policy="pfa")
        other = dataclasses.replace(base, policy="maxci")
        a, b = channel_trace(base), channel_trace(other)
        assert [l.distance_m for l in a.links] == [l.distance_m for l in b.links]
        assert [l.shadowing_db for l in a.links] == [l.shadowing_db for l in b.links]
        assert np.array_equal(a.snrs, b.snrs)
        assert np.array_equal(a.rates, b.rates)

    def test_caller_links_fading_starts_at_stream_head(self):
        # no placement or shadowing draws precede the fading matrix
        cfg = small_config()
        links = [UserLink(k, 300.0 + 100.0 * k, 0.0) for k in range(4)]
        trace = channel_trace(cfg, links)
        gains = np.random.default_rng(cfg.seed).exponential(1.0, size=(cfg.total_slots, 4))
        base = np.array([snr(cfg.channel, link, 1.0) for link in links])
        assert np.array_equal(trace.snrs, gains * base)

    @pytest.mark.parametrize("fading", [True, False])
    def test_matrices_match_out_of_place_formulas(self, fading):
        # the trace is built in place; it must equal the plain expressions
        cfg = small_config(channel=ChannelParams(fast_fading_enabled=fading))
        trace = channel_trace(cfg)
        rng = np.random.default_rng(cfg.seed)
        rng.normal(0.0, 8.0, size=4)  # the shadowing draws (equal_spacing draws no placement)
        gains = rng.exponential(1.0, size=(500, 4)) if fading else np.ones((500, 4))
        base = np.array([snr(cfg.channel, link, 1.0) for link in trace.links])
        ch = cfg.channel
        assert np.array_equal(trace.snrs, gains * base)
        assert np.array_equal(
            trace.rates, ch.bandwidth_hz * np.log2(1.0 + gains * base) * ch.slot_duration_s
        )

    def test_per_slot_snr_positive(self):
        trace = channel_trace(small_config())
        assert np.all(trace.snrs > 0)
        assert np.all(trace.rates > 0)


class TestSharedTrace:
    def test_trace_reproduces_own_draw(self):
        cfg = small_config(policy="dpfa")
        a, b = run(cfg), run(cfg, trace=channel_trace(cfg))
        assert np.array_equal(a.decisions, b.decisions)
        assert np.array_equal(a.metrics.per_user_bits, b.metrics.per_user_bits)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", 4),
            ("n_users", 5),
            ("total_slots", 499),
            ("placement", "uniform_ring"),
            ("channel", ChannelParams(tx_power_dbm=40.0)),
        ],
    )
    def test_mismatched_trace_rejected(self, field, value):
        trace = channel_trace(small_config())
        with pytest.raises(ConfigError, match="trace was drawn for %s" % field):
            run(small_config(**{field: value}), trace=trace)

    def test_caller_links_trace_matches_no_config(self):
        links = [UserLink(k, 300.0 + 100.0 * k, 0.0) for k in range(4)]
        trace = channel_trace(small_config(), links)
        with pytest.raises(ConfigError, match="placement"):
            run(small_config(), trace=trace)

    def test_links_and_trace_together_rejected(self):
        cfg = small_config()
        links = [UserLink(k, 500.0, 0.0) for k in range(4)]
        with pytest.raises(ConfigError, match="not both"):
            run(cfg, links=links, trace=channel_trace(cfg))

    def test_trace_fields_are_frozen(self):
        trace = channel_trace(small_config())
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.seed = 4

    def test_comparison_draws_the_trace_once(self, monkeypatch):
        import schedsim.engine as engine

        drawn = []
        original = engine.channel_trace
        monkeypatch.setattr(engine, "channel_trace", lambda *a: drawn.append(a) or original(*a))
        comp = run_comparison(comparison_configs(small_config(), ["pfa", "dpfa", "rr"]))
        assert len(drawn) == 1
        for policy in ("pfa", "dpfa", "rr"):
            alone = run(small_config(policy=policy))
            assert np.array_equal(comp.results[policy].decisions, alone.decisions)
            assert comp.results[policy].system_series == alone.system_series


class TestEqualRateFairness:
    def test_pfa_degenerates_to_equal_time_sharing(self):
        n, total = 10, 20_000
        cfg = SimConfig(
            channel=ChannelParams(fast_fading_enabled=False),
            n_users=n,
            total_slots=total,
            policy="pfa",
        )
        links = [UserLink(k, 700.0, 0.0) for k in range(n)]
        res = run(cfg, links=links)
        counts = res.metrics.schedule_counts
        assert np.all(np.abs(counts - total / n) <= 0.02 * total / n)


class TestAccounting:
    @pytest.mark.parametrize("policy", ["pfa", "dpfa", "maxci", "rr", "vpfa"])
    def test_per_user_bits_sum_to_system(self, policy):
        res = run(small_config(policy=policy))
        assert res.metrics.per_user_bits.sum() == pytest.approx(
            res.metrics.system_bits, rel=1e-12
        )
        assert res.metrics.schedule_counts.sum() == res.config.total_slots

    def test_fi_series_sampled_on_cadence_and_at_end(self):
        res = run(small_config(total_slots=350))  # s_fi = 100 default
        slots = [s for s, _ in res.fi_series]
        assert slots == [100, 200, 300, 350]
        assert res.system_series[-1][1] == pytest.approx(res.metrics.system_bits)

    def test_per_user_rows_shape(self):
        res = run(small_config())
        rows = res.per_user_rows()
        assert len(rows) == 4
        uid, dist, count, bits = rows[0]
        assert uid == 0 and dist > 0 and count >= 0 and bits >= 0


class TestResolvedConfig:
    def test_delta_filled_from_link_budget(self):
        cfg = small_config()
        assert cfg.dpfa.delta is None
        rc = resolved_config(cfg)
        assert rc.dpfa.delta == pytest.approx(resolve_delta(cfg.channel))
        assert cfg.dpfa.delta is None  # original untouched

    def test_explicit_delta_kept(self):
        cfg = small_config()
        cfg.dpfa.delta = 7.5
        assert resolved_config(cfg).dpfa.delta == 7.5

    def test_delta_reference_point(self):
        # deterministic SNR at 60% of a 1 km cell under default budget
        ch = ChannelParams()
        d = resolve_delta(ch)
        assert d > 0
        ref = UserLink(0, 600.0, 0.0)
        from schedsim.channel import snr

        assert d == snr(ch, ref, 1.0)


class TestVpfaPhaseMachine:
    def toy_config(self, s_fi, l_sc, total=60):
        return SimConfig(
            channel=ChannelParams(fast_fading_enabled=False),
            n_users=2,
            total_slots=total,
            policy="vpfa",
            vpfa=VpfaParams(s_fi=s_fi, l_sc=l_sc),
        )

    def equal_links(self):
        return [UserLink(0, 700.0, 0.0), UserLink(1, 700.0, 0.0)]

    def test_immediate_switch_fires_on_first_evaluation(self):
        # L_sc=1, S_fi=1: the cold-start branch sets the counter to its
        # target at slot 1, so slot 2 is the first variance-phase slot
        res = run(self.toy_config(1, 1), links=self.equal_links())
        assert res.phase_switch_slot == 2

    def test_switch_slot_matches_independent_replay(self):
        # replay the published control flow over the engine's own FI series
        s_fi, l_sc = 1, 3
        res = run(self.toy_config(s_fi, l_sc), links=self.equal_links())
        c_s, last = 0, None
        expected_switch = None
        for slot, fi in res.fi_series:
            if slot % s_fi != 0:
                continue
            if c_s == 0:
                c_s = 1
            elif abs(last - fi) < 0.01:
                c_s += 1
            else:
                c_s = 0
            last = fi
            if c_s == l_sc:
                expected_switch = slot + 1
                break
        assert expected_switch is not None
        assert res.phase_switch_slot == expected_switch

    def test_no_switch_recorded_for_other_policies(self):
        res = run(small_config(policy="pfa"))
        assert res.phase_switch_slot is None

    def test_warmup_decisions_match_pfa(self):
        cfg = small_config(policy="vpfa", total_slots=2000, n_users=5)
        ref = dataclasses.replace(cfg, policy="pfa")
        res_v, res_p = run(cfg), run(ref)
        assert res_v.phase_switch_slot is not None
        upto = res_v.phase_switch_slot - 1
        assert np.array_equal(res_v.decisions[:upto], res_p.decisions[:upto])

    def test_variance_counters_recorded(self):
        cfg = small_config(policy="vpfa", total_slots=2000, n_users=5)
        res = run(cfg)
        assert res.vpfa_warmup_bits is not None
        assert res.vpfa_variance_counts is not None
        assert res.vpfa_variance_counts.sum() == cfg.total_slots - (res.phase_switch_slot - 1)


class TestComparison:
    def test_reference_drop_is_zero(self):
        cfgs = comparison_configs(small_config(), ["pfa", "maxci"])
        comp = run_comparison(cfgs, reference="pfa")
        row = next(r for r in comp.summary if r.policy == "pfa")
        assert row.drop_pct_vs_reference == 0.0

    def test_drop_percentage_formula(self):
        cfgs = comparison_configs(small_config(total_slots=3), ["pfa", "rr"])
        comp = run_comparison(cfgs, reference="pfa")
        t_ref = comp.results["pfa"].metrics.system_bits
        t_rr = comp.results["rr"].metrics.system_bits
        row = next(r for r in comp.summary if r.policy == "rr")
        assert row.drop_pct_vs_reference == pytest.approx((t_ref - t_rr) / t_ref * 100.0)

    def test_identical_decision_sequences_identical_rows(self):
        from schedsim.sched import DpfaParams

        base = small_config()
        forced = dataclasses.replace(base, policy="dpfa", dpfa=DpfaParams(beta_override=1.0))
        comp = run_comparison([base, forced], reference="pfa")
        assert np.array_equal(comp.results["pfa"].decisions, comp.results["dpfa"].decisions)
        rows = {r.policy: r for r in comp.summary}
        assert rows["pfa"].fi == rows["dpfa"].fi
        assert rows["pfa"].system_bits == rows["dpfa"].system_bits

    def test_mismatched_shared_fields_rejected(self):
        a = small_config(policy="pfa")
        b = small_config(policy="rr", seed=99)
        with pytest.raises(ConfigError):
            run_comparison([a, b])

    def test_mismatched_channel_rejected(self):
        a = small_config(policy="pfa")
        b = small_config(policy="rr")
        b.channel = ChannelParams(tx_power_dbm=40.0)
        with pytest.raises(ConfigError):
            run_comparison([a, b])

    def test_unknown_reference_rejected(self):
        cfgs = comparison_configs(small_config(), ["pfa", "rr"])
        with pytest.raises(ConfigError):
            run_comparison(cfgs, reference="vpfa")

    def test_duplicate_policy_rejected(self):
        cfgs = comparison_configs(small_config(), ["pfa", "pfa"])
        with pytest.raises(ConfigError):
            run_comparison(cfgs)
