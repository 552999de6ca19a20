import dataclasses

import numpy as np
import pytest

import schedsim
import schedsim.engine as engine
from schedsim.channel import ChannelParams, UserLink, snr
from schedsim.cli import parse_config, render_config
from schedsim.engine import (
    SimConfig,
    comparison_configs,
    resolve_delta,
    resolved_config,
    run,
    run_comparison,
)
from schedsim.errors import ConfigError
from schedsim.sched import DpfaParams, VpfaParams
from test_properties import least_served_oracle
from whole_trace import whole_trace


def test_exported_names_are_pinned():
    # the scheduler layer and the rate map take their inputs unchecked, from
    # the trace source; exporting one of them must be a deliberate change
    assert schedsim.__all__ == ["ChannelParams", "ConfigError", "DpfaParams", "MetricsLog", "SimConfig", "SimResult",
                                "UserLink", "VpfaParams", "jain_index", "run", "run_comparison"]
    for name in ("Scheduler", "make_scheduler", "select", "instantaneous_rate", "fi_stability_update"):
        assert name not in schedsim.__all__
    assert all(hasattr(schedsim, name) for name in schedsim.__all__)


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

    @pytest.mark.parametrize("policy", ["pfa", "dpfa", "maxci", "rr", "vpfa"])
    @pytest.mark.parametrize("distance, shadowing", [
        (np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0), (-3.0, 0.0),
        (500.0, np.nan), (500.0, np.inf), (500.0, -np.inf),
    ])
    def test_bad_caller_link_rejected(self, policy, distance, shadowing):
        links = [UserLink(k, 500.0, 0.0) for k in range(4)]
        links[2] = UserLink(2, distance, shadowing)
        with pytest.raises(ConfigError, match=r"^user 2's link needs a finite distance_m > 0 and a finite"):
            run(small_config(policy=policy), links=links)

    @pytest.mark.parametrize("link, message", [
        (UserLink(1, 500.0, 1e308), "SNR overflows a float: user 1's link has shadowing_db 1e+308,"
                                    " which takes its link-budget SNR past the float range"),
        (UserLink(1, 500.0, -4000.0), "SNR underflows to 0: user 1's link has shadowing_db -4000,"
                                      " which takes its link-budget SNR below the float range"),
        (UserLink(1, 1e300, 0.0), "SNR underflows to 0: user 1's link has distance_m 1e+300,"
                                  " which takes its link-budget SNR below the float range"),
        # the link-budget SNR is in range, and the largest fading gain takes it out
        (UserLink(1, 500.0, 3070.0), "SNR overflows a float: user 1's link has shadowing_db 3070,"
                                     " which takes its SNR at the largest fading gain, 44.4339, past the float range"),
    ], ids=["shadowing overflows", "shadowing underflows", "distance underflows", "fading overflows"])
    def test_caller_link_that_puts_the_snr_out_of_range_is_named(self, link, message):
        with pytest.raises(ConfigError) as err:
            run(SimConfig(n_users=2, total_slots=10), links=[UserLink(0, 500.0, 0.0), link])
        assert str(err.value) == message

    @pytest.mark.parametrize("tx_power_dbm, message", [
        (4000.0, "SNR overflows a float: tx_power_dbm 4000 takes user 0's link-budget SNR past the float range"),
        (-4000.0, "SNR underflows to 0: tx_power_dbm -4000 takes user 0's link-budget SNR below the float range"),
    ])
    def test_config_that_puts_the_snr_out_of_range_is_named_with_caller_links(self, tx_power_dbm, message):
        cfg = SimConfig(n_users=2, total_slots=10, channel=ChannelParams(tx_power_dbm=tx_power_dbm))
        with pytest.raises(ConfigError) as err:
            run(cfg, links=[UserLink(0, 500.0, 0.0), UserLink(1, 500.0, 0.0)])
        assert str(err.value) == message

    @pytest.mark.parametrize("key", ["n_users", "total_slots", "seed", "dpfa_theta", "vpfa_s_fi", "vpfa_l_sc"])
    @pytest.mark.parametrize("value", [2.5, 4.0, "4", True])
    def test_non_integer_count_rejected(self, key, value):
        part = {"dpfa_theta": dict(dpfa=DpfaParams(theta=value)), "vpfa_s_fi": dict(vpfa=VpfaParams(s_fi=value)),
                "vpfa_l_sc": dict(vpfa=VpfaParams(l_sc=value))}.get(key, {key: value})
        with pytest.raises(ConfigError, match="^%s must be an integer, got " % key):
            small_config(**part)

    @pytest.mark.parametrize("part, key", [
        (dict(channel=ChannelParams(fast_fading_enabled="false")), "fast_fading"),
        (dict(channel=ChannelParams(fast_fading_enabled=1)), "fast_fading"),
        (dict(channel=ChannelParams(fast_fading_enabled=np.bool_(True))), "fast_fading"),
        (dict(vpfa=VpfaParams(signed_stability=1)), "vpfa_signed_stability"),
        (dict(tc_slots=True), "tc_slots"),
        (dict(channel=ChannelParams(tx_power_dbm=True)), "tx_power_dbm"),
        (dict(channel=ChannelParams(ue_height_m=True)), "ue_height_m"),
        (dict(channel=ChannelParams(carrier_freq_mhz="2000")), "carrier_freq_mhz"),
        (dict(dpfa=DpfaParams(delta=True)), "dpfa_delta"),
        (dict(channel=ChannelParams(tx_power_dbm=np.float32(46.3))), "tx_power_dbm"),
        (dict(channel=ChannelParams(tx_power_dbm=10 ** 400)), "tx_power_dbm"),
        (dict(tc_slots=10 ** 400), "tc_slots"),
    ], ids=["fading str", "fading int", "fading numpy bool", "signed stability int", "tc_slots bool",
            "tx_power bool", "ue_height bool", "carrier str", "delta bool", "tx_power float32", "tx_power 10**400",
            "tc_slots 10**400"])
    def test_field_of_the_wrong_type_rejected(self, part, key):
        # each would run, and write a config.txt line that does not parse back or runs differently
        with pytest.raises(ConfigError, match="^%s must be (true or false|a float or an int|finite), got " % key):
            small_config(**part)

    def test_float_fields_take_ints_and_float64(self):
        cfg = small_config(tc_slots=np.float64(500.0), channel=ChannelParams(tx_power_dbm=46, ue_height_m=np.float64(2)),
                           dpfa=DpfaParams(alpha=1, delta=np.float64(3.5)))
        assert parse_config(render_config(cfg)) == cfg
        assert run(cfg).decisions.tobytes() == run(parse_config(render_config(cfg))).decisions.tobytes()

    def test_numpy_int_counts_accepted(self):
        cfg = small_config(n_users=np.int64(4), total_slots=np.int32(50), seed=np.uint8(3),
                           dpfa=DpfaParams(theta=np.int64(20)), vpfa=VpfaParams(s_fi=np.int16(10), l_sc=np.int64(5)))
        cfg.validate()
        assert np.array_equal(run(cfg).decisions, run(small_config(total_slots=50, vpfa=VpfaParams(s_fi=10))).decisions)

    @pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
    def test_trace_validates_the_channel_once(self, monkeypatch):
        # the trace source checks no field again; resolved_config's dataclasses.replace, which fills in the
        # default dpfa_delta, is the one validation a run makes
        cfg, calls = SimConfig(n_users=1000, total_slots=2), []
        validate = ChannelParams.validate
        monkeypatch.setattr(ChannelParams, "validate", lambda self: calls.append(1) or validate(self))
        assert run(cfg).decisions.shape == (2,)
        assert len(calls) == 1


class TestNoBitsDelivered:
    def test_error_names_the_slot_and_the_zero_rate_users(self):
        # a 400 dB shadowing loss zeroes users 0-11; round robin serves user 0 first
        links = [UserLink(k, 500.0, -400.0 if k < 12 else 0.0) for k in range(14)]
        cfg = SimConfig(policy="rr", n_users=14, total_slots=30, vpfa=VpfaParams(s_fi=1))
        with pytest.raises(ConfigError, match=r"^fairness index undefined at slot 1: no bits were delivered yet; "
                                              r"users with rate 0 in every slot so far: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9 "
                                              r"and 2 more$"):
            run(cfg, links=links)

    @pytest.mark.parametrize("policy", ["pfa", "vpfa"])
    def test_bits_whose_squares_underflow_are_indexed_rescaled(self, policy):
        # 1e-300 s slots deliver at most ~1.5e-292 bits a slot, so every square, and their sum, is 0
        res = run(SimConfig(policy=policy, total_slots=300, channel=ChannelParams(slot_duration_s=1e-300)))
        bits = np.zeros(res.config.n_users)
        served = whole_trace(res.config)[2][np.arange(300), res.decisions]
        for (stop, fi), start in zip(res.fi_series, (0, 100, 200)):
            np.add.at(bits, res.decisions[start:stop], served[start:stop])
            assert 0 < bits.max() and np.dot(bits, bits) == 0
            scaled = bits / bits.max()
            assert fi == min(1.0, max(1.0 / len(bits), scaled.sum() ** 2 / (len(bits) * np.dot(scaled, scaled))))

    def test_a_user_whose_first_rate_comes_after_the_evaluation_is_listed(self):
        # user 1's rate is 0 in slots 1 and 2 and > 0 in slot 3; users 0 and 2 have none
        links = [UserLink(0, 500.0, -400.0), UserLink(1, 500.0, -170.0), UserLink(2, 500.0, -400.0)]
        cfg = SimConfig(policy="rr", n_users=3, total_slots=30, seed=25, vpfa=VpfaParams(s_fi=2))
        rates = whole_trace(cfg, links)[2][:3, 1]
        assert rates[0] == rates[1] == 0 < rates[2]
        with pytest.raises(ConfigError, match=r"^fairness index undefined at slot 2: no bits were delivered yet; "
                                              r"users with rate 0 in every slot so far: 0, 1, 2$"):
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
    # each test reads the engine's own output, the rate each decision served, against a whole draw;
    # maxci serves each slot's largest rate and round robin each user in turn
    def test_rate_matrix_is_policy_independent(self):
        links, _, rates = whole_trace(small_config())
        for policy in ("pfa", "maxci", "rr"):
            (share,) = engine._decide([small_config(policy=policy)])
            assert share.links == links
            assert share.served.tobytes() == rates[np.arange(500), share.decisions].tobytes()

    def test_caller_links_fading_starts_at_stream_head(self):
        # no placement or shadowing draws precede the fading matrix
        cfg = small_config(policy="maxci")
        links = [UserLink(k, 300.0 + 100.0 * k, 0.0) for k in range(4)]
        gains = np.random.default_rng(cfg.seed).exponential(1.0, size=(cfg.total_slots, 4))
        snrs = gains * np.array([snr(cfg.channel, link, 1.0) for link in links])
        ch = cfg.channel
        (share,) = engine._decide([cfg], links)
        assert np.array_equal(share.decisions, snrs.argmax(axis=1))
        assert np.array_equal(share.served, (ch.bandwidth_hz * np.log2(1.0 + snrs) * ch.slot_duration_s).max(axis=1))

    @pytest.mark.parametrize("fading", [True, False])
    def test_matrices_match_out_of_place_formulas(self, fading):
        # the trace is built in place, a block at a time; it must equal the plain expressions
        rng = np.random.default_rng(3)
        rng.normal(0.0, 8.0, size=4)  # the shadowing draws (equal_spacing draws no placement)
        gains = rng.exponential(1.0, size=(500, 4)) if fading else np.ones((500, 4))
        for policy in ("maxci", "rr"):
            cfg = small_config(policy=policy, channel=ChannelParams(fast_fading_enabled=fading))
            (share,) = engine._decide([cfg])
            ch = cfg.channel
            base = np.array([snr(ch, link, 1.0) for link in share.links])
            rates = ch.bandwidth_hz * np.log2(1.0 + gains * base) * ch.slot_duration_s
            assert np.array_equal(share.served, rates[np.arange(500), share.decisions])

    def test_per_slot_snr_positive(self):
        _, snrs, rates = whole_trace(small_config())
        assert np.all(snrs > 0)
        assert np.all(rates > 0)
        (share,) = engine._decide([small_config(policy="rr")])
        assert np.array_equal(share.served, rates[np.arange(500), share.decisions])


class TestSharedTrace:
    def test_trace_reproduces_own_draw(self, monkeypatch):
        import schedsim.engine as engine

        cfg = small_config(policy="dpfa")
        a = run(cfg)
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 4 * 500)  # the whole trace in one block, one draw
        b = run(cfg)
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
        # a comparison shares one trace, so a config that trace was not drawn for is rejected
        with pytest.raises(ConfigError, match="compared configs must share '%s'" % field):
            run_comparison([small_config(), small_config(policy="rr", **{field: value})])

    def test_assigning_a_config_field_raises(self):
        # compared configs share the base's parts, which no config can change
        base = small_config()
        cfg = comparison_configs(base, ["pfa", "dpfa", "vpfa"])[1]
        assert (cfg.channel, cfg.dpfa, cfg.vpfa) == (base.channel, base.dpfa, base.vpfa)
        for owner, attr, value in ((cfg, "policy", "rr"), (cfg.channel, "tx_power_dbm", 40.0),
                                   (cfg.dpfa, "alpha", 2.0), (cfg.vpfa, "s_fi", 7)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(owner, attr, value)
        assert base == small_config() and cfg == small_config(policy="dpfa")

    def test_replacing_a_field_checks_the_config(self):
        with pytest.raises(ConfigError, match=r"^total_slots must be >= 1 and <= \d+, got 0$"):
            dataclasses.replace(small_config(), total_slots=0)

    def test_comparison_draws_the_trace_once(self, monkeypatch):
        import schedsim.engine as engine

        drawn = []
        original = engine.draw_fast_fading
        monkeypatch.setattr(engine, "draw_fast_fading",
                            lambda rng, size, out: drawn.append(size) or original(rng, size, out))
        comp = run_comparison(comparison_configs(small_config(), ["pfa", "dpfa", "rr"]))
        assert sum(rows * users for rows, users in drawn) == 500 * 4  # every (slot, user) sample once
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
        cfg = small_config(dpfa=DpfaParams(delta=7.5))
        assert resolved_config(cfg).dpfa.delta == 7.5

    def test_delta_reference_point(self):
        # deterministic SNR at 60% of a 1 km cell under default budget
        ch = ChannelParams()
        d = resolve_delta(ch)
        assert d > 0
        ref = UserLink(0, 600.0, 0.0)
        from schedsim.channel import snr

        assert d == snr(ch, ref, 1.0)

    @pytest.mark.parametrize("policy", ["pfa", "dpfa", "rr"])
    def test_default_delta_past_the_float_range_fails_every_policy(self, policy):
        # the caller's link is in range, the reference at 600 m is not; an inf delta would not parse back
        cfg = SimConfig(n_users=1, total_slots=10, policy=policy, channel=ChannelParams(tx_power_dbm=3125))
        with pytest.raises(ConfigError, match=r"^SNR overflows a float: tx_power_dbm 3125 takes the default"
                                              r" dpfa_delta, the SNR at 0\.6 x cell_radius_m, past the float range$"):
            run(cfg, links=[UserLink(0, 1e9, 0.0)])
        cfg = dataclasses.replace(cfg, dpfa=DpfaParams(delta=1.0))
        assert run(cfg, links=[UserLink(0, 1e9, 0.0)]).config.dpfa.delta == 1.0


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

    @pytest.mark.parametrize("seed", range(3))
    def test_a_switch_at_the_last_evaluation_is_none(self, seed):
        # the counter reaches l_sc at slot 20,000, the run's last evaluation, so no variance-phase slot follows:
        # the run reports no switch, as one that never switched, and its decisions are the warm-up's, pfa's
        cfg = SimConfig(policy="vpfa", seed=seed, vpfa=VpfaParams(s_fi=1000, l_sc=20))
        (decided,) = engine._decide([cfg])
        assert decided.scheduler.switch_slot == cfg.total_slots + 1
        res = run(cfg, decided=decided)
        assert res.phase_switch_slot is res.vpfa_warmup_bits is res.vpfa_variance_counts is None
        assert np.array_equal(res.decisions, run(dataclasses.replace(cfg, policy="pfa")).decisions)

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

    @pytest.mark.parametrize("policy", ["pfa", "dpfa", "maxci", "rr"])
    def test_no_switch_recorded_for_other_policies(self, policy):
        # only vpfa's scheduler evaluates the fairness index, and only it switches
        res = run(small_config(policy=policy))
        assert res.phase_switch_slot is None
        assert res.vpfa_warmup_bits is None and res.vpfa_variance_counts is None

    def test_warmup_decisions_match_pfa(self):
        cfg = small_config(policy="vpfa", total_slots=2000, n_users=5)
        ref = dataclasses.replace(cfg, policy="pfa")
        res_v, res_p = run(cfg), run(ref)
        assert res_v.phase_switch_slot is not None
        upto = res_v.phase_switch_slot - 1
        assert np.array_equal(res_v.decisions[:upto], res_p.decisions[:upto])

    WIDE_CELL = dict(n_users=1000, placement="uniform_ring", total_slots=5000, vpfa=VpfaParams(s_fi=10))

    @pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")  # wide_cell seed 2 draws one
    @pytest.mark.parametrize("seed,wide", [(s, False) for s in range(10)] + [(s, True) for s in range(3)])
    def test_warmup_bits_equal_bits_recomputed_from_decisions(self, seed, wide):
        # the scheduler's ledger at the switch is the log's per-user bits, summed in slot order
        cfg = SimConfig(policy="vpfa", seed=seed, **(self.WIDE_CELL if wide else {}))
        res = run(cfg)
        assert res.phase_switch_slot is not None
        served = res.decisions[:res.phase_switch_slot - 1]
        bits = np.zeros(cfg.n_users)
        np.add.at(bits, served, whole_trace(cfg)[2][np.arange(len(served)), served])
        assert res.vpfa_warmup_bits.tobytes() == bits.tobytes()

    @pytest.mark.parametrize("seed,users", [(0, None), (1, None), (2, None), (0, 200)],
                             ids=["seed0", "seed1", "seed2", "200_users"])
    def test_variance_phase_matches_least_served_oracle(self, seed, users):
        # a plain least-served scan from the bits at the switch makes the
        # run's variance-phase decisions and ends on the log's per-user bits
        wide = dict(n_users=users, placement="uniform_ring", total_slots=2000, vpfa=VpfaParams(s_fi=10))
        cfg = SimConfig(policy="vpfa", seed=seed, **(wide if users else {}))
        res = run(cfg)
        switch = res.phase_switch_slot
        assert switch is not None
        decisions, bits = least_served_oracle(res.vpfa_warmup_bits, whole_trace(cfg)[2][switch - 1:])
        assert np.array_equal(res.decisions[switch - 1:], decisions)
        assert bits.tobytes() == res.metrics.per_user_bits.tobytes()

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
        b = small_config(policy="rr", channel=ChannelParams(tx_power_dbm=40.0))
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
