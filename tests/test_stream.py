"""The two block sources: a run that draws its trace a block at a time and
decides each block as it is drawn, and a run over a trace drawn whole by
``channel_trace``.  Both give the same results and the same errors, and the
streamed run holds one block, not the trace.  So does a comparison, which
decides each block for every policy before it draws the next: it gives what
a run per policy over the trace drawn whole gives.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schedsim.channel import ChannelParams, UserLink, draw_fast_fading, snr
from schedsim.cli import parse_config
from schedsim.engine import BLOCK_ELEMENTS, SimConfig, channel_trace, comparison_configs, run, run_comparison
from schedsim.errors import ConfigError
from schedsim.sched import POLICIES, DpfaParams, VpfaParams


def held_run(config, links=None):
    """``run`` over the whole trace drawn first.  A trace drawn for caller
    links matches no config's placement, so it is relabelled with the config's."""
    trace = channel_trace(config, links)
    if links is not None:
        trace = dataclasses.replace(trace, placement=config.placement)
    return run(config, trace=trace)


def held_comparison(configs):
    """A comparison as a run per config over the trace drawn whole for the first."""
    trace = channel_trace(configs[0])
    return {cfg.policy: run(cfg, trace=trace) for cfg in configs}


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # ConfigError included
        return type(exc), str(exc)


def assert_same_result(a, b):
    assert a.decisions.dtype == b.decisions.dtype and a.decisions.tobytes() == b.decisions.tobytes()
    assert a.metrics.per_user_bits.tobytes() == b.metrics.per_user_bits.tobytes()
    assert a.metrics.schedule_counts.tolist() == b.metrics.schedule_counts.tolist()
    assert a.metrics.system_bits == b.metrics.system_bits
    assert a.fi_series == b.fi_series and a.system_series == b.system_series
    assert a.phase_switch_slot == b.phase_switch_slot
    for x, y in ((a.vpfa_warmup_bits, b.vpfa_warmup_bits), (a.vpfa_variance_counts, b.vpfa_variance_counts)):
        assert (x is None and y is None) or x.tobytes() == y.tobytes()
    assert a.links == b.links


@pytest.mark.parametrize("n_users", [1, 10, 1000])
def test_fading_drawn_in_blocks_is_one_whole_draw(n_users):
    total = 140_000 // n_users
    whole = draw_fast_fading(np.random.default_rng(7), size=(total, n_users))
    for elements in (8192, 32768, 131072):
        rng, rows = np.random.default_rng(7), max(1, elements // n_users)
        blocks = [draw_fast_fading(rng, size=(min(rows, total - t), n_users)) for t in range(0, total, rows)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("fading", [True, False])
def test_a_trace_of_many_blocks_matches_the_whole_draw(fading):
    cfg = SimConfig(n_users=40, total_slots=2000, seed=5, channel=ChannelParams(fast_fading_enabled=fading))
    trace = channel_trace(cfg)  # 819 slots a block: two whole blocks and a part
    rng = np.random.default_rng(cfg.seed)
    rng.normal(0.0, 8.0, size=40)  # the shadowing draws (equal_spacing draws no placement)
    gains = rng.standard_exponential(size=(2000, 40)) if fading else np.ones((2000, 40))
    base = np.array([snr(cfg.channel, link, 1.0) for link in trace.links])
    ch = cfg.channel
    assert trace.snrs.tobytes() == (gains * base).tobytes()
    assert trace.rates.tobytes() == (ch.bandwidth_hz * np.log2(1.0 + gains * base) * ch.slot_duration_s).tobytes()


@st.composite
def stream_cases(draw):
    n = draw(st.integers(1, 40))
    rows = BLOCK_ELEMENTS // n
    total = draw(st.integers(1, min(3 * rows, 3000)))
    if n >= 12 and draw(st.booleans()):  # more than one block, the last one short
        total = draw(st.integers(rows + 1, min(3 * rows, 3000)).filter(lambda t: t % rows))
    cfg = SimConfig(
        n_users=n, total_slots=total, seed=draw(st.integers(0, 50)), policy=draw(st.sampled_from(POLICIES)),
        placement=draw(st.sampled_from(["equal_spacing", "uniform_ring"])),
        tc_mode=draw(st.sampled_from(["fixed", "growing"])),
        dpfa=DpfaParams(alpha=draw(st.sampled_from([1.0, 0.8, 1.5]))),
        vpfa=VpfaParams(s_fi=draw(st.integers(1, 60)), l_sc=draw(st.integers(1, 4))),
    )
    links = None
    if draw(st.booleans()):
        links = [UserLink(k, draw(st.floats(30.0, 1500.0)), draw(st.floats(-30.0, 30.0))) for k in range(n)]
    return cfg, links


class TestStreamedEqualsHeld:
    @pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
    @settings(max_examples=60, deadline=None, database=None)
    @given(stream_cases())
    @example((SimConfig(n_users=BLOCK_ELEMENTS + 1, total_slots=3, policy="vpfa", vpfa=VpfaParams(s_fi=1, l_sc=1)),
              None))  # one slot a block
    @example((SimConfig(n_users=BLOCK_ELEMENTS + 1, total_slots=2, policy="dpfa"), None))
    def test_every_policy_gives_the_same_run(self, case):
        cfg, links = case
        streamed, held = outcome(run, cfg, links=links), outcome(held_run, cfg, links)
        if isinstance(streamed, tuple) or isinstance(held, tuple):
            assert streamed == held
        else:
            assert_same_result(streamed, held)


def assert_same_outcome(lockstep, held):
    """Both comparisons raised the same error, or gave the same runs in the same order."""
    if isinstance(lockstep, tuple) or isinstance(held, tuple):
        assert lockstep == held
    else:
        assert list(lockstep) == list(held)
        for policy in held:
            assert_same_result(lockstep[policy], held[policy])


class TestLockstepEqualsHeld:
    @pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
    @settings(max_examples=40, deadline=None, database=None)
    @given(stream_cases(), st.permutations(POLICIES), st.integers(1, len(POLICIES)))
    @example((SimConfig(n_users=BLOCK_ELEMENTS + 1, total_slots=3, vpfa=VpfaParams(s_fi=1, l_sc=1)), None),
             POLICIES, len(POLICIES))  # one slot a block
    @example((SimConfig(n_users=200, total_slots=600, seed=1, vpfa=VpfaParams(s_fi=7, l_sc=2)), None),
             POLICIES[::-1], len(POLICIES))  # vpfa switches at slot 183, in the second 163-slot block
    def test_every_policy_gives_the_same_runs(self, case, order, count):
        configs = comparison_configs(case[0], list(order[:count]))
        lockstep = outcome(lambda: run_comparison(configs, reference=configs[0].policy).results)
        assert_same_outcome(lockstep, outcome(held_comparison, configs))


def cli_config(*overrides):
    return parse_config("", overrides=list(overrides)), None


def links_config(specs, **kw):
    return SimConfig(**kw), [UserLink(k, d, s) for k, (d, s) in enumerate(specs)]


# the error configs of test_cli and test_engine that reach run: the config, caller links, the trace, the accounting
ERROR_CASES = {
    **{"fading overflows %s" % p: cli_config("policy=" + p, "tx_power_dbm=3090", "shadowing_sigma_db=0",
                                             "total_slots=2000") for p in POLICIES},
    **{"rate overflows %s" % p: cli_config("policy=" + p, "slot_duration_s=1e305", "total_slots=200")
       for p in ("pfa", "rr")},
    "bits overflow pfa": cli_config("policy=pfa", "slot_duration_s=1e298"),
    "bits overflow rr": cli_config("policy=rr", "slot_duration_s=1e298"),
    "bits overflow vpfa": cli_config("policy=vpfa", "n_users=1", "slot_duration_s=1e298"),
    "bits overflow at an evaluation": cli_config("n_users=1000", "total_slots=2000", "placement=uniform_ring",
                                                 "slot_duration_s=1e298"),
    "vpfa zero ledger": cli_config("policy=vpfa", "n_users=3", "total_slots=50", "vpfa_s_fi=1",
                                   "shadowing_sigma_db=400", "seed=8"),
    "vpfa infinite ledger": cli_config("policy=vpfa", "n_users=1", "slot_duration_s=1e298", "vpfa_l_sc=50"),
    "budget underflows": cli_config("tx_power_dbm=-3300"),
    "fading underflows": cli_config("tx_power_dbm=-3150", "shadowing_sigma_db=0"),
    "dpfa alpha": cli_config("policy=dpfa", "dpfa_alpha=60"),
    "zero capacity tx": cli_config("tx_power_dbm=-400"),
    "zero capacity bandwidth": cli_config("bandwidth_hz=1e300"),
    "budget overflows": cli_config("tx_power_dbm=1e308"),
    **{"no bits at an evaluation seed %d" % seed: cli_config("policy=rr", "n_users=3", "total_slots=50",
                                                             "vpfa_s_fi=1", "shadowing_sigma_db=400",
                                                             "seed=%d" % seed) for seed in (4, 5)},
    "zero slots": (SimConfig(total_slots=0), None),
    "non-integer users": (SimConfig(n_users=2.5), None),
    "link count": (SimConfig(n_users=4, total_slots=500, seed=3), [UserLink(0, 500.0, 0.0)]),
    **{"bad link %r %r" % link: links_config([(500.0, 0.0), link], n_users=2, total_slots=10)
       for link in [(np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0), (-3.0, 0.0), (500.0, np.nan), (500.0, np.inf),
                    (500.0, -np.inf)]},
    "shadowing overflows": links_config([(500.0, 0.0), (500.0, 1e308)], n_users=2, total_slots=10),
    "shadowing underflows": links_config([(500.0, 0.0), (500.0, -4000.0)], n_users=2, total_slots=10),
    "distance underflows": links_config([(500.0, 0.0), (1e300, 0.0)], n_users=2, total_slots=10),
    "fading overflows a link": links_config([(500.0, 0.0), (500.0, 3070.0)], n_users=2, total_slots=2000),
    "fading underflows a link": links_config([(500.0, 0.0), (500.0, -3244.0)], n_users=2, total_slots=10),
    "budget overflows at a user": cli_config("tx_power_dbm=4000", "n_users=2", "total_slots=50"),
    "budget overflows with links": links_config([(500.0, 0.0)] * 2, n_users=2, total_slots=50,
                                                channel=ChannelParams(tx_power_dbm=4000.0)),
    # dpfa_delta's reference link, at 60% of the cell radius, overflows too: the trace's error comes first
    "fading overflows, the reference too": cli_config("n_users=1", "shadowing_sigma_db=0", "tx_power_dbm=3124",
                                                      "total_slots=2000"),
    "only the reference overflows": cli_config("n_users=1", "shadowing_sigma_db=0", "tx_power_dbm=3122",
                                               "total_slots=5"),
    "config underflows with links": links_config([(500.0, 0.0)] * 2, n_users=2, total_slots=10,
                                                 channel=ChannelParams(tx_power_dbm=-4000.0)),
    "no bits with links": links_config([(500.0, -400.0 if k < 12 else 0.0) for k in range(14)], policy="rr",
                                       n_users=14, total_slots=30, vpfa=VpfaParams(s_fi=1)),
}

# errors whose winner lies in a later block than the first that fails: 4,096-slot blocks of 8 users
LATER_BLOCK_CASES = {
    # user 0's fading takes its SNR to 0 at slot 9, user 1's past the float range at slot 6713
    "underflow then overflow": (
        links_config([(500.0, -3244.0), (500.0, 3062.0)] + [(500.0, 0.0)] * 6, n_users=8, total_slots=12000),
        "SNR overflows a float: user 1's link has shadowing_db 3062, and the fading at slot 6713"
        " takes its SNR past the float range"),
    # user 1's rates pass the float range from the first block on, user 0's SNR is 0 at slot 4610
    "rate overflow then underflow": (
        links_config([(500.0, -3211.5), (500.0, 50.0)] + [(500.0, 0.0)] * 6, n_users=8, total_slots=12000,
                     channel=ChannelParams(slot_duration_s=1e300)),
        "SNR underflows to 0: user 0's link has shadowing_db -3211.5, and at slot 4610 its SNR is 0"),
    # the first 3,276-slot block's peak, 152,195 bits/slot, already overflows; the trace's is at slot 4179
    "dpfa alpha past the first block": (
        cli_config("policy=dpfa", "dpfa_alpha=60", "seed=2"),
        "dpfa_alpha 60 raises the peak rate, 157672 bits/slot, past the float range"),
}


class TestSameErrorsBothWays:
    @pytest.mark.parametrize("case", list(ERROR_CASES.values()), ids=list(ERROR_CASES))
    def test_error_configs(self, case):
        cfg, links = case
        streamed = outcome(run, cfg, links=links)
        assert isinstance(streamed, tuple), "ran without an error"
        assert streamed == outcome(held_run, cfg, links)

    @pytest.mark.parametrize("case,message", list(LATER_BLOCK_CASES.values()), ids=list(LATER_BLOCK_CASES))
    def test_the_error_of_a_later_block_wins(self, case, message):
        cfg, links = case
        streamed = outcome(run, cfg, links=links)
        assert streamed == outcome(held_run, cfg, links)
        assert streamed[1] == message


# the comparisons of every entry above without caller links, which a comparison does not take
DRAWN_ERROR_CASES = {name: cfg for name, (cfg, links) in
                     [*ERROR_CASES.items(), *((name, case) for name, (case, _) in LATER_BLOCK_CASES.items())]
                     if links is None}


class TestSameErrorsInLockstep:
    # each list holds dpfa, rr and vpfa, the policies that some case fails alone
    @pytest.mark.parametrize("policies", [POLICIES, POLICIES[::-1], ("vpfa", "rr", "dpfa")], ids="-".join)
    @pytest.mark.parametrize("cfg", list(DRAWN_ERROR_CASES.values()), ids=list(DRAWN_ERROR_CASES))
    def test_error_configs(self, cfg, policies):
        configs = comparison_configs(cfg, list(policies))
        held = outcome(held_comparison, configs)
        assert isinstance(held, tuple), "ran without an error"
        assert outcome(run_comparison, configs, policies[0]) == held

    def test_one_config_names_one_link(self):
        cfg, _ = ERROR_CASES["budget overflows at a user"]
        errors = {outcome(fn) for fn in (lambda: run(cfg), lambda: channel_trace(cfg),
                                         lambda: run_comparison(comparison_configs(cfg, list(POLICIES))))}
        assert errors == {(ConfigError, "SNR overflows a float: tx_power_dbm 4000 puts the received power"
                                        " 3965.82 dB above the noise floor")}


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
def test_a_run_holds_one_block_not_the_trace():
    for policy in ("pfa", "dpfa"):  # dpfa also holds its block's timers and exponents
        run(SimConfig(n_users=200, total_slots=10, policy=policy))  # imports and caches that a first run loads
        peaks = {total: traced_peak(run, SimConfig(n_users=200, total_slots=total, policy=policy))
                 for total in (2000, 8000)}
        for total, peak in peaks.items():
            assert peak < 200 * total * 16 / 4, policy  # the SNR and rate matrices take 200 * total * 16 bytes
        # the matrices would grow by 19.2 MB; the decisions, the served rates and their sums grow by ~0.15 MB
        assert peaks[8000] - peaks[2000] < 200 * 6000 * 16 / 32, policy


@pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
def test_a_comparison_holds_one_block_not_the_trace():
    def compare(total):
        run_comparison(comparison_configs(SimConfig(n_users=200, total_slots=total), list(POLICIES)))

    compare(10)
    peaks = {total: traced_peak(compare, total) for total in (2000, 8000)}
    for total, peak in peaks.items():
        assert peak < 200 * total * 16 / 4, total
    # five policies' decisions and served rates grow by ~0.36 MB
    assert peaks[8000] - peaks[2000] < 200 * 6000 * 16 / 32
