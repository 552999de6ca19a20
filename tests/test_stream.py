"""One trace path, checked before the draw.  A run draws its trace a block
at a time and decides each block as it is drawn: at one slot a block, or
with the whole trace in one block (one ``draw_fast_fading`` call, as
the whole-trace reference draws it), it gives the same results and the same
errors bit for bit, and it holds one block, not the trace.  So does a
comparison, which decides each block for every policy before it draws the
next: it gives what a run per policy gives, except that every config's own
check comes before the first draw.  A config whose SNRs, rates or
bits could leave the float range, or whose rates are all 0, fails before
the first draw, with the same message for every seed.
"""
import dataclasses
import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schedsim.engine as engine
from schedsim.channel import ChannelParams, UserLink, draw_fast_fading, instantaneous_rate, snr
from schedsim.cli import parse_config
from schedsim.engine import BLOCK_ELEMENTS, SimConfig, comparison_configs, run, run_comparison
from schedsim.errors import ConfigError
from schedsim.sched import POLICIES, DpfaParams, VpfaParams
from whole_trace import whole_trace


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # ConfigError included
        return type(exc), str(exc)


def at_block_size(elements, fn, *args, **kwargs):
    """``fn``'s outcome with blocks of at most ``elements`` (slot, user) elements."""
    with mock.patch.object(engine, "BLOCK_ELEMENTS", elements):
        return outcome(fn, *args, **kwargs)


def block_sizes(cfg):
    """The whole trace in one block and, where the trace is short, one slot a block.  A config that cannot
    be made (see :func:`built`) draws no trace, so one size stands for all."""
    if callable(cfg):
        return [1]
    whole = max(1, int(cfg.n_users * cfg.total_slots))
    return [whole, 1] if cfg.total_slots <= 300 else [whole]


def serial_runs(configs):
    """A comparison as a run per config, in config order."""
    return {cfg.policy: run(cfg) for cfg in configs}


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


def assert_same_outcome(a, b):
    """Both raised the same error, or gave the same run, or the same runs in the same order."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for policy in a:
            assert_same_result(a[policy], b[policy])
    else:
        assert_same_result(a, b)


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
    # 819 slots a block: two whole blocks and a part.  maxci serves each slot's largest rate and round robin
    # each user in turn, so between them every block's rates are read
    cfg = SimConfig(n_users=40, total_slots=2000, seed=5, channel=ChannelParams(fast_fading_enabled=fading))
    links, snrs, rates = whole_trace(cfg)
    rng = np.random.default_rng(cfg.seed)
    rng.normal(0.0, 8.0, size=40)  # the shadowing draws (equal_spacing draws no placement)
    gains = rng.standard_exponential(size=(2000, 40)) if fading else np.ones((2000, 40))
    base = np.array([snr(cfg.channel, link, 1.0) for link in links])
    ch = cfg.channel
    assert snrs.tobytes() == (gains * base).tobytes()
    assert rates.tobytes() == (ch.bandwidth_hz * np.log2(1.0 + gains * base) * ch.slot_duration_s).tobytes()
    for policy in ("maxci", "rr"):
        (share,) = engine._decide([dataclasses.replace(cfg, policy=policy)])
        assert share.links == links
        assert share.served.tobytes() == rates[np.arange(2000), share.decisions].tobytes()


@st.composite
def stream_cases(draw):
    n = draw(st.integers(1, 40))
    rows = BLOCK_ELEMENTS // n
    total = draw(st.integers(1, 300) | st.integers(1, min(3 * rows, 3000)))  # short ones also run a slot a block
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
        streamed = outcome(run, cfg, links=links)
        for elements in block_sizes(cfg):
            assert_same_outcome(streamed, at_block_size(elements, run, cfg, links=links))


class TestLockstepEqualsHeld:
    @pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
    @settings(max_examples=40, deadline=None, database=None)
    @given(stream_cases(), st.permutations(POLICIES), st.integers(1, len(POLICIES)))
    @example((SimConfig(n_users=BLOCK_ELEMENTS + 1, total_slots=3, vpfa=VpfaParams(s_fi=1, l_sc=1)), None),
             POLICIES, len(POLICIES))  # one slot a block
    @example((SimConfig(n_users=200, total_slots=600, seed=1, vpfa=VpfaParams(s_fi=7, l_sc=2)), None),
             POLICIES[::-1], len(POLICIES))  # vpfa switches at slot 183, in the second 163-slot block
    @example((SimConfig(n_users=20, total_slots=300, seed=3, vpfa=VpfaParams(s_fi=7, l_sc=2)), None),
             POLICIES, len(POLICIES))  # vpfa switches at slot 71, inside the whole trace's one block
    def test_every_policy_gives_the_same_runs(self, case, order, count):
        configs = comparison_configs(case[0], list(order[:count]))
        lockstep = outcome(lambda: run_comparison(configs, reference=configs[0].policy).results)
        for elements in block_sizes(case[0]):
            assert_same_outcome(lockstep, at_block_size(elements, serial_runs, configs))


def built(cfg, **changes):
    """The case's config with ``changes``.  A case whose config fails its own check holds the function that
    makes it, as building it raises."""
    return cfg(**changes) if callable(cfg) else dataclasses.replace(cfg, **changes)


def cli_config(*overrides):
    return parse_config("", overrides=list(overrides)), None


def links_config(specs, **kw):
    return SimConfig(**kw), [UserLink(k, d, s) for k, (d, s) in enumerate(specs)]


# the error configs of test_cli and test_engine that fail before the first draw: the config's own
# check (when it is made), the caller links, the SNR, rate and bits bounds of the link budget, a rate
# bound of 0, a share's own check
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
    "vpfa infinite ledger": cli_config("policy=vpfa", "n_users=1", "slot_duration_s=1e298", "vpfa_l_sc=50"),
    "budget underflows": cli_config("tx_power_dbm=-3300"),
    "dpfa alpha": cli_config("policy=dpfa", "dpfa_alpha=60"),
    "budget overflows": cli_config("tx_power_dbm=1e308"),
    "zero slots": (functools.partial(SimConfig, total_slots=0), None),
    "non-integer users": (functools.partial(SimConfig, n_users=2.5), None),
    "link count": (SimConfig(n_users=4, total_slots=500, seed=3), [UserLink(0, 500.0, 0.0)]),
    **{"bad link %r %r" % link: links_config([(500.0, 0.0), link], n_users=2, total_slots=10)
       for link in [(np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0), (-3.0, 0.0), (500.0, np.nan), (500.0, np.inf),
                    (500.0, -np.inf)]},
    "shadowing overflows": links_config([(500.0, 0.0), (500.0, 1e308)], n_users=2, total_slots=10),
    "shadowing underflows": links_config([(500.0, 0.0), (500.0, -4000.0)], n_users=2, total_slots=10),
    "distance underflows": links_config([(500.0, 0.0), (1e300, 0.0)], n_users=2, total_slots=10),
    "fading overflows a link": links_config([(500.0, 0.0), (500.0, 3070.0)], n_users=2, total_slots=2000),
    "budget overflows at a user": cli_config("tx_power_dbm=4000", "n_users=2", "total_slots=50"),
    "budget overflows with links": links_config([(500.0, 0.0)] * 2, n_users=2, total_slots=50,
                                                channel=ChannelParams(tx_power_dbm=4000.0)),
    # dpfa_delta's reference link, at 60% of the cell radius, overflows too: the trace's error comes first
    "fading overflows, the reference too": cli_config("n_users=1", "shadowing_sigma_db=0", "tx_power_dbm=3124",
                                                      "total_slots=2000"),
    # the largest fading gain lifts user 0 past the reference, so without fading only the reference overflows
    "only the reference overflows": cli_config("n_users=1", "shadowing_sigma_db=0", "tx_power_dbm=3122",
                                               "total_slots=5", "fast_fading=false"),
    "config underflows with links": links_config([(500.0, 0.0)] * 2, n_users=2, total_slots=10,
                                                 channel=ChannelParams(tx_power_dbm=-4000.0)),
    # the link-budget SNRs are > 0, below 1e-16, so the rate bound is 0, and fades would take some SNRs to 0
    "fading underflows": cli_config("tx_power_dbm=-3150", "shadowing_sigma_db=0"),
    "zero capacity tx": cli_config("tx_power_dbm=-400"),
    "zero capacity bandwidth": cli_config("bandwidth_hz=1e300"),
    # each link-budget SNR is 5e-324, so the rate bound is 0.  One such link beside a served one runs
    # (TestDeepFades)
    "fading underflows a link": links_config([(500.0, -3244.0)] * 2, n_users=2, total_slots=10),
    # dpfa_delta's reference link, at 60% of the cell radius, overflows, and the caller's link does not
    "only the reference overflows with links": (
        SimConfig(n_users=1, total_slots=10, channel=ChannelParams(tx_power_dbm=3125)), [UserLink(0, 1e9, 0.0)]),
}

# the error configs that depend on the seed's draws: its shadowing takes the rate bound to 0 (seed 8 fails
# before the fading draw, test_cli; seeds 0-7 run) or, with the default dpfa_delta's SNR at 0, lifts the
# user's into the float range (seed 108, test_cli), or every rate served by an evaluation is 0
DRAW_ERROR_CASES = {
    "only the reference underflows": cli_config("policy=dpfa", "n_users=1", "tx_power_dbm=-3250",
                                                "shadowing_sigma_db=1500", "total_slots=20", "seed=108"),
    "vpfa zero ledger": cli_config("policy=vpfa", "n_users=3", "total_slots=50", "vpfa_s_fi=1",
                                   "shadowing_sigma_db=400", "seed=8"),
    **{"no bits at an evaluation seed %d" % seed: cli_config("policy=rr", "n_users=3", "total_slots=50",
                                                             "vpfa_s_fi=1", "shadowing_sigma_db=400",
                                                             "seed=%d" % seed) for seed in (4, 5)},
    "no bits with links": links_config([(500.0, -400.0 if k < 12 else 0.0) for k in range(14)], policy="rr",
                                       n_users=14, total_slots=30, vpfa=VpfaParams(s_fi=1)),
}


def no_draw(rng, size=None, out=None):
    raise AssertionError("drew the fading of a config that cannot run")


# the configs whose error once hung on a block past the first (4,096-slot blocks of 8 users, 3,276-slot
# blocks of 10): a later overflow, an earlier deep fade that was an error, the trace's peak.  Each now fails
# before the draw, with one message for every seed
LATER_BLOCK_CASES = {
    # user 0's fading takes its SNR to 0 at slot 9; user 1's largest fading gain overflows its SNR
    "underflow then overflow": (
        links_config([(500.0, -3244.0), (500.0, 3062.0)] + [(500.0, 0.0)] * 6, n_users=8, total_slots=12000),
        "SNR overflows a float: user 1's link has shadowing_db 3062, which takes its SNR at the largest"
        " fading gain, 44.4339, past the float range"),
    # user 1's rates pass the float range; user 0's SNR is 0 at slot 4610
    "rate overflow then underflow": (
        links_config([(500.0, -3211.5), (500.0, 50.0)] + [(500.0, 0.0)] * 6, n_users=8, total_slots=12000,
                     channel=ChannelParams(slot_duration_s=1e300)),
        "rate overflows a float: bandwidth_hz 1e+07 times slot_duration_s 1e+300 times log2(1 + SNR)"
        " is past the float range"),
    # seed 2's trace peaks at slot 4179, in the second block
    "dpfa alpha past the first block": (
        cli_config("policy=dpfa", "dpfa_alpha=60", "seed=2"),
        "dpfa_alpha 60 raises the largest rate of this link budget past the float range"),
}


class TestSameErrorsBothWays:
    @pytest.mark.parametrize("case", [*ERROR_CASES.values(), *DRAW_ERROR_CASES.values()],
                             ids=[*ERROR_CASES, *DRAW_ERROR_CASES])
    def test_error_configs(self, case):
        cfg, links = case
        streamed = outcome(lambda: run(built(cfg), links=links))
        assert isinstance(streamed, tuple), "ran without an error"
        for elements in block_sizes(cfg):
            assert at_block_size(elements, lambda: run(built(cfg), links=links)) == streamed

    @pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")  # seeds 1 and 2 draw one
    @pytest.mark.parametrize("case", list(ERROR_CASES.values()), ids=list(ERROR_CASES))
    def test_error_configs_fail_before_the_draw(self, case, monkeypatch):
        monkeypatch.setattr(engine, "draw_fast_fading", no_draw)
        cfg, links = case
        errors = {outcome(lambda: run(built(cfg, seed=seed), links=links)) for seed in (0, 1, 2)}
        assert len(errors) == 1 and isinstance(errors.pop(), tuple)

    @pytest.mark.parametrize("case,message", list(LATER_BLOCK_CASES.values()), ids=list(LATER_BLOCK_CASES))
    def test_the_error_of_a_later_block_wins(self, case, message, monkeypatch):
        monkeypatch.setattr(engine, "draw_fast_fading", no_draw)
        cfg, links = case
        errors = {outcome(run, dataclasses.replace(cfg, seed=seed), links=links) for seed in (0, 1, 2)}
        assert errors == {(ConfigError, message)}


# the comparisons of every entry above without caller links, which a comparison does not take
DRAWN_ERROR_CASES = {name: cfg for name, (cfg, links) in
                     [*ERROR_CASES.items(), *DRAW_ERROR_CASES.items(),
                      *((name, case) for name, (case, _) in LATER_BLOCK_CASES.items())]
                     if links is None}


class TestSameErrorsInLockstep:
    # each list holds dpfa, rr and vpfa, the policies that some case fails alone
    @pytest.mark.parametrize("policies", [POLICIES, POLICIES[::-1], ("vpfa", "rr", "dpfa")], ids="-".join)
    @pytest.mark.parametrize("cfg", list(DRAWN_ERROR_CASES.values()), ids=list(DRAWN_ERROR_CASES))
    def test_error_configs(self, cfg, policies):
        lockstep = outcome(lambda: run_comparison(comparison_configs(built(cfg), list(policies)), policies[0]))
        assert isinstance(lockstep, tuple), "ran without an error"
        for elements in block_sizes(cfg):
            serial = at_block_size(elements, lambda: serial_runs(comparison_configs(built(cfg), list(policies))))
            assert serial == lockstep

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("stopped,overrides,message", [
        ("nope", (), "^policy must be one of"),
        ("dpfa", ("dpfa_alpha=60",), "^dpfa_alpha 60 raises the largest rate"),
    ], ids=["unknown_policy", "dpfa_alpha"])
    def test_a_stopped_config_draws_nothing(self, stopped, overrides, message, position, monkeypatch):
        # a config stopped by its own check, at any position in the list, stops the comparison before the draw,
        # though the configs before it could still fail on the draw
        monkeypatch.setattr(engine, "draw_fast_fading", no_draw)
        cfg, _ = cli_config(*overrides)
        policies = ["pfa", "rr"]
        policies.insert(position, stopped)
        with pytest.raises(ConfigError, match=message):
            run_comparison(comparison_configs(cfg, policies))

    def test_a_later_check_beats_an_earlier_draw_error(self):
        # rr alone fails on the draw; the unknown policy after it fails when its config is made
        cfg, _ = DRAW_ERROR_CASES["no bits at an evaluation seed 4"]
        assert outcome(run, cfg)[1].startswith("fairness index undefined at slot 1")
        with pytest.raises(ConfigError, match="^policy must be one of"):
            run_comparison(comparison_configs(cfg, ["rr", "nope"]), reference="rr")

    def test_one_config_names_one_link(self):
        cfg, _ = ERROR_CASES["budget overflows at a user"]
        errors = {outcome(fn) for fn in (lambda: run(cfg),
                                         lambda: run_comparison(comparison_configs(cfg, list(POLICIES))))}
        assert errors == {(ConfigError, "SNR overflows a float: tx_power_dbm 4000 takes user 0's link-budget SNR"
                                        " past the float range")}


class TestDeepFades:
    def test_a_fading_gain_of_0_gives_rate_0(self, monkeypatch):
        draw = engine.draw_fast_fading

        def one_deep_fade(rng, size=None, out=None):
            gains = draw(rng, size=size, out=out)
            gains[1, 1] = 0.0  # user 1 in slot 2, which round robin serves
            return gains

        monkeypatch.setattr(engine, "draw_fast_fading", one_deep_fade)
        cfg = SimConfig(n_users=4, total_slots=500, policy="rr")  # one block, one draw
        rates = whole_trace(cfg)[2]
        rates[1, 1] = instantaneous_rate(0.0, cfg.channel)
        assert rates[1, 1] == 0
        (share,) = engine._decide([cfg])
        assert share.decisions[1] == 1 and share.served[1] == 0
        res = run(cfg)
        bits = np.zeros(4)
        np.add.at(bits, res.decisions, rates[np.arange(500), res.decisions])
        assert bits.tobytes() == res.metrics.per_user_bits.tobytes()

    def test_a_link_whose_fades_reach_snr_0_runs(self):
        # user 1's link-budget SNR is 5e-324, the least float above 0, and a fade below 1/2 takes it to 0
        cfg, links = links_config([(500.0, 0.0), (500.0, -3244.0)], n_users=2, total_slots=10)
        assert 0 in whole_trace(cfg, links)[1][:, 1]
        res = run(cfg, links=links)
        assert res.metrics.per_user_bits[1] == 0 < res.metrics.per_user_bits[0]
        for elements in block_sizes(cfg):
            assert_same_outcome(res, at_block_size(elements, run, cfg, links=links))


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
