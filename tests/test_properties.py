"""Invariants of whole runs over random small configs (N <= 8, T <= 400), of
the blocks a run hands its schedulers at link budgets near each pre-draw
bound, of deciding one trace in different block splits, of a vpfa scheduler
driven by ``step`` alone against ``run``, of dpfa's one-timer exponent
against the paper's two-timer rule, of the PF family's slot loop against its
per-slot rules, and of vpfa's variance phase against a plain least-served
scan."""
import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schedsim.channel import ENV_CLASSES, PLACEMENT_MODES, ChannelParams
from schedsim.cli import parse_config, render_config
from schedsim.engine import SimConfig, channel_trace, run
from schedsim.errors import ConfigError
from schedsim.sched import (
    EPS_RATE,
    POLICIES,
    DpfaParams,
    Scheduler,
    VpfaParams,
    center_timer,
    least_served,
    make_scheduler,
    select,
    update_beta,
)

channels = st.builds(
    ChannelParams,
    tx_power_dbm=st.floats(30.0, 50.0),
    carrier_freq_mhz=st.floats(1500.0, 2000.0),
    bandwidth_hz=st.floats(1e5, 2e7),
    cell_radius_m=st.floats(100.0, 3000.0),
    shadowing_sigma_db=st.floats(0.0, 10.0),
    bs_height_m=st.floats(30.0, 200.0),
    ue_height_m=st.floats(1.0, 10.0),
    env_class=st.sampled_from(ENV_CLASSES),
    noise_figure_db=st.floats(0.0, 12.0),
    slot_duration_s=st.floats(1e-4, 1e-2),
    fast_fading_enabled=st.booleans(),
)

configs = st.builds(
    SimConfig,
    channel=channels,
    n_users=st.integers(1, 8),
    placement=st.sampled_from(PLACEMENT_MODES),
    policy=st.sampled_from(POLICIES),
    total_slots=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    tc_mode=st.sampled_from(("fixed", "growing")),
    tc_slots=st.floats(1.0, 5000.0),
    dpfa=st.builds(
        DpfaParams,
        alpha=st.floats(0.0, 2.0),
        delta=st.none() | st.floats(0.01, 1e3),
        theta=st.integers(1, 50),
        beta_override=st.none() | st.floats(0.0, 2.0),
    ),
    vpfa=st.builds(
        VpfaParams,
        s_fi=st.integers(1, 50),
        l_sc=st.integers(1, 6),
        signed_stability=st.booleans(),
    ),
)

examples = settings(max_examples=30, deadline=None, database=None)


@examples
@given(configs)
def test_accounting_invariants(config):
    res = run(config)
    n, total = config.n_users, config.total_slots
    dec = res.decisions
    assert dec.shape == (total,)
    assert dec.min() >= 0 and dec.max() < n
    assert np.array_equal(np.bincount(dec, minlength=n), res.metrics.schedule_counts)
    assert int(res.metrics.schedule_counts.sum()) == total
    assert math.isclose(
        float(res.metrics.per_user_bits.sum()), res.metrics.system_bits, rel_tol=1e-12
    )


@examples
@given(configs)
def test_same_config_same_decisions(config):
    assert np.array_equal(run(config).decisions, run(config).decisions)


@examples
@given(configs)
def test_config_file_round_trip(config):
    assert parse_config(render_config(config)) == config


@examples
@given(configs)
def test_written_config_parses_back_to_the_run(config):
    resolved = run(config).config  # what config.txt holds: dpfa_delta filled in
    assert parse_config(render_config(resolved)) == resolved


def log_floats(lo, hi):
    """Floats from 10^lo to 10^hi, uniform in the exponent."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# link budgets from SNRs and rates that underflow to 0 to ones past the float
# range, so that most configs fail a check of the trace source's and the rest
# lie near its bounds
edge_configs = st.builds(
    SimConfig,
    channel=st.builds(
        ChannelParams,
        tx_power_dbm=st.floats(-3300.0, 3200.0),
        bandwidth_hz=log_floats(-300.0, 305.0),
        slot_duration_s=log_floats(-300.0, 305.0),
        shadowing_sigma_db=st.floats(0.0, 300.0),
        fast_fading_enabled=st.booleans(),
    ),
    n_users=st.integers(1, 6),
    placement=st.sampled_from(PLACEMENT_MODES),
    policy=st.sampled_from(POLICIES),
    total_slots=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
    tc_mode=st.sampled_from(("fixed", "growing")),
    tc_slots=st.floats(1.0, 50.0),
    dpfa=st.builds(
        DpfaParams,
        alpha=st.floats(0.0, 30.0),
        delta=st.none() | log_floats(-300.0, 300.0),
        theta=st.integers(1, 10),
        beta_override=st.none() | st.floats(0.0, 30.0),
    ),
    vpfa=st.builds(VpfaParams, s_fi=st.integers(1, 20), l_sc=st.integers(1, 4)),
)

_step = Scheduler.step


def proved_step(self, rates, snrs):
    """``Scheduler.step``, asserting before the block what the trace source
    and the config's checks prove for it, and after it that the averages
    stayed finite."""
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0)
    assert np.all(np.isfinite(snrs)) and np.all(snrs >= 0)
    assert self.t_c >= 1 and self.c_s >= 0
    if self.name == "dpfa":
        p = self.dpfa
        assert p.delta is not None and 0 < p.delta < math.inf
        with np.errstate(over="ignore"):
            assert np.all(np.power(rates, p.alpha) < math.inf)
        assert np.all(update_beta(center_timer(self.center_slots, snrs, p.delta), snrs, p) >= 0)
    chosen = _step(self, rates, snrs)
    assert np.all(np.isfinite(self.avg_throughput))
    return chosen


@settings(max_examples=300, deadline=None, database=None)
@given(edge_configs)
def test_trace_source_proves_every_block(config):
    """Every block a run decides holds what the scheduler layer takes
    unchecked; a config whose link budget cannot give such blocks is refused
    before the first draw."""
    blocks = []

    def step(self, rates, snrs):
        blocks.append(len(rates))
        return proved_step(self, rates, snrs)

    with mock.patch.object(Scheduler, "step", step):
        try:
            run(config)
        except ConfigError as exc:
            # refused before the draw, or the one error that depends on it
            assert not blocks or str(exc).startswith("fairness index undefined at slot")


PF_STATE = ("avg_throughput", "center_slots")
STATE = PF_STATE + ("warmup_bits",)


def decide(sched, rates, snrs, cuts):
    """Decide the trace through ``step`` alone, in blocks ending at ``cuts``."""
    edges = sorted({0, len(rates), *cuts})
    return np.concatenate([sched.step(rates[a:b], snrs[a:b]) for a, b in zip(edges, edges[1:])])


@st.composite
def block_cases(draw):
    n = draw(st.integers(1, 6))
    total = draw(st.integers(1, 120))
    cuts = draw(st.lists(st.integers(1, total), max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    policy = draw(st.sampled_from(POLICIES))
    dpfa = DpfaParams(
        delta=1.0,
        theta=draw(st.integers(1, 6)),  # short: timers cross block edges
        alpha=draw(st.sampled_from([1.0, 0.8])),
    )
    # short: vpfa's evaluations, and often its switch, fall inside blocks
    vpfa = VpfaParams(s_fi=draw(st.integers(1, 20)), l_sc=draw(st.integers(1, 4)),
                      signed_stability=draw(st.booleans()))
    tc_mode = draw(st.sampled_from(("fixed", "growing")))
    return n, total, cuts, seed, policy, dpfa, vpfa, tc_mode


@settings(max_examples=200, deadline=None, database=None)
@given(block_cases())
def test_block_splits_give_equal_decisions_and_state(case):
    n, total, cuts, seed, policy, dpfa, vpfa, tc_mode = case
    rng = np.random.default_rng(seed)
    rates = rng.uniform(1e3, 2e5, size=(total, n))
    snrs = rng.exponential(1.0, size=(total, n))
    splits = {"one block": [], "random splits": cuts, "row by row": range(1, total)}
    runs = {}
    for name, split in splits.items():
        sched = make_scheduler(policy, n, dpfa=dpfa, vpfa=vpfa, tc_mode=tc_mode, tc_slots=7.0)
        runs[name] = (decide(sched, rates, snrs, split), sched)
    ref_decisions, ref = runs["one block"]
    for name, (decisions, sched) in runs.items():
        assert np.array_equal(decisions, ref_decisions), name
        assert ((sched.slots_elapsed, sched.switch_slot, sched.c_s, sched.last_fi)
                == (ref.slots_elapsed, ref.switch_slot, ref.c_s, ref.last_fi))
        for attr in STATE:
            a, b = getattr(sched, attr), getattr(ref, attr)
            assert np.array_equal(a, b), (name, attr)


@settings(max_examples=60, deadline=None, database=None)
@given(configs.map(lambda c: dataclasses.replace(c, policy="vpfa")), st.data())
def test_vpfa_step_alone_matches_run(config, data):
    """A vpfa scheduler driven by ``step`` alone, in any block split, makes
    ``run``'s decisions and switches where it does, on the same ledger; a
    switch at the run's last evaluation is none for the run."""
    res = run(config)
    trace = channel_trace(config)
    cuts = data.draw(st.lists(st.integers(1, config.total_slots), max_size=12))
    sched = make_scheduler("vpfa", config.n_users, vpfa=config.vpfa, tc_mode=config.tc_mode,
                           tc_slots=config.tc_slots)
    assert np.array_equal(decide(sched, trace.rates, trace.snrs, cuts), res.decisions)
    if sched.switch_slot is not None and sched.switch_slot > config.total_slots:  # at the run's last evaluation
        assert res.phase_switch_slot is res.vpfa_warmup_bits is None
    else:
        assert sched.switch_slot == res.phase_switch_slot
        assert np.array_equal(sched.warmup_bits, res.vpfa_warmup_bits)


def two_timer_beta(edge, center, snrs, p, b):
    """The paper's exponent rule with both residence timers and its floor
    b in (0, 1], one slot at a time: edge timer A and center timer B, then
    beta = 1 when A >= theta or B <= theta, else max(gamma/delta, b).
    Returns A, B and beta per slot."""
    a_rows, b_rows, beta_rows = [], [], []
    for gamma in snrs:
        at_edge = gamma < p.delta
        edge = np.where(at_edge, edge + 1, 0)
        center = np.where(at_edge, 0, center + 1)
        neutral = (edge >= p.theta) | (center <= p.theta)
        beta_rows.append(np.where(neutral, 1.0, np.maximum(gamma / p.delta, b)))
        a_rows.append(edge)
        b_rows.append(center)
    return np.array(a_rows), np.array(b_rows), np.array(beta_rows)


@st.composite
def timer_cases(draw):
    n = draw(st.integers(1, 6))
    total = draw(st.integers(1, 80))
    p = DpfaParams(
        delta=draw(st.sampled_from([0.25, 1.0, 3.0])),
        theta=draw(st.integers(1, 12)),
        alpha=draw(st.sampled_from([1.0, 0.8, 1.7])),
    )
    b = draw(st.floats(0.0, 1.0, exclude_min=True))  # the published floor, which update_beta drops
    # a reachable carried state: at most one of A and B is positive
    carried = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    at_edge = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edge = np.array([c if e else 0 for c, e in zip(carried, at_edge)], dtype=np.int64)
    center = np.array([0 if e else c for c, e in zip(carried, at_edge)], dtype=np.int64)
    cuts = draw(st.lists(st.integers(1, total), max_size=10))
    seed = draw(st.integers(0, 2**32 - 1))
    return p, b, edge, center, total, cuts, seed


@settings(max_examples=200, deadline=None, database=None)
@given(timer_cases())
def test_one_timer_exponent_matches_two_timer_rule(case):
    p, floor, edge, center, total, cuts, seed = case
    rng = np.random.default_rng(seed)
    snrs = rng.exponential(p.delta, size=(total, edge.size))
    want_a, want_b, want_beta = two_timer_beta(edge, center, snrs, p, floor)
    edges = sorted({0, total, *cuts})
    b = center
    for start, stop in zip(edges, edges[1:]):
        got_b = center_timer(b, snrs[start:stop], p.delta)
        assert np.array_equal(got_b, want_b[start:stop])
        assert np.array_equal(update_beta(got_b, snrs[start:stop], p), want_beta[start:stop])
        b = got_b[-1]
    assert np.all(want_a * want_b == 0)
    # why no floor b <= 1 binds: a re-weighted exponent is never below 1
    assert np.all(want_beta[want_b > p.theta] >= 1.0)


def dpfa_slot_reference(rates, snrs, p, b, t_c):
    """dpfa slot by slot from the two-timer rule with floor ``b``: argmax
    r^alpha / R^beta over each row, then the EWMA update."""
    n = rates.shape[1]
    _, _, beta = two_timer_beta(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), snrs, p, b)
    avg = np.full(n, EPS_RATE)
    out = []
    with np.errstate(over="ignore"):
        for row, beta_row in zip(rates, beta):
            out.append(c := int(np.argmax(np.power(row, p.alpha) / np.power(np.maximum(avg, EPS_RATE), beta_row))))
            avg *= 1.0 - 1.0 / t_c
            avg[c] += row[c] / t_c
    return np.array(out), avg


@settings(max_examples=100, deadline=None, database=None)
@given(timer_cases())
def test_dpfa_decisions_match_slot_reference(case):
    p, floor, _, _, total, cuts, seed = case
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    rates = rng.uniform(0.0, 2e5, size=(total, n))
    snrs = rng.exponential(p.delta, size=(total, n))
    sched = make_scheduler("dpfa", n, dpfa=p, tc_slots=7.0)
    decisions = decide(sched, rates, snrs, cuts)
    want_decisions, want_avg = dpfa_slot_reference(rates, snrs, p, floor, 7.0)
    assert np.array_equal(decisions, want_decisions)
    assert np.array_equal(sched.avg_throughput, want_avg)


TINY = 5e-324  # the smallest subnormal


def pf_priority(num, avg, beta=1.0, out=None):
    """The PF family's metric num / max(R, EPS_RATE)^beta, written into ``out``
    when given: pfa's r / R at the default beta = 1 (x^1 is x bit for bit),
    dpfa's from its numerator r^alpha and per-user exponents.  The slot loop
    computes it inline; this is the per-row rule it is held to."""
    den = np.maximum(avg, EPS_RATE, out=out)
    return np.divide(num, np.power(den, beta, out=den), out=den)


def update_avg_throughput(avg, rates, chosen, t_c):
    """EWMA average-throughput update of every user, in place: the scheduled
    user's (1 - 1/T_c) R + r / T_c, everyone else's (1 - 1/T_c) R."""
    avg *= 1.0 - 1.0 / t_c
    avg[chosen] += rates.item(chosen) / t_c


def pf_slot_reference(rates, num, beta, avg, t_cs):
    """pfa, dpfa or vpfa's warm-up over one block, slot by slot from the
    per-row rules: ``pf_priority``, then ``select``, then
    ``update_avg_throughput``.  Updates ``avg`` in place and returns the
    decisions."""
    out = []
    for t, row in enumerate(rates):
        c = select(pf_priority(num[t], avg, 1.0 if beta is None else beta[t]))
        update_avg_throughput(avg, row, c, t_cs[t])
        out.append(c)
    return np.array(out, dtype=np.int64)


# zero and subnormal rates and averages near EPS_RATE let the floor bind and
# unbind inside a block
PF_RATES = np.array([0.0, TINY, 1e-310, 0.5, 1.0, 2.0, 1e3, 2e5])
PF_AVERAGES = [EPS_RATE, 0.0, 0.3, 1.2, 2.0, 3.0, 10.0, 1e3, 1e300]


@st.composite
def pf_cases(draw):
    policy = draw(st.sampled_from(["pfa", "dpfa", "vpfa"]))
    n = draw(st.integers(1, 5))
    total = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = np.where(rng.random((total, n)) < draw(st.sampled_from([0.0, 0.3, 1.0])),
                     rng.choice(PF_RATES, (total, n)), rng.uniform(0.0, 2e5, (total, n)))
    snrs = rng.exponential(1.0, size=(total, n))
    avg = np.array(draw(st.lists(st.sampled_from(PF_AVERAGES), min_size=n, max_size=n)))
    p = DpfaParams(delta=1.0, theta=draw(st.integers(1, 4)), alpha=draw(st.sampled_from([1.0, 0.8, 0.0])),
                   beta_override=draw(st.sampled_from([None, None, 1.0, 0.0])))
    tc = draw(st.sampled_from([1.0, 1.5, 7.0, 1000.0, "growing"]))
    elapsed = draw(st.sampled_from([0, 0, 5]))
    cuts = draw(st.lists(st.integers(1, total), max_size=8))
    return policy, rates, snrs, avg, p, tc, elapsed, cuts


def pf_example(policy, rates, avg, tc=7.0, **dpfa):
    rates = np.array(rates)
    return policy, rates, np.ones_like(rates), np.array(avg), DpfaParams(delta=1.0, **dpfa), tc, 0, []


@settings(max_examples=400, deadline=None, database=None)
@given(pf_cases())
# the floor binds at the last slot only: min(avg) 3 decays by 1/3 to 1 after
# one slot and below it after two, where user 1 is boosted 3x without the floor
@example(pf_example("pfa", [[10.0, 0.0], [10.0, 0.0], [20.0, 1.0]], [3.0, 3.0], tc=1.5))
def test_pf_loop_matches_slot_rules(case):
    """Any block of the kind the trace source proves, in any split, gives the
    per-slot rules' decisions and averages bit for bit."""
    policy, rates, snrs, avg, p, tc, elapsed, cuts = case
    growing = tc == "growing"
    sched = make_scheduler(policy, rates.shape[1], dpfa=p, tc_mode="growing" if growing else "fixed",
                           tc_slots=1000.0 if growing else tc)
    sched.avg_throughput[:] = avg
    sched.slots_elapsed = elapsed
    t_cs = [float(elapsed + 1 + t) if growing else tc for t in range(len(rates))]
    avg = avg.copy()
    edges = sorted({0, len(rates), *cuts})
    num = np.power(rates, p.alpha) if policy == "dpfa" else rates
    beta = (update_beta(center_timer(np.zeros(rates.shape[1], dtype=np.int64), snrs, p.delta), snrs, p)
            if policy == "dpfa" else None)
    with np.errstate(over="ignore"):  # a large average to a large exponent is inf, as in the PF loop
        for a, b in zip(edges, edges[1:]):
            block_beta = None if beta is None else beta[a:b]
            got = sched.step(rates[a:b], snrs[a:b])
            want = pf_slot_reference(rates[a:b], num[a:b], block_beta, avg, t_cs[a:b])
            assert np.array_equal(got, want)
            assert np.array_equal(sched.avg_throughput, avg)


def least_served_oracle(ledger, rates):
    """The variance phase slot by slot, by a scan in plain Python: serve the
    user with the fewest delivered bits, lowest index on ties.  That is the
    paper's score rule, the highest score mean - d_k, in exact arithmetic."""
    d = ledger.tolist()
    out = []
    for row in rates.tolist():
        out.append(c := min(range(len(d)), key=lambda k: (d[k], k)))
        d[c] += row[c]
    return np.array(out), np.array(d)


def ledger_heap(ledger):
    """The variance phase's heap over ``ledger``, a sorted list as the switch
    seeds it."""
    return sorted(zip(ledger.tolist(), range(ledger.size)))


def ledger_after(ledger, rates, decisions):
    """The start ledger plus each slot's served rate, added in slot order."""
    d = ledger.tolist()
    for row, c in zip(rates.tolist(), decisions.tolist()):
        d[c] += row[c]
    return np.array(d)


@st.composite
def ledgers(draw):
    """Ledgers where a score mean - d_k computed in floats ties unequal
    users."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["ties", "ulp neighbours", "zeros beside 1e9", "one far above", "mixed"]))
    base = draw(st.sampled_from([1e9, 2.0**52, 1e15, 3e17]))
    pools = {
        "ties": st.sampled_from([0.0, 1.0, 7.5, 1e6]),
        "ulp neighbours": st.integers(-3, 3).map(lambda k: base + k * math.ulp(base)),
        "zeros beside 1e9": st.sampled_from([0.0, TINY, 1e9]),
        "one far above": st.floats(0.0, 1e4) | st.sampled_from([0.0, TINY]),
    }
    pools["mixed"] = st.one_of(*pools.values())
    ledger = np.array(draw(st.lists(pools[kind], min_size=n, max_size=n)))
    if kind == "one far above":
        ledger[draw(st.integers(0, n - 1))] = ledger.max() + 1e12
    return ledger


RATE_POOL = np.array([0.0, TINY, 1e-310, 1.0, 2.0, 1e3, 123456.789])


@st.composite
def ledger_cases(draw):
    ledger = draw(ledgers())
    total = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # zero, subnormal and small integer rates beside uniform ones
    rates = np.where(rng.random((total, ledger.size)) < draw(st.sampled_from([0.0, 0.5, 1.0])),
                     rng.choice(RATE_POOL, (total, ledger.size)), rng.uniform(0.0, 1e6, (total, ledger.size)))
    cuts = draw(st.lists(st.integers(1, total), max_size=8))
    return ledger, rates, cuts


@settings(max_examples=300, deadline=None, database=None)
@given(ledger_cases())
# after user 0 is served, mean - 5e-324 and mean - 0 round to one float, so
# a score computed in floats ties users 1 and 2; user 2, at 0 bits, is served
@example((np.array([0.0, TINY, 0.0]), np.ones((2, 3)), []))
def test_variance_phase_matches_score_rule(case):
    ledger, rates, cuts = case
    heap = ledger_heap(ledger)
    edges = sorted({0, len(rates), *cuts})
    decisions = np.concatenate([least_served(heap, rates[a:b]) for a, b in zip(edges, edges[1:])])
    want_decisions, want_bits = least_served_oracle(ledger, rates)
    assert np.array_equal(decisions, want_decisions)
    assert np.array_equal(ledger_after(ledger, rates, decisions), want_bits)
    # and the heap ends on the oracle's ledger, float for float
    assert np.array_equal([b for b, _ in sorted(heap, key=lambda entry: entry[1])], want_bits)
