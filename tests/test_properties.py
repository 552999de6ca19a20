"""Invariants of whole runs over random small configs (N <= 8, T <= 400), of
deciding one trace in different block splits, of dpfa's one-timer exponent
against the paper's two-timer rule, and of vpfa's variance phase against its
exact score rule."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schedsim.channel import ENV_CLASSES, PLACEMENT_MODES, ChannelParams
from schedsim.cli import parse_config, render_config
from schedsim.engine import SimConfig, run
from schedsim.sched import (
    EPS_RATE,
    POLICIES,
    DpfaParams,
    VpfaParams,
    center_timer,
    make_scheduler,
    select,
    update_beta,
    variance_scores,
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
        b=st.floats(0.0, 1.0, exclude_min=True),
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


STATE = ("avg_throughput", "center_slots", "beta", "delivered_bits")


def decide(sched, rates, snrs, cuts, switch_at):
    """Decide the trace in blocks ending at ``cuts``; force vpfa's phase
    switch (l_sc = 1) once ``switch_at`` slots are decided."""
    edges = sorted({0, switch_at, len(rates), *cuts})
    out = []
    for start, stop in zip(edges, edges[1:]):
        if start == switch_at:
            sched.observe_fi(0.5)
        out.append(sched.step(rates[start:stop], snrs[start:stop]))
    if switch_at == len(rates):
        sched.observe_fi(0.5)
    return np.concatenate(out)


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
    vpfa = VpfaParams(l_sc=1)
    tc_mode = draw(st.sampled_from(("fixed", "growing")))
    switch_at = draw(st.integers(0, total))
    return n, total, cuts, seed, policy, dpfa, vpfa, tc_mode, switch_at


@settings(max_examples=200, deadline=None, database=None)
@given(block_cases())
def test_block_splits_give_equal_decisions_and_state(case):
    n, total, cuts, seed, policy, dpfa, vpfa, tc_mode, switch_at = case
    rng = np.random.default_rng(seed)
    rates = rng.uniform(1e3, 2e5, size=(total, n))
    snrs = rng.exponential(1.0, size=(total, n))
    splits = {"one block": [], "random splits": cuts, "row by row": range(1, total)}
    runs = {}
    for name, split in splits.items():
        sched = make_scheduler(policy, n, dpfa=dpfa, vpfa=vpfa, tc_mode=tc_mode, tc_slots=7.0)
        runs[name] = (decide(sched, rates, snrs, split, switch_at), sched)
    ref_decisions, ref = runs["one block"]
    for name, (decisions, sched) in runs.items():
        assert np.array_equal(decisions, ref_decisions), name
        assert (sched.slots_elapsed, sched.phase) == (ref.slots_elapsed, ref.phase)
        for attr in STATE:
            a, b = getattr(sched, attr), getattr(ref, attr)
            assert np.array_equal(a, b), (name, attr)


def two_timer_beta(edge, center, snrs, p):
    """The paper's exponent rule with both residence timers, one slot at a
    time: edge timer A and center timer B, then beta = 1 when A >= theta or
    B <= theta, else max(gamma/delta, b).  Returns A, B and beta per slot."""
    a_rows, b_rows, beta_rows = [], [], []
    for gamma in snrs:
        at_edge = gamma < p.delta
        edge = np.where(at_edge, edge + 1, 0)
        center = np.where(at_edge, 0, center + 1)
        neutral = (edge >= p.theta) | (center <= p.theta)
        beta_rows.append(np.where(neutral, 1.0, np.maximum(gamma / p.delta, p.b)))
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
        b=draw(st.floats(0.0, 1.0, exclude_min=True)),
        alpha=draw(st.sampled_from([1.0, 0.8, 1.7])),
    )
    # a reachable carried state: at most one of A and B is positive
    carried = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    at_edge = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edge = np.array([c if e else 0 for c, e in zip(carried, at_edge)], dtype=np.int64)
    center = np.array([0 if e else c for c, e in zip(carried, at_edge)], dtype=np.int64)
    cuts = draw(st.lists(st.integers(1, total), max_size=10))
    seed = draw(st.integers(0, 2**32 - 1))
    return p, edge, center, total, cuts, seed


@settings(max_examples=200, deadline=None, database=None)
@given(timer_cases())
def test_one_timer_exponent_matches_two_timer_rule(case):
    p, edge, center, total, cuts, seed = case
    rng = np.random.default_rng(seed)
    snrs = rng.exponential(p.delta, size=(total, edge.size))
    want_a, want_b, want_beta = two_timer_beta(edge, center, snrs, p)
    edges = sorted({0, total, *cuts})
    b = center
    for start, stop in zip(edges, edges[1:]):
        got_b = center_timer(b, snrs[start:stop], p.delta)
        assert np.array_equal(got_b, want_b[start:stop])
        assert np.array_equal(update_beta(got_b, snrs[start:stop], p), want_beta[start:stop])
        b = got_b[-1]
    assert np.all(want_a * want_b == 0)


def dpfa_slot_reference(rates, snrs, p, t_c):
    """dpfa slot by slot from the two-timer rule: argmax r^alpha / R^beta
    over each row, then the EWMA update."""
    n = rates.shape[1]
    _, _, beta = two_timer_beta(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), snrs, p)
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
    p, _, _, total, cuts, seed = case
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    rates = rng.uniform(0.0, 2e5, size=(total, n))
    snrs = rng.exponential(p.delta, size=(total, n))
    sched = make_scheduler("dpfa", n, dpfa=p, tc_slots=7.0)
    edges = sorted({0, total, *cuts})
    decisions = np.concatenate([sched.step(rates[a:b], snrs[a:b]) for a, b in zip(edges, edges[1:])])
    want_decisions, want_avg = dpfa_slot_reference(rates, snrs, p, 7.0)
    assert np.array_equal(decisions, want_decisions)
    assert np.array_equal(sched.avg_throughput, want_avg)


def score_rule_oracle(ledger, rates):
    """The variance phase slot by slot, straight from the exact score rule."""
    d = ledger.copy()
    out = []
    for row in rates:
        out.append(c := select(variance_scores(d)))
        d[c] += row[c]
    return np.array(out), d


TINY = 5e-324  # the smallest subnormal


@st.composite
def ledgers(draw):
    """Ledgers where rounding in the score can tie unequal users."""
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
def test_variance_phase_matches_score_rule(case):
    ledger, rates, cuts = case
    sched = make_scheduler("vpfa", ledger.size, vpfa=VpfaParams(l_sc=1))
    sched.delivered_bits[:] = ledger
    sched.observe_fi(0.5)
    edges = sorted({0, len(rates), *cuts})
    decisions = np.concatenate([sched.step(rates[a:b], rates[a:b]) for a, b in zip(edges, edges[1:])])
    want_decisions, want_bits = score_rule_oracle(ledger, rates)
    assert np.array_equal(decisions, want_decisions)
    assert np.array_equal(sched.delivered_bits, want_bits)
