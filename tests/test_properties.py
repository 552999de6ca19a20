"""Invariants of whole runs over random small configs (N <= 8, T <= 400)."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schedsim.channel import ENV_CLASSES, PLACEMENT_MODES, ChannelParams
from schedsim.cli import parse_config, render_config
from schedsim.engine import SimConfig, run
from schedsim.sched import POLICIES, VARIANCE_MODES, DpfaParams, VpfaParams

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
        literal_timers=st.booleans(),
    ),
    vpfa=st.builds(
        VpfaParams,
        s_fi=st.integers(1, 50),
        l_sc=st.integers(1, 6),
        variance_mode=st.sampled_from(VARIANCE_MODES),
        window=st.integers(1, 64),
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
