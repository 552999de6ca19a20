"""The accounting pass against the per-interval loop it replaced, and the
row-wise Jain core against the scalar index.

``interval_loop_reference`` is that loop: one credit per FI interval, a
running ``+=`` for the system bits and one scalar Jain index per
evaluation.  ``scalar_jain_index`` is the scalar index it called, with the
rescale of a sum of squares past the float range and Python's
``min``/``max`` clamp, restated to rescale a sum of squares that underflows
to 0 too.  Both are kept here as oracles; the pass and the core must equal
them bit for bit.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schedsim.metrics as metrics
from schedsim.engine import BLOCK_ELEMENTS, SimConfig, account, run
from schedsim.metrics import MetricsLog, _jain_rows, jain_index, ledger_fi
from schedsim.sched import VpfaParams

INF = math.inf


def scalar_jain_index(throughputs) -> float:
    """One vector's Jain index, in Python floats past the sums, as
    ``jain_index`` computed it before the row-wise core, and with squares
    that underflow to 0 rescaled as ones that overflow are."""
    arr = np.asarray(throughputs, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        sum_sq = float(np.dot(arr, arr))
    if sum_sq in (0.0, INF) and 0.0 < arr.max() < INF:
        arr = arr / arr.max()
        sum_sq = float(np.dot(arr, arr))
    if sum_sq == 0.0:
        raise ValueError("fairness index undefined for an all-zero allocation")
    n = arr.size
    total = float(np.add.reduce(arr))
    return min(1.0, max(1.0 / n, total * total / (n * sum_sq)))


def interval_loop_reference(decisions, served, n_users, s_fi):
    """Credit the run an FI interval at a time and read the log after each:
    per-user bits and counts by ``np.add.at``, system bits by a running
    ``+=``, the index of the per-user bits (nan while they are all zero)."""
    per_user, counts, system = np.zeros(n_users), np.zeros(n_users, dtype=np.int64), 0.0
    fi_series, system_series = [], []
    stops = [*range(0, len(decisions), s_fi), len(decisions)]
    for start, stop in zip(stops, stops[1:]):
        np.add.at(per_user, decisions[start:stop], served[start:stop])
        np.add.at(counts, decisions[start:stop], 1)
        for b in served[start:stop].tolist():
            system += b
        try:
            fi = scalar_jain_index(per_user)
        except ValueError:
            fi = math.nan
        fi_series.append((stop, fi))
        system_series.append((stop, system))
    return per_user, counts, system, fi_series, system_series


# credits: zeros, ordinary rates, ones whose squares overflow, and inf
CREDITS = {
    "rates": st.floats(0.0, 2e5),
    "zeros and rates": st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.0, 2e5),
    "squares overflow": st.floats(1e160, 1e300),
    "squares underflow": st.sampled_from([0.0, 5e-324]) | st.floats(0.0, 1e-170),
    "infinite ledger": st.sampled_from([0.0, 3.5, 1e300, INF]),
}


@st.composite
def runs(draw):
    n = draw(st.integers(1, 12))
    total = draw(st.integers(1, 160))
    s_fi = draw(st.integers(1, 12) | st.integers(total, total + 20) | st.just(1))
    if draw(st.booleans()):  # one user served throughout
        decisions = np.full(total, draw(st.integers(0, n - 1)))
    else:
        decisions = np.array(draw(st.lists(st.integers(0, n - 1), min_size=total, max_size=total)))
    decisions = decisions.astype(draw(st.sampled_from([np.int32, np.int64])))
    served = np.array(draw(st.lists(CREDITS[draw(st.sampled_from(sorted(CREDITS)))],
                                    min_size=total, max_size=total)), dtype=float)
    return decisions, served, n, s_fi


def same_floats(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestAccountMatchesIntervalLoop:
    @settings(max_examples=200, deadline=None, database=None)
    @given(runs())
    @example((np.zeros(7, dtype=np.int32), np.full(7, 5.0), 1, 1))              # s_fi 1, one user
    @example((np.arange(5) % 2, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2, 9))      # s_fi past the run
    @example((np.arange(10) % 3, np.arange(10.0), 3, 4))                        # zero rates, an uneven last interval
    @example((np.arange(6) % 2, np.full(6, 1e200), 2, 2))                       # the squares overflow
    @example((np.arange(6) % 2, np.array([1e-300, 0.0, 3e-200, 5e-324, 0.0, 1e-170]), 2, 2))  # ... or underflow
    @example((np.arange(6) % 3, np.array([1.0, INF, 2.0, 3.0, 4.0, 5.0]), 3, 2))  # an infinite ledger
    def test_series_bits_and_counts_bit_for_bit(self, case):
        decisions, served, n, s_fi = case
        log, stops, system, fi = account(decisions, served, n, s_fi)
        per_user, counts, want_system, fi_series, system_series = interval_loop_reference(decisions, served, n, s_fi)
        assert stops == [s for s, _ in fi_series] == [s for s, _ in system_series]
        assert all(type(s) is int for s in stops)
        assert same_floats(fi, [f for _, f in fi_series])
        assert same_floats(system, [b for _, b in system_series])
        assert same_floats(log.per_user_bits, per_user)
        assert log.schedule_counts.tolist() == counts.tolist()
        assert type(log.system_bits) is float and same_floats(log.system_bits, want_system)

    @settings(max_examples=100, deadline=None, database=None)
    @given(runs(), st.integers(1, 40))
    def test_any_block_size_gives_the_same_series(self, case, max_elements):
        decisions, served, n, s_fi = case
        stops = [*range(s_fi, len(decisions), s_fi), len(decisions)]
        want = [f for _, f in interval_loop_reference(decisions, served, n, s_fi)[3]]
        with np.errstate(over="ignore"):
            assert same_floats(ledger_fi(decisions, served, n, stops, max_elements), want)

    @pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
    @pytest.mark.parametrize("policy", ["pfa", "vpfa"])
    def test_a_run_is_credited_once_in_blocks_of_at_most_block_elements(self, policy, monkeypatch):
        calls, shapes = [], []
        record_slot, jain_rows = MetricsLog.record_slot, metrics._jain_rows
        monkeypatch.setattr(MetricsLog, "record_slot", lambda self, c, b: calls.append(len(c)) or record_slot(self, c, b))
        monkeypatch.setattr(metrics, "_jain_rows", lambda rows: shapes.append(rows.shape) or jain_rows(rows))
        res = run(SimConfig(policy=policy, n_users=300, total_slots=3000, vpfa=VpfaParams(s_fi=10)))
        assert calls == [3000]
        accounting = [s for s in shapes if s[0] > 1]  # the 1-row calls are vpfa's warm-up and jain()
        assert sum(rows for rows, _ in accounting) == len(res.fi_series) == 300
        assert all(rows * users <= BLOCK_ELEMENTS for rows, users in accounting)
        assert len(accounting) == math.ceil(300 / (BLOCK_ELEMENTS // 300))


@st.composite
def jain_blocks(draw):
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 6))
    pool = draw(st.sampled_from([
        st.floats(0.0, 1e6),
        st.sampled_from([0.0, 0.0, 2.0]),
        st.floats(1e160, 1.7e308),                       # the rescale branch
        st.sampled_from([0.0, 5e-324]) | st.floats(0.0, 1e-170),  # ... where the squares underflow
        st.sampled_from([0.0, 1.0, 1e300, INF]),         # infinite rows
        st.floats(0.0, 1e6) | st.floats(1e160, 1e300) | st.sampled_from([0.0, INF]),
    ]))
    return np.array(draw(st.lists(st.lists(pool, min_size=n, max_size=n), min_size=k, max_size=k)), dtype=float)


class TestJainRows:
    @settings(max_examples=200, deadline=None, database=None)
    @given(jain_blocks())
    @example(np.array([[1e200, 1e200, 0.0], [1e300, 1.0, 2.0]]))  # the rescale branch
    @example(np.array([[1e-200, 3e-300, 0.0], [5e-324, 0.0, 0.0]]))  # ... where the squares underflow
    @example(np.array([[INF, 1.0, 0.0], [INF, INF, INF]]))        # infinite rows: 1/N
    @example(np.array([[3.0], [0.0], [INF]]))                     # one user
    @example(np.array([[0.0, 0.0], [0.0, 4.0], [2.0, 2.0]]))      # zero entries, an all-zero row
    def test_each_row_equals_the_scalar_index(self, rows):
        got = _jain_rows(rows)
        assert got.shape == (len(rows),)
        for row, fi in zip(rows, got.tolist()):
            if not row.any():
                assert math.isnan(fi)
                with pytest.raises(ValueError, match="all-zero allocation"):
                    jain_index(row)
                continue
            assert same_floats(fi, scalar_jain_index(row))
            assert same_floats(fi, jain_index(row))

    def test_an_infinite_row_is_one_over_n(self):
        assert _jain_rows(np.array([[INF, 1.0, 0.0, 2.0]])).tolist() == [0.25]
        assert jain_index([INF, INF]) == 0.5

    def test_the_rescale_keeps_the_index_of_the_scaled_row(self):
        big, small = np.array([[3e200, 1e200, 0.0]]), np.array([[3.0, 1.0, 0.0]])
        assert _jain_rows(big)[0] == pytest.approx(_jain_rows(small)[0], rel=1e-15)
        tiny = np.array([[3e-200, 1e-200, 0.0]])  # its sum of squares underflows to 0
        assert _jain_rows(tiny)[0] == pytest.approx(_jain_rows(small)[0], rel=1e-15)
