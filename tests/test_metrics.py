import numpy as np
import pytest

from schedsim.engine import SimConfig, channel_trace, run
from schedsim.metrics import MetricsLog, fi_stability_update, jain_index
from schedsim.sched import VpfaParams


def jain_oracle(values):
    # direct evaluation of the index definition, independent of the package path
    total = 0.0
    sum_sq = 0.0
    for v in values:
        total += v
        sum_sq += v * v
    return total * total / (len(values) * sum_sq)


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_index([5.0, 5.0, 5.0, 5.0]) == 1.0

    def test_single_winner_is_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == 0.25

    def test_two_user_example(self):
        assert jain_index([4.0, 2.0]) == pytest.approx(0.9, rel=1e-12)

    def test_matches_direct_oracle_on_random_vectors(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            v = rng.uniform(0.0, 1e6, size=n)
            v[rng.random(n) < 0.2] = 0.0
            if not v.any():
                v[0] = 1.0
            fi = jain_index(v)
            assert fi == pytest.approx(jain_oracle(v), rel=1e-12)
            assert 1.0 / n <= fi <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.1, 100.0, size=16)
        base = jain_index(v)
        for c in (1e-6, 2.0, 1e6):
            assert jain_index(c * v) == pytest.approx(base, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scale_invariance_where_the_squares_pass_the_float_range(self):
        v = np.random.default_rng(5).uniform(0.1, 100.0, size=16)
        for c in (1e160, 1e300):  # finite throughputs whose sum of squares is not
            assert jain_index(c * v) == pytest.approx(jain_index(v), rel=1e-12)
        assert jain_index([1e300, 0.0]) == 0.5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scale_invariance_where_the_squares_underflow_to_zero(self):
        v = np.random.default_rng(5).uniform(0.1, 100.0, size=16)
        for c in (1e-200, 1e-300):  # throughputs > 0 whose sum of squares is 0
            assert np.dot(c * v, c * v) == 0
            assert jain_index(c * v) == pytest.approx(jain_index(v), rel=1e-12)
        assert jain_index([5e-324, 0.0]) == 0.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(0.0, 10.0, size=12)
        v[0] = 3.0  # ensure not all-zero
        assert jain_index(v) == pytest.approx(jain_index(v[::-1]), rel=1e-12)
        assert jain_index(v) == pytest.approx(jain_index(np.sort(v)), rel=1e-12)

    def test_one_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.uniform(1.0, 10.0, size=8)
            v[3] *= 1.5  # clearly unequal
            assert jain_index(v) < 1.0
            assert jain_index(np.full(8, v[0])) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([0.0, 0.0])
        with pytest.raises(ValueError):
            jain_index([1.0, -2.0])


class TestFiStability:
    def test_cold_start_sets_one(self):
        assert fi_stability_update(0, None, 0.42) == (1, 0.42)
        assert fi_stability_update(0, 0.9, 0.1) == (1, 0.1)

    def test_small_change_increments(self):
        assert fi_stability_update(3, 0.80, 0.805) == (4, 0.805)

    def test_large_change_resets(self):
        assert fi_stability_update(3, 0.80, 0.85) == (0, 0.85)

    def test_signed_mode_counts_increases_as_stable(self):
        # raw difference last - fi = -0.05 < 0.01 counts as stable
        assert fi_stability_update(3, 0.80, 0.85, signed=True) == (4, 0.85)
        assert fi_stability_update(3, 0.85, 0.80, signed=True) == (0, 0.80)

    def test_never_jumps_by_more_than_one(self):
        rng = np.random.default_rng(9)
        c_s, last = 0, None
        for _ in range(500):
            fi = float(rng.random())
            nxt, last = fi_stability_update(c_s, last, fi)
            assert nxt <= c_s + 1
            c_s = nxt


class TestMetricsLog:
    def test_first_record(self):
        log = MetricsLog(3)
        log.record_slot(0, 100.0)
        assert list(log.per_user_bits) == [100.0, 0.0, 0.0]
        assert list(log.schedule_counts) == [1, 0, 0]
        assert log.system_bits == 100.0

    def test_additivity(self):
        log = MetricsLog(2)
        log.record_slot(1, 50.0)
        log.record_slot(1, 50.0)
        assert log.per_user_bits[1] == 100.0
        assert log.schedule_counts[1] == 2

    def test_system_counter_matches_per_user_sum(self):
        rng = np.random.default_rng(10)
        log = MetricsLog(5)
        for _ in range(200):
            log.record_slot(int(rng.integers(5)), float(rng.uniform(0, 1000)))
        assert log.system_bits == pytest.approx(log.per_user_bits.sum(), rel=1e-12)
        assert log.schedule_counts.sum() == 200

    def test_out_of_range_user_rejected(self):
        log = MetricsLog(2)
        with pytest.raises(IndexError):
            log.record_slot(2, 1.0)
        with pytest.raises(IndexError):
            log.record_slot(-1, 1.0)

    def test_jain_shortcut(self):
        log = MetricsLog(2)
        log.record_slot(0, 4.0)
        log.record_slot(1, 2.0)
        assert log.jain() == pytest.approx(0.9, rel=1e-12)

    def test_block_out_of_range_user_rejected(self):
        log = MetricsLog(3)
        with pytest.raises(IndexError):
            log.record_slot(np.array([0, 3, 1]), np.ones(3))
        with pytest.raises(IndexError):
            log.record_slot(np.array([0, -1]), np.ones(2))
        assert not log.schedule_counts.any() and log.system_bits == 0.0

    def test_negative_bits_rejected(self):
        log = MetricsLog(3)
        with pytest.raises(ValueError):
            log.record_slot(0, -1.0)
        with pytest.raises(ValueError):
            log.record_slot(np.array([0, 1]), np.array([5.0, -0.5]))
        assert not log.per_user_bits.any()

    def test_bits_count_must_match_slots(self):
        log = MetricsLog(3)
        with pytest.raises(ValueError):
            log.record_slot(np.array([0, 1, 2]), 5.0)


def per_slot_reference(n, chosen, bits, cadence):
    """Running += per slot, in plain Python floats; system bits sampled at
    each slot number in ``cadence``."""
    per_user, counts, system, samples = [0.0] * n, [0] * n, 0.0, []
    for t, (c, b) in enumerate(zip(chosen, bits), start=1):
        per_user[c] += float(b)
        counts[c] += 1
        system += float(b)
        if t in cadence:
            samples.append(system)
    return per_user, counts, system, samples


class TestRecordSlotBlocks:
    @pytest.mark.parametrize("total,s_fi", [(1000, 100), (1037, 100), (50, 7), (5, 9)])
    def test_segments_match_per_slot_reference(self, total, s_fi):
        rng = np.random.default_rng(total)
        chosen = rng.integers(0, 6, size=total)
        bits = rng.uniform(0.0, 1e5, size=total)
        log = MetricsLog(6)
        samples = []
        for start in range(0, total, s_fi):
            stop = min(start + s_fi, total)
            log.record_slot(chosen[start:stop], bits[start:stop])
            samples.append(log.system_bits)
        cadence = set(range(s_fi, total + 1, s_fi)) | {total}
        per_user, counts, system, ref_samples = per_slot_reference(6, chosen, bits, cadence)
        assert log.per_user_bits.tolist() == per_user
        assert log.schedule_counts.tolist() == counts
        assert log.system_bits == system
        assert samples == ref_samples

    @pytest.mark.parametrize("policy", ["pfa", "dpfa", "maxci", "rr", "vpfa"])
    def test_run_accounting_matches_per_slot_reference(self, policy):
        # 1037 slots: the last FI segment is a partial one
        cfg = SimConfig(policy=policy, n_users=6, total_slots=1037, seed=2, vpfa=VpfaParams(s_fi=50))
        res = run(cfg)
        rates = channel_trace(cfg).rates
        bits = rates[np.arange(cfg.total_slots), res.decisions]
        cadence = set(range(50, 1038, 50)) | {1037}
        per_user, counts, system, samples = per_slot_reference(6, res.decisions, bits, cadence)
        assert res.metrics.per_user_bits.tolist() == per_user
        assert res.metrics.schedule_counts.tolist() == counts
        assert res.metrics.system_bits == system
        assert [b for _, b in res.system_series] == samples
        assert [s for s, _ in res.system_series] == sorted(cadence)


NAN, INF = float("nan"), float("inf")


class TestValidationParity:
    """Each input ``record_slot`` and ``jain_index`` reject, with the error
    and the untouched state; each one they accept, with what it records."""

    @pytest.mark.parametrize("chosen,bits,error,match", [
        ([0, 1], [1.0, -2.0], ValueError, "delivered_bits must be >= 0"),
        ([5], [-1.0], IndexError, "out of range"),  # the user check comes first
        ([3], [1.0], IndexError, "out of range"),
        ([-1], [1.0], IndexError, "out of range"),
        ([0, 1], [1.0], ValueError, "1 delivered_bits values for 2 slots"),
        ([0], [1.0, 2.0], ValueError, "2 delivered_bits values for 1 slots"),
        (np.array([], dtype=np.int64), [1.0], ValueError, "1 delivered_bits values for 0 slots"),
        ([], [], IndexError, "integer"),  # an empty list is not an integer array
        (np.array([0.0, 1.0]), [1.0, 2.0], IndexError, "integer"),
        (np.array([True, False]), [1.0, 2.0], IndexError, "boolean index"),
        (np.array([[0, 1]]), np.array([[1.0, 2.0]]), ValueError, "1-D"),
    ], ids=["negative bits", "range before sign", "user n", "user -1", "fewer bits", "more bits",
            "bits for no slots", "empty list", "float users", "bool users", "2-D run"])
    def test_rejected_runs_leave_the_log_unchanged(self, chosen, bits, error, match):
        log = MetricsLog(3)
        log.record_slot([1], [4.0])
        with pytest.raises(error, match=match):
            log.record_slot(chosen, bits)
        assert log.per_user_bits.tolist() == [0.0, 4.0, 0.0]
        assert log.schedule_counts.tolist() == [0, 1, 0]
        assert log.system_bits == 4.0

    @pytest.mark.parametrize("chosen,bits,per_user,counts,system", [
        (np.array([], dtype=np.int64), np.array([]), [0.0, 0.0, 0.0], [0, 0, 0], 0.0),
        (2, 5.0, [0.0, 0.0, 5.0], [0, 0, 1], 5.0),
        (np.array([0, 2], dtype=np.int32), np.array([1.0, 2.0]), [1.0, 0.0, 2.0], [1, 0, 1], 3.0),
        ([0], [-0.0], [0.0, 0.0, 0.0], [1, 0, 0], 0.0),
        ([0], [INF], [INF, 0.0, 0.0], [1, 0, 0], INF),
    ], ids=["empty run", "scalar", "int32 users", "negative zero", "inf"])
    def test_accepted_runs(self, chosen, bits, per_user, counts, system):
        log = MetricsLog(3)
        log.record_slot(chosen, bits)
        assert log.per_user_bits.tolist() == per_user
        assert log.schedule_counts.tolist() == counts
        assert log.system_bits == system

    def test_nan_bits_are_recorded(self):
        log = MetricsLog(3)
        log.record_slot([0], [NAN])
        assert np.isnan(log.per_user_bits[0]) and np.isnan(log.system_bits)
        assert log.schedule_counts.tolist() == [1, 0, 0]

    @pytest.mark.parametrize("values,match", [
        ([], "non-empty 1-D"),
        ([[1.0]], "non-empty 1-D"),
        (5.0, "non-empty 1-D"),
        ([1.0, -2.0], "non-negative"),
        ([-INF, 1.0], "non-negative"),
        ([0.0, 0.0], "all-zero"),
    ])
    def test_jain_rejects(self, values, match):
        with pytest.raises(ValueError, match=match):
            jain_index(values)

    @pytest.mark.parametrize("values", [[NAN, 1.0], [INF, 1.0], [-0.0, 1.0]])
    def test_jain_accepts_non_negative_and_nan(self, values):
        # nan and inf pass the sign check; the clamp then yields 1/N
        assert jain_index(values) == 0.5

    def test_system_bits_is_a_running_sum(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            log, want = MetricsLog(4), 0.0
            for _ in range(int(rng.integers(1, 6))):
                size = int(rng.integers(0, 30))
                bits = rng.uniform(0.0, 1e6, size=size) * 10.0 ** rng.integers(-3, 12, size=size)
                log.record_slot(rng.integers(0, 4, size=size), bits)
                for b in bits.tolist():
                    want += b
            assert log.system_bits == want



def reference_record_slot(log, chosen, delivered_bits):
    """``MetricsLog.record_slot`` with its checks stated through ndarray.min
    and .max, the form the argmin/argmax extremes must agree with."""
    chosen = np.atleast_1d(chosen)
    bits = np.atleast_1d(np.asarray(delivered_bits, dtype=float))
    if chosen.size and not (0 <= chosen.min() and chosen.max() < log.n_users):
        raise IndexError("chosen user out of range [0, %d)" % log.n_users)
    if bits.shape != chosen.shape:
        raise ValueError("%d delivered_bits values for %d slots" % (bits.size, chosen.size))
    if bits.size and bits.min() < 0:
        raise ValueError("delivered_bits must be >= 0")
    if chosen.ndim != 1:
        raise ValueError("chosen must be one user or a 1-D run of users")
    np.add.at(log.per_user_bits, chosen, bits)
    np.add.at(log.schedule_counts, chosen, 1)
    for b in bits.tolist():
        log.system_bits += b


def reference_jain_index(throughputs) -> float:
    arr = np.asarray(throughputs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("throughputs must be a non-empty 1-D sequence")
    if arr.min() < 0:
        raise ValueError("throughputs must be non-negative")
    sum_sq = float(np.dot(arr, arr))
    if sum_sq == 0.0 and arr.max() > 0:  # squares that underflow: the index of the values over their largest
        arr = arr / arr.max()
        sum_sq = float(np.dot(arr, arr))
    if sum_sq == 0.0:
        raise ValueError("fairness index undefined for an all-zero allocation")
    n = arr.size
    total = float(arr.sum())
    return min(1.0, max(1.0 / n, total * total / (n * sum_sq)))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (IndexError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def random_values(rng, size):
    """Non-negative values with nan, inf, -0.0 and negatives mixed in."""
    values = rng.uniform(0.0, 1e6, size=size)
    specials = np.array([NAN, INF, -INF, -0.0, 0.0, -1.0, -1e-300])
    pick = rng.random(size) < 0.2
    values[pick] = rng.choice(specials, size=int(pick.sum()))
    return values


class TestExtremesParity:
    """record_slot and jain_index read extremes by argmin/argmax and sum by
    np.add.reduce; they accept and reject exactly what the ndarray.min/max
    and .sum forms do, with the same messages and the same recorded state."""

    def test_record_slot_matches_reference(self):
        rng = np.random.default_rng(19)
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            size = int(rng.integers(0, 7))
            chosen = rng.integers(-2, n + 2, size=size)
            if rng.random() < 0.1:
                chosen = chosen.astype(float)
            elif rng.random() < 0.1:
                chosen = chosen.reshape(1, -1)
            bits = random_values(rng, size + int(rng.random() < 0.1))
            if chosen.ndim == 2 and rng.random() < 0.5:
                bits = bits.reshape(1, -1)
            got, want = MetricsLog(n), MetricsLog(n)
            with np.errstate(all="ignore"):
                assert outcome(got.record_slot, chosen, bits) == outcome(reference_record_slot, want, chosen, bits)
            np.testing.assert_array_equal(got.per_user_bits, want.per_user_bits)
            assert got.schedule_counts.tolist() == want.schedule_counts.tolist()
            assert got.system_bits == pytest.approx(want.system_bits, nan_ok=True, rel=0)

    def test_jain_index_matches_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(3000):
            values = random_values(rng, int(rng.integers(0, 40)))
            if rng.random() < 0.3:
                values = np.where(rng.random(values.size) < 0.5, values, 0.0)  # zeros, sometimes all
            for scaled in (values, values * 1e-300):  # the second's squares underflow to 0
                with np.errstate(all="ignore"):  # inf - inf once a nan hides the -inf
                    got, want = outcome(jain_index, scaled), outcome(reference_jain_index, scaled)
                assert got[0] == want[0]
                assert got[1] == want[1] or (got[1] != got[1] and want[1] != want[1])

    @pytest.mark.parametrize("bits", [[NAN, -1.0], [-1.0, NAN]])
    def test_nan_hides_a_negative_as_min_does(self, bits):
        # ndarray.min returns nan here, and nan < 0 is false; argmin lands on the nan too
        log = MetricsLog(2)
        log.record_slot([0, 1], bits)
        assert log.schedule_counts.tolist() == [1, 1]
        assert jain_index(bits) == 0.5
