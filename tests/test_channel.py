import ctypes
import math
import threading

import numpy as np
import pytest

from schedsim.channel import (
    MAX_FADING_GAIN,
    ChannelParams,
    UserLink,
    cost231_path_loss,
    draw_fast_fading,
    draw_shadowing,
    instantaneous_rate,
    place_users,
    snr,
)
from schedsim.engine import SimConfig
from schedsim.errors import ConfigError

# Independent hand evaluation of the COST-231 formula at the reference point
# (1 km, 2000 MHz, h_b 30 m, h_m 1.5 m, metro), frozen before implementation.
PL_1KM_METRO = 140.79202015973772
DECADE_SLOPE_HB30 = 35.224855781586214


def default_params(**kw):
    return ChannelParams(**kw)


class BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``: a state pointer and four draw functions."""

    _fields_ = [("state", ctypes.c_void_p),
                ("next_uint64", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
                ("next_uint32", ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)),
                ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)),
                ("next_raw", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p))]


class Words:
    """A bit generator that hands out the given 64-bit words, in order, as
    ``np.random.Generator`` takes one: a ``"BitGenerator"`` capsule of a
    ``bitgen_t`` and a lock.  A double is a word's top 53 bits times 2**-53,
    as numpy's own bit generators make it."""

    def __init__(self, words):
        word = iter(words).__next__
        funcs = (lambda _: word(), lambda _: word() >> 32, lambda _: (word() >> 11) * 2.0 ** -53, lambda _: word())
        self._funcs = [kind(f) for (_, kind), f in zip(BitGen._fields_[1:], funcs)]  # kept alive for numpy
        self._bitgen = BitGen(None, *self._funcs)
        new = ctypes.pythonapi.PyCapsule_New
        new.restype, new.argtypes = ctypes.py_object, [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p]
        self.capsule = new(ctypes.addressof(self._bitgen), b"BitGenerator", None)
        self.lock = threading.Lock()


class TestCost231:
    def test_spot_value_1km_metro(self):
        pl = cost231_path_loss(1000.0, default_params())
        assert pl == pytest.approx(PL_1KM_METRO, abs=1e-9)
        assert abs(pl - 140.8) < 0.1

    def test_suburban_is_exactly_3db_below_metro(self):
        metro = cost231_path_loss(1000.0, default_params(env_class="metro"))
        sub = cost231_path_loss(1000.0, default_params(env_class="suburban"))
        assert metro - sub == pytest.approx(3.0, abs=1e-12)

    def test_one_decade_distance_slope(self):
        p = default_params()
        diff = cost231_path_loss(1000.0, p) - cost231_path_loss(100.0, p)
        assert diff == pytest.approx(DECADE_SLOPE_HB30, abs=1e-9)

    def test_short_range_clamps_with_warning(self):
        p = default_params()
        with pytest.warns(UserWarning):
            clamped = cost231_path_loss(5.0, p)
        assert clamped == cost231_path_loss(20.0, p)

    def test_strictly_increasing_in_distance(self):
        p = default_params()
        d = np.linspace(20.0, 2000.0, 100)
        pl = [cost231_path_loss(x, p) for x in d]
        assert all(b > a for a, b in zip(pl, pl[1:]))

    def test_finite_positive_over_valid_range(self):
        p = default_params()
        for d in (20.0, 100.0, 999.0, 5000.0):
            pl = cost231_path_loss(d, p)
            assert math.isfinite(pl) and pl > 0


class TestShadowing:
    def test_sigma_zero_is_degenerate(self):
        rng = np.random.default_rng(1)
        assert draw_shadowing(rng, 0.0) == 0.0

    def test_sample_statistics(self):
        rng = np.random.default_rng(7)
        draws = draw_shadowing(rng, 8.0, size=100_000)
        assert abs(draws.mean()) < 0.1
        assert abs(draws.std() - 8.0) < 0.2

    def test_seed_determinism(self):
        a = draw_shadowing(np.random.default_rng(42), 8.0)
        b = draw_shadowing(np.random.default_rng(42), 8.0)
        assert a == b


class TestFastFading:
    def test_unit_mean(self):
        rng = np.random.default_rng(3)
        draws = draw_fast_fading(rng, size=100_000)
        assert abs(draws.mean() - 1.0) < 0.02

    def test_strictly_positive(self):
        rng = np.random.default_rng(4)
        assert np.all(draw_fast_fading(rng, size=100_000) > 0)

    def test_the_largest_gain_is_max_fading_gain(self):
        # the first word has ziggurat index 0 and no bit below it, so the draw takes the
        # tail, r - log1p(-U), and the second word gives its largest U, 1 - 2**-53
        rng = np.random.Generator(Words([0xFFFFFFFFFFFFF807, 0xFFFFFFFFFFFFFFFF]))
        assert draw_fast_fading(rng) == MAX_FADING_GAIN == 44.43391803980815

    def test_an_all_zero_word_gives_gain_0(self):
        assert draw_fast_fading(np.random.Generator(Words([0]))) == 0.0

    def test_draws_equal_unit_scale_exponential(self):
        # the same values and the same stream position as rng.exponential(1.0, size)
        got, want = np.random.default_rng(5), np.random.default_rng(5)
        assert np.array_equal(draw_fast_fading(got, size=(300, 40)), want.exponential(1.0, size=(300, 40)))
        assert draw_fast_fading(got) == want.exponential(1.0)
        assert got.random() == want.random()


class TestSnr:
    def test_zero_db_when_rx_equals_noise(self):
        p = default_params()
        pl = cost231_path_loss(700.0, p)
        # pick the shadow that lands the rx power exactly on the noise floor
        link = UserLink(0, 700.0, shadowing_db=p.noise_dbm() - p.tx_power_dbm + pl)
        assert snr(p, link, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_link_budget_chain(self):
        # tx 46 dBm, PL 140.79202... dB, shadow 0, noise floor -95 dBm for
        # 10 MHz and NF 9 dB; chain frozen from hand arithmetic.
        p = default_params()
        assert p.noise_dbm() == pytest.approx(-95.0, abs=1e-12)
        expected = 10.0 ** ((46.0 - PL_1KM_METRO + 95.0) / 10.0)
        assert snr(p, UserLink(0, 1000.0, 0.0), 1.0) == pytest.approx(expected, rel=1e-12)
        # sanity figure for a round 140.8 dB loss
        assert 10.0 ** ((46.0 - 140.8 + 95.0) / 10.0) == pytest.approx(1.047, abs=1e-3)

    def test_fading_gain_is_multiplicative(self):
        p = default_params()
        link = UserLink(0, 400.0, 2.5)
        assert snr(p, link, 2.0) == 2.0 * snr(p, link, 1.0)

    def test_equal_distance_equal_snr(self):
        p = default_params()
        a = snr(p, UserLink(0, 650.0, 0.0), 1.0)
        b = snr(p, UserLink(1, 650.0, 0.0), 1.0)
        assert a == b

    @pytest.mark.parametrize("tx_power_dbm,expected", [(3200.0, math.inf), (-3300.0, 0.0)])
    def test_past_the_float_range_is_inf_and_below_it_0(self, tx_power_dbm, expected):
        # the trace source, not the link math, rejects such a link budget (test_stream)
        assert snr(default_params(tx_power_dbm=tx_power_dbm), UserLink(0, 500.0, 0.0), 1.0) == expected


class TestRate:
    def test_reference_point(self):
        p = default_params()
        assert instantaneous_rate(1.0, p) == 10_000.0

    def test_snr_three_doubles_the_zero_db_rate(self):
        p = default_params()
        assert instantaneous_rate(3.0, p) == 2.0 * instantaneous_rate(1.0, p)

    def test_vanishes_at_low_snr(self):
        p = default_params()
        assert instantaneous_rate(1e-12, p) < 1e-4 * instantaneous_rate(1.0, p)

    def test_strictly_increasing(self):
        p = default_params()
        s = np.logspace(-3, 4, 50)
        r = instantaneous_rate(s, p)
        assert np.all(np.diff(r) > 0)

    def test_zero_snr_is_rate_zero(self):
        # a fade can take an SNR below the float range, to 0; Shannon's rate there is 0
        p = default_params()
        assert instantaneous_rate(0.0, p) == 0.0
        assert instantaneous_rate(np.array([0.0, -0.0, 1.0]), p).tolist() == [0.0, 0.0, 10_000.0]

    @pytest.mark.parametrize("snrs,nonpositive", [
        ([math.nan, -0.0], True), ([0.0, math.nan], True), ([math.nan, 0.0], True),
        ([math.nan, 1.0], False), ([math.inf, 1.0], False), ([-0.0], True), ([], False),
    ])
    def test_sign_check_is_any_le_zero(self, snrs, nonpositive):
        # the trace source proves every SNR >= 0, so the rate map has no sign
        # check: an SNR <= 0 (0 or -0.0) gives rate 0 and a nan passes as nan,
        # whichever comes first
        arr = np.array(snrs)
        assert bool(np.any(arr <= 0)) == nonpositive
        rates = instantaneous_rate(arr, default_params())
        assert rates.shape == arr.shape and np.array_equal(rates == 0, arr <= 0)
        assert np.array_equal(np.isnan(rates), np.isnan(arr))

    @pytest.mark.parametrize("key,value", [("slot_duration_s", 1e305), ("bandwidth_hz", 1e307)])
    def test_rate_past_the_float_range_is_inf(self, key, value):
        # the trace source, not the rate map, rejects such a link budget (test_cli, test_stream)
        assert instantaneous_rate(np.array([1.0, 1e9]), default_params(**{key: value}))[1] == math.inf

    def test_dimension_sanity(self):
        # bits per slot = bandwidth * slot * log2(1 + SNR) on fixed inputs
        p = default_params(bandwidth_hz=5e6, slot_duration_s=2e-3)
        assert instantaneous_rate(7.0, p) == pytest.approx(5e6 * 2e-3 * 3.0, rel=1e-12)


class TestPlacement:
    def test_equal_spacing_progression(self):
        d = place_users(10, 1000.0, "equal_spacing")
        assert np.allclose(d, np.arange(100.0, 1100.0, 100.0))

    def test_single_user_at_radius(self):
        assert place_users(1, 1000.0, "equal_spacing")[0] == 1000.0

    def test_zero_users_rejected(self):
        # by the config, which place_users trusts
        with pytest.raises(ConfigError, match="n_users"):
            SimConfig(n_users=0, placement="equal_spacing").validate()

    def test_uniform_ring_area_density(self):
        rng = np.random.default_rng(11)
        d = place_users(100_000, 1000.0, "uniform_ring", rng)
        assert np.all((d > 0) & (d <= 1000.0))
        frac_inner = np.mean(d <= 500.0)
        assert abs(frac_inner - 0.25) < 0.01

    def test_unknown_mode_rejected(self):
        # by the config, which place_users trusts
        with pytest.raises(ConfigError, match="placement"):
            SimConfig(n_users=4, placement="grid").validate()


class TestParamsValidation:
    def test_defaults_valid(self):
        default_params().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(bandwidth_hz=0.0),
            dict(cell_radius_m=-1.0),
            dict(slot_duration_s=0.0),
            dict(shadowing_sigma_db=-2.0),
            dict(carrier_freq_mhz=1200.0),
            dict(env_class="rural"),
            dict(tx_power_dbm=float("inf")),
            dict(bandwidth_hz=float("nan")),
            dict(noise_figure_db=float("nan")),
            dict(slot_duration_s=float("nan")),
            dict(shadowing_sigma_db=float("nan")),
            dict(cell_radius_m=float("inf")),
            dict(carrier_freq_mhz=900.0),
            dict(bs_height_m=10.0),
        ],
    )
    def test_bad_params_rejected(self, kw):
        with pytest.raises(ConfigError):
            default_params(**kw).validate()
