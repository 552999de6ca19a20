"""Radio link model: COST-231 Hata path loss, lognormal shadowing, Rayleigh
fast fading and the Shannon rate map.

Everything here is a pure function of its arguments plus an explicit,
caller-supplied ``numpy.random.Generator``; there is no module-level state.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, check_bools, check_floats

# The Hata-family formulas degenerate at very short range; distances below
# this are clamped (with a warning) instead of extrapolated.
MIN_PATH_LOSS_DISTANCE_M = 20.0

THERMAL_NOISE_DBM_PER_HZ = -174.0

# The largest gain draw_fast_fading can return: numpy's ziggurat draws its
# tail as r - log1p(-U), with r its base strip's edge and U <= 1 - 2**-53.
MAX_FADING_GAIN = 7.69711747013104972 + 53 * math.log(2)

ENV_CLASSES = ("metro", "suburban")
PLACEMENT_MODES = ("uniform_ring", "equal_spacing")


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget constants for one cell.

    Defaults: 46 dBm downlink traffic power, 2 GHz carrier, 10 MHz system
    bandwidth, 1 km cell radius, 8 dB lognormal shadowing, 30 m / 1.5 m
    antenna heights, 9 dB receiver noise figure, 1 ms slots.
    """

    tx_power_dbm: float = 46.0
    carrier_freq_mhz: float = 2000.0
    bandwidth_hz: float = 10e6
    cell_radius_m: float = 1000.0
    shadowing_sigma_db: float = 8.0
    bs_height_m: float = 30.0
    ue_height_m: float = 1.5
    env_class: str = "metro"
    noise_figure_db: float = 9.0
    slot_duration_s: float = 1e-3
    fast_fading_enabled: bool = True

    def validate(self) -> None:
        # every float field, by its annotation; each one's name is its config key
        check_floats(**{f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"})
        check_bools(fast_fading=self.fast_fading_enabled)
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be > 0")
        if self.cell_radius_m <= 0:
            raise ConfigError("cell_radius_m must be > 0")
        if self.slot_duration_s <= 0:
            raise ConfigError("slot_duration_s must be > 0")
        if self.shadowing_sigma_db < 0:
            raise ConfigError("shadowing_sigma_db must be >= 0")
        if not 1500.0 <= self.carrier_freq_mhz <= 2000.0:
            raise ConfigError(
                "carrier_freq_mhz %g outside the COST-231 validity range [1500, 2000]"
                % self.carrier_freq_mhz
            )
        if not 30.0 <= self.bs_height_m <= 200.0:
            raise ConfigError("bs_height_m must be in [30, 200]")
        if not 1.0 <= self.ue_height_m <= 10.0:
            raise ConfigError("ue_height_m must be in [1, 10]")
        if self.env_class not in ENV_CLASSES:
            raise ConfigError("env_class must be one of %s" % (ENV_CLASSES,))

    def noise_dbm(self) -> float:
        """Receiver noise floor: thermal density over the system bandwidth plus noise figure."""
        return (
            THERMAL_NOISE_DBM_PER_HZ
            + 10.0 * math.log10(self.bandwidth_hz)
            + self.noise_figure_db
        )


@dataclass
class UserLink:
    """One user's static geometry plus its single shadowing draw (positions do not move)."""

    user_id: int
    distance_m: float
    shadowing_db: float = 0.0


def cost231_path_loss(distance_m: float, params: ChannelParams) -> float:
    """COST-231 Hata path loss in dB for a large-city urban deployment.

    PL = 46.3 + 33.9 log10(f) - 13.82 log10(h_b) - a(h_m)
         + (44.9 - 6.55 log10(h_b)) log10(d_km) + C

    with ``a(h_m)`` the large-city mobile antenna correction and C = 3 dB in
    the metro class, 0 dB suburban.  Valid for carriers in 1500..2000 MHz;
    distances below 20 m are clamped with a warning.  ``params`` is taken as
    ``ChannelParams.validate`` left it, and ``distance_m`` as finite and > 0.
    """
    if distance_m < MIN_PATH_LOSS_DISTANCE_M:
        warnings.warn(
            "distance %.3g m below the %.0f m model floor; clamping"
            % (distance_m, MIN_PATH_LOSS_DISTANCE_M),
            stacklevel=2,
        )
        distance_m = MIN_PATH_LOSS_DISTANCE_M

    f = params.carrier_freq_mhz
    h_b = params.bs_height_m
    h_m = params.ue_height_m
    a_hm = 3.2 * (math.log10(11.75 * h_m)) ** 2 - 4.97
    c_env = 3.0 if params.env_class == "metro" else 0.0
    return (
        46.3
        + 33.9 * math.log10(f)
        - 13.82 * math.log10(h_b)
        - a_hm
        + (44.9 - 6.55 * math.log10(h_b)) * math.log10(distance_m / 1000.0)
        + c_env
    )


def draw_shadowing(rng: np.random.Generator, sigma_db: float, size=None):
    """Zero-mean normal draw in dB (lognormal in linear power), std ``sigma_db``.

    One draw per user per simulation; positions are static so the shadow
    never re-rolls.
    """
    out = rng.normal(0.0, sigma_db, size=size)
    return float(out) if size is None else out


def draw_fast_fading(rng: np.random.Generator, size=None, out=None):
    """Unit-mean exponential power gain (Rayleigh amplitude fading), i.i.d. per user per slot, into ``out`` if given."""
    out = rng.standard_exponential(size=size, out=out)  # exactly rng.exponential(1.0, size), without the scale pass
    return float(out) if size is None else out


def snr(params: ChannelParams, link: UserLink, fading_gain: float = 1.0) -> float:
    """Linear SNR for one user: tx power minus path loss plus shadow, over the noise floor.

    ``fading_gain`` is a linear power multiplier (1.0 = no fast fading).
    An SNR past the float range is inf, and one below it 0: which link
    budgets run is the trace source's to decide.
    """
    pl = cost231_path_loss(link.distance_m, params)
    rx_dbm = params.tx_power_dbm - pl + link.shadowing_db
    margin_db = rx_dbm - params.noise_dbm()
    try:
        budget = 10.0 ** (margin_db / 10.0)
    except OverflowError:  # a float power raises where numpy's would give inf
        budget = math.inf
    return budget * fading_gain


def instantaneous_rate(snr_linear, params: ChannelParams, out=None):
    """Shannon rate over the full bandwidth, in bits per slot.

    rate = bandwidth * log2(1 + SNR) * slot_duration.  Accepts scalars or
    arrays; strictly increasing in SNR, and 0 at an SNR of 0, as a deep fade
    gives.  The SNRs are taken as >= 0, which the trace source proves before
    its first draw (a gain >= 0 times a link-budget SNR > 0); a rate past the
    float range is inf, with no warning.  ``out``, an array of the SNRs'
    shape, receives the rates in place of a fresh one.
    """
    arr = np.asarray(snr_linear, dtype=float)
    rate = np.add(arr, 1.0, out=np.empty(arr.shape) if out is None else out)  # one buffer, scaled in place
    np.log2(rate, out=rate)
    with np.errstate(over="ignore"):
        rate *= params.bandwidth_hz
        rate *= params.slot_duration_s
    return float(rate) if np.isscalar(snr_linear) else rate


def place_users(n: int, radius_m: float, mode: str, rng: np.random.Generator | None = None):
    """Distances from the base station for ``n`` users.

    ``equal_spacing`` puts user k at radius*k/n (k = 1..n, deterministic);
    ``uniform_ring`` draws distances with uniform area density over the disc.
    """
    if mode == "equal_spacing":
        # k counted up in floats: arange sizes its length in floats, which round the largest n past numpy's limit
        return radius_m * np.ones(n).cumsum() / n
    # 1 - U is uniform on (0, 1], keeping every distance strictly positive.
    return radius_m * np.sqrt(1.0 - rng.random(n))
