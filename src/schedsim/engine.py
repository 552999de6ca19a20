"""Block driver: channel traces in, scheduler decisions and metrics out.

A run is a pure function of its :class:`SimConfig` (the seed included): user
placement, shadowing and the whole per-slot fading matrix are drawn up front
in a fixed order from one generator, so the rate trace never depends on the
policy under test and a comparison draws it once.  The run walks the trace
in segments ending at the fairness-index evaluations, one call per segment.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    PLACEMENT_MODES,
    ChannelParams,
    UserLink,
    draw_fast_fading,
    draw_shadowing,
    instantaneous_rate,
    place_users,
    snr,
)
from .errors import ConfigError, check_finite
from .metrics import MetricsLog, jain_index
from .sched import POLICIES, DpfaParams, VpfaParams, make_scheduler

# A segment holds at most this many (slot, user) trace elements, or one slot.
BLOCK_ELEMENTS = 32768

# A trace's placement when caller links replaced the drawn geometry; no config has it.
CALLER_LINKS = "caller links"

# "Cell edge" for the timer threshold default: the SNR a user would see at
# this fraction of the cell radius with no shadowing and no fading.
DELTA_REFERENCE_RADIUS_FRACTION = 0.6


@dataclass
class SimConfig:
    """Full description of one experiment; two equal configs give bit-equal results."""

    channel: ChannelParams = field(default_factory=ChannelParams)
    n_users: int = 10
    placement: str = "equal_spacing"
    policy: str = "pfa"
    total_slots: int = 20000
    seed: int = 0
    tc_mode: str = "fixed"
    tc_slots: float = 1000.0
    dpfa: DpfaParams = field(default_factory=DpfaParams)
    vpfa: VpfaParams = field(default_factory=VpfaParams)

    def validate(self) -> None:
        self.channel.validate()
        if self.n_users < 1:
            raise ConfigError("n_users must be >= 1")
        if self.total_slots < 1:
            raise ConfigError("total_slots must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.placement not in PLACEMENT_MODES:
            raise ConfigError("placement must be one of %s" % (PLACEMENT_MODES,))
        if self.policy not in POLICIES:
            raise ConfigError("policy must be one of %s" % (POLICIES,))
        if self.tc_mode not in ("fixed", "growing"):
            raise ConfigError("tc_mode must be 'fixed' or 'growing'")
        check_finite(tc_slots=self.tc_slots)
        if self.tc_mode == "fixed" and self.tc_slots < 1:
            raise ConfigError("tc_slots must be >= 1")
        self.dpfa.validate()
        self.vpfa.validate()


@dataclass
class SimResult:
    """Everything a report needs, plus the resolved config that reproduces it."""

    config: SimConfig
    links: list[UserLink]
    decisions: np.ndarray          # chosen user per slot
    metrics: MetricsLog
    fi_series: list                # (slot, fi) samples, 1-indexed slots
    system_series: list            # (slot, cumulative bits)
    phase_switch_slot: int | None  # first variance-phase slot (vpfa only)
    vpfa_warmup_bits: np.ndarray | None = None      # per-user bits at the switch
    vpfa_variance_counts: np.ndarray | None = None  # schedule counts after it

    def per_user_rows(self):
        """(user_id, distance_m, schedule_count, cumulative_bits) per user."""
        counts, bits = self.metrics.schedule_counts, self.metrics.per_user_bits
        return [(l.user_id, l.distance_m, int(counts[k]), float(bits[k])) for k, l in enumerate(self.links)]


TRACE_FIELDS = ("channel", "n_users", "placement", "seed", "total_slots")


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """One drawn channel trace and the config fields it was drawn for."""

    channel: ChannelParams
    n_users: int
    placement: str  # or CALLER_LINKS
    seed: int
    total_slots: int
    links: list[UserLink]
    snrs: np.ndarray   # (slots x users) linear SNR
    rates: np.ndarray  # (slots x users) bits per slot

    def check(self, config: SimConfig) -> None:
        """Reject a config this trace was not drawn for."""
        for name in TRACE_FIELDS:
            drawn, wanted = getattr(self, name), getattr(config, name)
            if drawn != wanted:
                raise ConfigError("trace was drawn for %s %r, not %r" % (name, drawn, wanted))


def resolve_delta(channel: ChannelParams) -> float:
    """Default edge/center SNR threshold: the deterministic link-budget SNR
    at 60% of the cell radius (shadowing and fading excluded)."""
    ref = UserLink(-1, DELTA_REFERENCE_RADIUS_FRACTION * channel.cell_radius_m, 0.0)
    return snr(channel, ref, 1.0)


def resolved_config(config: SimConfig) -> SimConfig:
    """Copy of the config with every derived default filled in."""
    out = dataclasses.replace(
        config,
        channel=dataclasses.replace(config.channel),
        dpfa=dataclasses.replace(config.dpfa),
        vpfa=dataclasses.replace(config.vpfa),
    )
    if out.dpfa.delta is None:
        out.dpfa.delta = resolve_delta(out.channel)
    return out


def channel_trace(config: SimConfig, links: list[UserLink] | None = None) -> ChannelTrace:
    """Links plus the (slots x users) SNR and rate matrices for a config.

    Depends only on the fields in ``TRACE_FIELDS``; running it for two
    configs that differ only in policy gives identical matrices.
    Caller-supplied ``links`` (custom geometries) skip the placement and
    shadowing draws, so their fading starts at the head of the seed's stream.
    """
    rng = np.random.default_rng(config.seed)
    placement = config.placement if links is None else CALLER_LINKS
    if links is None:
        distances = place_users(config.n_users, config.channel.cell_radius_m, config.placement, rng)
        shadows = draw_shadowing(rng, config.channel.shadowing_sigma_db, size=config.n_users)
        links = [UserLink(k, float(d), float(s)) for k, (d, s) in enumerate(zip(distances, shadows))]
    elif len(links) != config.n_users:
        raise ConfigError("got %d links for n_users %d" % (len(links), config.n_users))
    base = np.array([snr(config.channel, link, 1.0) for link in links])
    if config.channel.fast_fading_enabled:
        snrs = draw_fast_fading(rng, size=(config.total_slots, len(links)))
    else:
        snrs = np.ones((config.total_slots, len(links)))
    try:
        with np.errstate(over="raise"):  # the flag costs no pass over the trace
            snrs *= base
    except FloatingPointError:
        t, k = divmod(int(np.argmax(snrs == math.inf)), len(links))  # the first (slot, user) past the range
        raise ConfigError("SNR overflows a float: tx_power_dbm %g puts user %d %.1f dB above the noise floor,"
                          " and the fading at slot %d takes its SNR past the float range"
                          % (config.channel.tx_power_dbm, k, 10.0 * math.log10(base[k]), t + 1)) from None
    return ChannelTrace(dataclasses.replace(config.channel), config.n_users, placement, config.seed,
                        config.total_slots, links, snrs, instantaneous_rate(snrs, config.channel))


def run(config: SimConfig, links: list[UserLink] | None = None, trace: ChannelTrace | None = None) -> SimResult:
    """Execute one simulation; deterministic in (config, seed, links).

    ``links`` replaces the drawn geometry as in :func:`channel_trace`.
    ``trace`` is one already drawn for this config; any other is rejected.
    """
    config.validate()
    cfg = resolved_config(config)
    if trace is None:
        trace = channel_trace(cfg, links)
    elif links is not None:
        raise ConfigError("pass links or a trace, not both")
    else:
        trace.check(cfg)
    n, total, s_fi = cfg.n_users, cfg.total_slots, cfg.vpfa.s_fi
    block = max(1, min(s_fi, BLOCK_ELEMENTS // n))
    rates, snrs = trace.rates, trace.snrs
    row_starts = np.arange(0, block * n, n)  # a segment's flat index of (slot, user 0)

    scheduler = make_scheduler(cfg.policy, n, cfg.dpfa, cfg.vpfa, cfg.tc_mode, cfg.tc_slots)
    log = MetricsLog(n)
    decisions = np.empty(total, dtype=np.int32)
    fi_series: list[tuple[int, float]] = []
    system_series: list[tuple[int, float]] = []
    phase_switch_slot = warmup_bits = counts_at_switch = None

    start = 0
    while start < total:
        # no segment crosses an FI evaluation, so vpfa switches on a segment edge
        stop = min(start + block, (start // s_fi + 1) * s_fi, total)
        segment = rates[start:stop]
        chosen = scheduler.step(segment, snrs[start:stop])
        decisions[start:stop] = chosen
        log.record_slot(chosen, segment.reshape(-1).take(chosen + row_starts[:stop - start]))
        start = stop

        on_cadence = stop % s_fi == 0
        if on_cadence or stop == total:
            if log.system_bits == 0:
                if not rates.any():
                    raise ConfigError("no bits were delivered: every rate is 0 under this link budget "
                                      "(tx_power_dbm %g, bandwidth_hz %g, noise_figure_db %g)"
                                      % (cfg.channel.tx_power_dbm, cfg.channel.bandwidth_hz,
                                         cfg.channel.noise_figure_db))
                raise ConfigError("fairness index undefined at slot %d: no bits were delivered yet; "
                                  "users with rate 0 in every slot so far: %s"
                                  % (stop, _user_list(np.flatnonzero(~rates[:stop].any(axis=0)))))
            fi = jain_index(log.per_user_bits)
            fi_series.append((stop, fi))
            system_series.append((stop, log.system_bits))
            if cfg.policy == "vpfa" and on_cadence and scheduler.observe_fi(fi):
                phase_switch_slot = stop + 1
                warmup_bits = log.per_user_bits.copy()
                counts_at_switch = log.schedule_counts.copy()

    variance_counts = None if counts_at_switch is None else log.schedule_counts - counts_at_switch
    return SimResult(config=cfg, links=trace.links, decisions=decisions, metrics=log, fi_series=fi_series,
                     system_series=system_series, phase_switch_slot=phase_switch_slot,
                     vpfa_warmup_bits=warmup_bits, vpfa_variance_counts=variance_counts)


def _user_list(users, shown: int = 10) -> str:
    """User indices for a message, the first ``shown`` of them and a count of the rest."""
    text = ", ".join(str(k) for k in users[:shown]) or "none"
    return text + (" and %d more" % (len(users) - shown) if len(users) > shown else "")


# ---------------------------------------------------------------------------
# Policy comparisons
# ---------------------------------------------------------------------------

SHARED_FIELDS = TRACE_FIELDS + ("tc_mode", "tc_slots")


@dataclass
class SummaryRow:
    policy: str
    fi: float
    system_bits: float
    drop_pct_vs_reference: float


@dataclass
class ComparisonResult:
    reference: str
    results: dict[str, SimResult]
    summary: list[SummaryRow]


def comparison_configs(base: SimConfig, policies: list[str]) -> list[SimConfig]:
    """One config per policy, sharing everything else with the base."""
    return [dataclasses.replace(base, policy=p) for p in policies]


def run_comparison(configs: list[SimConfig], reference: str = "pfa") -> ComparisonResult:
    """Run several policies over one channel trace and tabulate them.

    The trace is drawn once from the shared seed and passed to each policy's
    :func:`run`, so every policy sees identical links, SNRs and rates.

    All configs must agree on the channel, placement, user count, seed and
    slot count; only the policy (and its private knobs) may differ.
    """
    if not configs:
        raise ConfigError("no configs to compare")
    first = configs[0]
    for cfg in configs[1:]:
        for name in SHARED_FIELDS:
            if getattr(cfg, name) != getattr(first, name):
                raise ConfigError("compared configs must share %r" % name)
    policies = [cfg.policy for cfg in configs]
    if len(set(policies)) != len(policies):
        raise ConfigError("duplicate policy in comparison")
    if reference not in policies:
        raise ConfigError("reference policy %r not among %s" % (reference, policies))

    first.validate()
    trace = channel_trace(first)
    results = {cfg.policy: run(cfg, trace=trace) for cfg in configs}
    ref_bits = results[reference].metrics.system_bits
    summary = [
        SummaryRow(p, r.metrics.jain(), r.metrics.system_bits, (ref_bits - r.metrics.system_bits) / ref_bits * 100.0)
        for p, r in results.items()
    ]
    return ComparisonResult(reference=reference, results=results, summary=summary)
