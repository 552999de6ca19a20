"""Slot-by-slot driver: channel traces in, scheduler decisions and metrics out.

A run is a pure function of its :class:`SimConfig` (the seed included): user
placement, shadowing and the whole per-slot fading matrix are drawn up front
in a fixed order from one generator, so the rate trace never depends on the
policy under test.
"""
from __future__ import annotations

import dataclasses
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
    mean_rates: np.ndarray | None = None            # time-average offered rate

    def per_user_rows(self):
        """(user_id, distance_m, schedule_count, cumulative_bits, mean_rate) per user."""
        return [
            (
                link.user_id,
                link.distance_m,
                int(self.metrics.schedule_counts[k]),
                float(self.metrics.per_user_bits[k]),
                float(self.mean_rates[k]) if self.mean_rates is not None else 0.0,
            )
            for k, link in enumerate(self.links)
        ]


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


def channel_trace(config: SimConfig, links: list[UserLink] | None = None):
    """Links plus the (slots x users) SNR and rate matrices for a config.

    Depends only on the channel parameters, the placement and the seed;
    running it for two configs that differ only in policy gives identical
    matrices.  Caller-supplied ``links`` (custom geometries) skip the
    placement and shadowing draws, so their fading starts at the head of the
    seed's stream.
    """
    rng = np.random.default_rng(config.seed)
    if links is None:
        distances = place_users(config.n_users, config.channel.cell_radius_m, config.placement, rng)
        shadows = draw_shadowing(rng, config.channel.shadowing_sigma_db, size=config.n_users)
        links = [UserLink(k, float(d), float(s)) for k, (d, s) in enumerate(zip(distances, shadows))]
    elif len(links) != config.n_users:
        raise ConfigError("got %d links for n_users %d" % (len(links), config.n_users))
    base = np.array([snr(config.channel, link, 1.0) for link in links])
    if config.channel.fast_fading_enabled:
        gains = draw_fast_fading(rng, size=(config.total_slots, len(links)))
    else:
        gains = np.ones((config.total_slots, len(links)))
    snr_matrix = gains * base
    return links, snr_matrix, instantaneous_rate(snr_matrix, config.channel)


def run(config: SimConfig, links: list[UserLink] | None = None) -> SimResult:
    """Execute one simulation; deterministic in (config, seed, links).

    ``links`` replaces the drawn geometry as in :func:`channel_trace`.
    """
    config.validate()
    cfg = resolved_config(config)
    links, snr_matrix, rate_matrix = channel_trace(cfg, links)
    n = cfg.n_users
    total = cfg.total_slots

    scheduler = make_scheduler(
        cfg.policy, n, dpfa=cfg.dpfa, vpfa=cfg.vpfa, tc_mode=cfg.tc_mode, tc_slots=cfg.tc_slots
    )
    log = MetricsLog(n)
    decisions = np.empty(total, dtype=np.int32)
    system_series: list[tuple[int, float]] = []
    phase_switch_slot = None
    warmup_bits = None
    counts_at_switch = None
    s_fi = cfg.vpfa.s_fi
    is_vpfa = cfg.policy == "vpfa"

    for t in range(total):
        chosen = scheduler.step(rate_matrix[t], snr_matrix[t])
        decisions[t] = chosen
        log.record_slot(chosen, float(rate_matrix[t, chosen]))

        slot_no = t + 1
        on_cadence = slot_no % s_fi == 0
        if on_cadence or slot_no == total:
            fi = jain_index(log.per_user_bits)
            log.record_fi(slot_no, fi)
            system_series.append((slot_no, log.system_bits))
            if is_vpfa and on_cadence and scheduler.observe_fi(fi):
                phase_switch_slot = slot_no + 1
                warmup_bits = log.per_user_bits.copy()
                counts_at_switch = log.schedule_counts.copy()

    variance_counts = (
        log.schedule_counts - counts_at_switch if counts_at_switch is not None else None
    )
    return SimResult(
        config=cfg,
        links=links,
        decisions=decisions,
        metrics=log,
        fi_series=list(log.fi_series),
        system_series=system_series,
        phase_switch_slot=phase_switch_slot,
        vpfa_warmup_bits=warmup_bits,
        vpfa_variance_counts=variance_counts,
        mean_rates=rate_matrix.mean(axis=0),
    )


# ---------------------------------------------------------------------------
# Policy comparisons
# ---------------------------------------------------------------------------

SHARED_FIELDS = ("n_users", "placement", "seed", "total_slots", "tc_mode", "tc_slots")


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
    """Run several policies over the same channel trace and tabulate them.

    Each policy's run redraws the trace from the shared seed, so every policy
    sees identical links, SNRs and rates.

    All configs must agree on the channel, placement, user count, seed and
    slot count; only the policy (and its private knobs) may differ.
    """
    if not configs:
        raise ConfigError("no configs to compare")
    first = configs[0]
    for cfg in configs[1:]:
        if cfg.channel != first.channel:
            raise ConfigError("compared configs must share the channel parameters")
        for name in SHARED_FIELDS:
            if getattr(cfg, name) != getattr(first, name):
                raise ConfigError("compared configs must share %r" % name)
    policies = [cfg.policy for cfg in configs]
    if len(set(policies)) != len(policies):
        raise ConfigError("duplicate policy in comparison")
    if reference not in policies:
        raise ConfigError("reference policy %r not among %s" % (reference, policies))

    results = {cfg.policy: run(cfg) for cfg in configs}
    ref_bits = results[reference].metrics.system_bits
    summary = [
        SummaryRow(
            policy=p,
            fi=results[p].metrics.jain(),
            system_bits=results[p].metrics.system_bits,
            drop_pct_vs_reference=(ref_bits - results[p].metrics.system_bits) / ref_bits * 100.0,
        )
        for p in policies
    ]
    return ComparisonResult(reference=reference, results=results, summary=summary)
