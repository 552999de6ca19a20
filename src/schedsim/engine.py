"""Block driver: channel traces in, scheduler decisions and metrics out.

A run is a pure function of its :class:`SimConfig` (the seed included): user
placement and shadowing are drawn first, then the per-slot fading, in a
fixed order from one generator, so the rate trace never depends on the
policy under test.  Every trace comes from one source, which draws and
scales it in blocks of at most ``BLOCK_ELEMENTS`` (slot, user) elements in
stream order.  A run, or a comparison of policies, decides each block for
every policy as it is drawn and then drops it; a comparison splits its
policies over one process per usable CPU, as :func:`_decide` sets out.
Each decided run is accounted for in one pass: it is credited once, and its
fairness-index series is read off per-user ledger rows built a block of
evaluations at a time.  A config is a frozen value, checked when it is made.
Before the first draw, :func:`_trace_links` raises every error that follows
from the links and the link budget (``channel`` only computes it) and
:func:`_decide` each config's own; :func:`run` raises "fairness index
undefined at slot s", the only error that depends on the draw.  What those
checks prove of every block, the scheduler layer below takes unchecked.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import mmap
import numbers
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    MAX_FADING_GAIN,
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
from .metrics import MetricsLog, highest, ledger_fi
from .sched import POLICIES, TC_MODES, DpfaParams, Scheduler, VpfaParams, make_scheduler

# A decided block holds at most this many (slot, user) trace elements, or one slot.
BLOCK_ELEMENTS = 32768

# "Cell edge" for the timer threshold default: the SNR a user would see at
# this fraction of the cell radius with no shadowing and no fading.
DELTA_REFERENCE_RADIUS_FRACTION = 0.6


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment; two equal configs give bit-equal results.
    Frozen, and checked by :meth:`validate` when made, ``dataclasses.replace`` included."""

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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        self.channel.validate()
        for key, count in dict(n_users=self.n_users, total_slots=self.total_slots, seed=self.seed,
                               dpfa_theta=self.dpfa.theta, vpfa_s_fi=self.vpfa.s_fi, vpfa_l_sc=self.vpfa.l_sc).items():
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):  # numpy ints are Integral
                raise ConfigError("%s must be an integer, got %r" % (key, count))
        for key, count in dict(n_users=self.n_users, total_slots=self.total_slots).items():
            if not 1 <= count <= sys.maxsize // 8:  # numpy sizes no per-slot or per-user float64 array past it
                raise ConfigError("%s must be >= 1 and <= %d, got %d" % (key, sys.maxsize // 8, count))
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.placement not in PLACEMENT_MODES:
            raise ConfigError("placement must be one of %s" % (PLACEMENT_MODES,))
        if self.policy not in POLICIES:
            raise ConfigError("policy must be one of %s" % (POLICIES,))
        if self.tc_mode not in TC_MODES:
            raise ConfigError("tc_mode must be one of %s" % (TC_MODES,))
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
    phase_switch_slot: int | None  # vpfa's first variance-phase slot; None if the run has none
    vpfa_warmup_bits: np.ndarray | None = None      # per-user bits at the switch, None as above
    vpfa_variance_counts: np.ndarray | None = None  # schedule counts after it, None as above

    def per_user_rows(self, start: int = 0, stop: int | None = None):
        """(user_id, distance_m, schedule_count, cumulative_bits) per user,
        for users ``start:stop`` (all by default)."""
        counts = self.metrics.schedule_counts[start:stop].tolist()
        bits = self.metrics.per_user_bits[start:stop].tolist()
        return [(l.user_id, l.distance_m, c, b) for l, c, b in zip(self.links[start:stop], counts, bits)]


TRACE_FIELDS = ("channel", "n_users", "placement", "seed", "total_slots")


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """One drawn channel trace: its links and its (slots x users) matrices."""

    links: list[UserLink]
    snrs: np.ndarray   # (slots x users) linear SNR
    rates: np.ndarray  # (slots x users) bits per slot


def resolve_delta(channel: ChannelParams) -> float:
    """Default edge/center SNR threshold: the deterministic link-budget SNR
    at 60% of the cell radius (shadowing and fading excluded)."""
    ref = UserLink(-1, DELTA_REFERENCE_RADIUS_FRACTION * channel.cell_radius_m, 0.0)
    return snr(channel, ref, 1.0)


def resolved_config(config: SimConfig) -> SimConfig:
    """The config with every derived default filled in.  A default ``dpfa_delta``
    outside (0, inf) fails every policy: it would not parse back from ``config.txt``."""
    if config.dpfa.delta is not None:
        return config
    delta = resolve_delta(config.channel)
    if not 0 < delta < math.inf:
        what, where = ("overflows a float", "past") if delta else ("underflows to 0", "below")
        raise ConfigError("SNR %s: tx_power_dbm %g takes the default dpfa_delta, the SNR at %g x cell_radius_m, %s the"
                          " float range" % (what, config.channel.tx_power_dbm, DELTA_REFERENCE_RADIUS_FRACTION, where))
    return dataclasses.replace(config, dpfa=dataclasses.replace(config.dpfa, delta=delta))


def channel_trace(config: SimConfig, links: list[UserLink] | None = None) -> ChannelTrace:
    """Links plus the (slots x users) SNR and rate matrices for a config.

    Depends only on the fields in ``TRACE_FIELDS``; running it for two
    configs that differ only in policy gives identical matrices.
    Caller-supplied ``links`` (custom geometries) skip the placement and
    shadowing draws, so their fading starts at the head of the seed's stream.
    The config and links are checked as by :func:`run`, and the matrices are
    a run's blocks in slot order, so they hold finite rates >= 0.
    """
    rng, links, base, _ = _trace_links(config, links)
    shape = (config.total_slots, len(links))
    snrs, rates = np.empty(shape), np.empty(shape)
    for start, block_snrs, block_rates in _trace_blocks(config, rng, base, _heap_slots(config)):
        snrs[start:start + len(block_snrs)] = block_snrs
        rates[start:start + len(block_rates)] = block_rates
    return ChannelTrace(links, snrs, rates)


@np.errstate(over="ignore")  # an SNR bound past the float range is inf, which the checks reject
def _trace_links(config: SimConfig, links: list[UserLink] | None):
    """The generator, past the placement and shadowing draws, the links, the
    link-budget SNRs and the rate bound of a validated config's trace.

    No fading gain passes ``MAX_FADING_GAIN`` (1 without fast fading), so
    the link budget bounds every SNR, rate and sum of bits of any seed's
    trace.  It raises, naming the input at fault, on a link out of range, a
    link-budget SNR of 0, an SNR or rate bound past the float range, a rate
    bound of 0 (no draw delivers a bit) and bits past the float range, at
    twice the slots times the rate bound, which covers the rounding of sums.
    A config that passes has finite SNRs and rates >= 0 in every block, and
    averages and sums of bits that stay finite: what ``sched``,
    ``instantaneous_rate`` and ``metrics`` take unchecked.
    """
    rng = np.random.default_rng(config.seed)
    channel, caller = config.channel, links is not None
    if not caller:
        distances = place_users(config.n_users, channel.cell_radius_m, config.placement, rng)
        shadows = draw_shadowing(rng, channel.shadowing_sigma_db, size=config.n_users)
        links = [UserLink(k, float(d), float(s)) for k, (d, s) in enumerate(zip(distances, shadows))]
    elif len(links) != config.n_users:
        raise ConfigError("got %d links for n_users %d" % (len(links), config.n_users))
    else:
        for k, link in enumerate(links):
            if not (0 < link.distance_m < math.inf and math.isfinite(link.shadowing_db)):
                raise ConfigError("user %d's link needs a finite distance_m > 0 and a finite shadowing_db,"
                                  " got %r and %r" % (k, link.distance_m, link.shadowing_db))
    gain = MAX_FADING_GAIN if channel.fast_fading_enabled else 1.0
    base = np.array([snr(channel, link) for link in links])
    bound = base * gain
    for k in np.flatnonzero((base == 0) | (bound == math.inf))[:1]:  # the first user out of the range
        fault = caller and _link_fault(channel, k, links[k], gain)
        who = fault + ", which takes its" if fault else "tx_power_dbm %g takes user %d's" % (channel.tx_power_dbm, k)
        if base[k] == 0:
            raise ConfigError("SNR underflows to 0: %s link-budget SNR below the float range" % who)
        what = "link-budget SNR" if base[k] == math.inf else "SNR at the largest fading gain, %.6g," % gain
        raise ConfigError("SNR overflows a float: %s %s past the float range" % (who, what))
    rate_bound = instantaneous_rate(float(bound.max()), channel)
    if rate_bound == math.inf:
        raise ConfigError("rate overflows a float: bandwidth_hz %g times slot_duration_s %g times log2(1 + SNR)"
                          " is past the float range" % (channel.bandwidth_hz, channel.slot_duration_s))
    if rate_bound == 0:
        raise ConfigError("no bits were delivered: every rate is 0 under this link budget (tx_power_dbm %g,"
                          " bandwidth_hz %g, noise_figure_db %g)"
                          % (channel.tx_power_dbm, channel.bandwidth_hz, channel.noise_figure_db))
    if config.total_slots > sys.float_info.max / (2.0 * rate_bound):  # int vs float, exact
        raise ConfigError("bits overflow a float: total_slots %d at bandwidth_hz %g and slot_duration_s %g can"
                          " take the cumulative bits past the float range"
                          % (config.total_slots, channel.bandwidth_hz, channel.slot_duration_s))
    return rng, links, base, rate_bound


def _trace_blocks(config: SimConfig, rng, base, slots):
    """The trace's blocks in slot order, as (first slot, SNRs, rates): block
    i is drawn into the leading rows of ``slots[i % len(slots)]``, as by
    :func:`_slot_blocks`.

    Each block's fading is ``draw_fast_fading`` of its shape, which continues
    the generator's stream, so the blocks join to one whole draw bit for bit.
    It is scaled by the link-budget SNRs and mapped to rates, in place, into
    the slot's SNR and rate buffers, so a block is valid until its slot is
    drawn over.  :func:`_trace_links` has bounded every SNR and rate, so
    no block needs a check.
    """
    channel = config.channel
    for start, snrs, rates in _slot_blocks(config, slots):
        # the fading is drawn into the block's rates, which hold it until the rates are written over it
        shape = rates.shape
        gains = draw_fast_fading(rng, size=shape, out=rates) if channel.fast_fading_enabled else np.ones(shape)
        with np.errstate(over="raise"):  # asserts the gain bound at no cost of a pass over the block
            np.multiply(gains, base, out=snrs)
        yield start, snrs, instantaneous_rate(snrs, channel, rates)


def _block_shape(config: SimConfig) -> tuple[int, int]:
    """A block buffer's (slots, users): ``max(1, BLOCK_ELEMENTS // n_users)``
    slots, or the whole trace where it is shorter."""
    return min(max(1, BLOCK_ELEMENTS // config.n_users), config.total_slots), config.n_users


def _heap_slots(config: SimConfig):
    """One slot of (SNRs, rates) block buffers, which every block overwrites."""
    shape = _block_shape(config)
    return [(np.empty(shape), np.empty(shape))]


def _slot_blocks(config: SimConfig, slots):
    """(first slot, SNR buffer, rate buffer) of each of the trace's blocks in
    slot order, each of a slot's rows or the rest: block i takes the leading
    rows of ``slots[i % len(slots)]``, an (SNRs, rates) pair of buffers."""
    total = config.total_slots
    for i, start in enumerate(range(0, total, len(slots[0][0]))):
        snrs, rates = slots[i % len(slots)]
        yield start, snrs[:total - start], rates[:total - start]


def _link_fault(channel: ChannelParams, k: int, link: UserLink, gain: float) -> str | None:
    """Where caller link ``k``, not the config, takes its SNR at fading
    ``gain`` out of the float range, the field at fault and its value, as
    "user k's link has shadowing_db 3070"; else None.  The shadowing is at
    fault where the SNR would be in range at ``shadowing_db`` 0, the
    distance where it would be at ``shadowing_db`` 0 and the cell radius."""
    for name, neutral in (("shadowing_db", UserLink(k, link.distance_m, 0.0)),
                          ("distance_m", UserLink(k, channel.cell_radius_m, 0.0))):
        if 0 < snr(channel, neutral) * gain < math.inf:
            return "user %d's link has %s %g" % (k, name, getattr(link, name))
    return None


@dataclass(eq=False)
class Decided:
    """One config's share of a decide pass, which :func:`run` accounts for."""

    config: SimConfig  # resolved
    links: list[UserLink]
    first_nonzero: np.ndarray  # each user's first slot with a nonzero rate: the trace's, shared
    decisions: np.ndarray  # chosen user per slot
    served: np.ndarray  # the rate each decision served
    scheduler: Scheduler  # its switch_slot and warmup_bits are the run's, in whichever process it decided


def run(config: SimConfig, links: list[UserLink] | None = None, decided: Decided | None = None) -> SimResult:
    """Execute one simulation; deterministic in (config, seed, links).

    ``links`` replaces the drawn geometry as in :func:`channel_trace`.  The
    run draws its trace a block at a time and decides each block as it is
    drawn, so it holds one block and what it keeps per slot and per user,
    not the (slots x users) matrices; its decisions, results and errors are
    the same bit for bit at any ``BLOCK_ELEMENTS``, one slot a block or the
    whole trace in one.  ``decided`` is this config's share of
    :func:`run_comparison`'s pass, already decided, so the run only
    accounts for it.  It raises "fairness index undefined at slot s", the only
    error that depends on the draw; the config raised its own when it was made, and :func:`_decide` the rest.
    """
    if decided is None:
        (decided,) = _decide([config], links)
    cfg, decisions, scheduler = decided.config, decided.decisions, decided.scheduler
    n, s_fi = cfg.n_users, cfg.vpfa.s_fi

    # account for the decided run at each FI evaluation: every s_fi slots and the last
    log, stops, system, fi = account(decisions, decided.served, n, s_fi)
    bad = np.flatnonzero(system == 0)
    if bad.size:  # the first evaluation with no bits, as the run would meet it
        stop = stops[bad[0]]
        raise ConfigError("fairness index undefined at slot %d: no bits were delivered yet; "
                          "users with rate 0 in every slot so far: %s"
                          % (stop, _user_list(np.flatnonzero(decided.first_nonzero >= stop))))
    fi_series = list(zip(stops, fi.tolist()))
    system_series = list(zip(stops, system.tolist()))

    switch, warmup_bits = scheduler.switch_slot, scheduler.warmup_bits
    if switch is not None and switch > cfg.total_slots:  # switched at the last evaluation: no variance phase ran
        switch = warmup_bits = None
    # bincount copies the slice it counts to intp, and the warm-up is the short side at the defaults
    variance_counts = None if switch is None else log.schedule_counts - np.bincount(decisions[:switch - 1], minlength=n)
    return SimResult(config=cfg, links=decided.links, decisions=decisions, metrics=log, fi_series=fi_series,
                     system_series=system_series, phase_switch_slot=switch,
                     vpfa_warmup_bits=warmup_bits, vpfa_variance_counts=variance_counts)


@np.errstate(over="ignore")  # dpfa's check may raise the rate bound past the float range, to inf
def _decide(configs: list[SimConfig], links: list[UserLink] | None = None) -> list[Decided]:
    """Decide every config over the first config's trace, a block at a time.
    Each config was checked when it was made; the first error left that
    comes from the configs and links alone is raised before the first draw:
    :func:`_trace_links`' checks, then each config's default ``dpfa_delta``
    (by :func:`resolved_config`) and ``dpfa_alpha``, in config order.

    The split: the shares are split round-robin into one group per usable
    CPU, at most one per share.  One group decides from heap block buffers;
    a single run has one share, forks nothing and maps no ring.  More are
    decided from a ring of two block slots in anonymous shared memory,
    mapped before the children are forked: this process draws the trace
    once, block i into slot i % 2, decides the first group and computes the
    first-nonzero vector, which belongs to the trace; each other group is
    decided in a forked process, which reads each block from its slot and
    never draws, so the results are the same at any CPU count.  Each child
    has two pipes.  Per block, the parent sends it one byte down its "go"
    pipe once the block is drawn, which is before it decides the block
    before it, and before it draws over a slot it takes the child's pickled
    None for the block there, from its message pipe.  A child closes the
    pipe ends it inherits from its siblings, so it sees the end of its "go"
    pipe, and stops, when the parent does.  It writes its shares' decisions
    and served rates in place, in shared pages mapped before the fork, 12
    bytes a slot; its last message is its outcome, its error or its shares'
    vpfa switches, and it ends in ``os._exit``.  The parent raises a child's
    error with its type and message, and a child's end without one as a
    ``ChildProcessError`` naming its policies, and reaps every child,
    killing them first if it fails itself.  The ring costs one block more
    than the heap buffers, and its pages, like the shared results, count
    once in this process's ``ru_maxrss``; it is unmapped with its last view,
    as the pass returns or its error is dropped.

    dpfa's numerator r^alpha grows with r, so where the rate bound to the
    alpha is finite, so is every numerator; a dpfa config where it is not
    is rejected before the draw, naming ``dpfa_alpha``.
    """
    first = configs[0]
    rng, links, base, rate_bound = _trace_links(first, links)
    n, total = first.n_users, first.total_slots
    first_nonzero = np.full(n, total)
    shares = []
    for config in configs:  # after the links' check, so a link budget past the float range is named by its user
        cfg = resolved_config(config)
        if cfg.policy == "dpfa" and not np.power(rate_bound, cfg.dpfa.alpha) < math.inf:
            raise ConfigError("dpfa_alpha %g raises the largest rate of this link budget past the float range"
                              % cfg.dpfa.alpha)
        scheduler = make_scheduler(cfg.policy, n, cfg.dpfa, cfg.vpfa, cfg.tc_mode, cfg.tc_slots)
        shares.append(Decided(cfg, links, first_nonzero, np.empty(total, dtype=np.int32), np.empty(total), scheduler))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    k = min(len(shares), cpus)
    if k == 1:
        _decide_blocks(_trace_blocks(first, rng, base, _heap_slots(first)), shares)
        return shares
    # two slots of (SNRs, rates) block buffers in anonymous shared memory, which the children inherit
    shape = _block_shape(first)
    ring = np.frombuffer(mmap.mmap(-1, 4 * 8 * shape[0] * shape[1])).reshape(2, 2, *shape)
    children = []
    try:
        for i in range(1, k):
            children.append(_fork_decide(first, ring, shares[i::k], children))
        _decide_blocks(_fan_out(_trace_blocks(first, rng, base, ring), children), shares[::k])
        for child in children:
            child.take()  # its None for the last block
            for share, (switch, warmup_bits) in zip(child.group, child.take()):
                share.scheduler.switch_slot, share.scheduler.warmup_bits = switch, warmup_bits
    except BaseException:
        for child in children:
            os.kill(child.pid, signal.SIGKILL)
        raise
    finally:
        for child in children:
            child.close()
            os.waitpid(child.pid, 0)
    return shares


def _decide_blocks(blocks, shares: list[Decided]) -> None:
    """Hand each of ``blocks`` to every share's scheduler in order before
    taking the next, filling in its decisions, served rates and the trace's
    first-nonzero vector.  The one decide loop of every process: the blocks
    are those the trace source draws here, into heap buffers or the ring, or
    in a child those the parent drew into the ring (:func:`_ring_blocks`)."""
    total, first_nonzero = shares[0].config.total_slots, shares[0].first_nonzero
    for start, snrs, rates in blocks:
        for share in shares:
            chosen = share.scheduler.step(rates, snrs)
            stop = start + len(chosen)
            share.decisions[start:stop] = chosen
            share.served[start:stop] = rates[np.arange(len(chosen)), chosen]
        if highest(first_nonzero) == total:  # some user has had no nonzero rate yet
            nonzero = rates != 0
            new = (first_nonzero == total) & nonzero.any(axis=0)
            first_nonzero[new] = start + nonzero[:, new].argmax(axis=0)


@dataclass(eq=False)
class _Child:
    """A forked decide process: the parent's ends of its "go" and message
    pipes, and the shares it decides."""

    pid: int
    go: int  # write end: one byte a block, once the block is in its ring slot
    messages: io.BufferedReader  # read end: one pickle a message, as :meth:`take` reads it
    group: list[Decided]

    def send_go(self) -> None:
        with contextlib.suppress(BrokenPipeError):  # the child has ended: its next message says how
            os.write(self.go, b"\0")

    def take(self):
        """The child's next message: None once it has decided a block, then
        each share's (switch slot, warm-up bits).  The error it sent instead
        is raised with its type and message, and an end of its messages as
        the named ``ChildProcessError``."""
        try:
            message = pickle.load(self.messages)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError("a decide process for %s ended before it sent its results"
                                    % ", ".join(share.config.policy for share in self.group)) from None
        if isinstance(message, BaseException):
            try:
                raise message
            finally:  # its traceback holds this frame, so a local would hold it in a cycle, and the ring with it
                del message
        return message

    def close(self) -> None:
        os.close(self.go)
        self.messages.close()


def _fan_out(blocks, children: list[_Child]):
    """The parent's ``blocks``, each drawn and sent to every child one block
    ahead of this process, in :func:`_decide`'s order: every child's None
    for block i is taken before block i + 2 is drawn over it.  A trace has
    at least one block."""
    held = None
    for block in blocks:
        for child in children:
            child.send_go()
        if held is not None:
            yield held
            for child in children:
                child.take()
        held = block
    yield held


def _ring_blocks(first: SimConfig, ring, go: int, messages: int):
    """A child's blocks, in :func:`_decide`'s order: each once the parent's
    "go" for it comes, with a pickled None down ``messages`` once it is
    decided.  An end of "go" means the parent stopped."""
    for block in _slot_blocks(first, ring):
        if not os.read(go, 1):
            raise EOFError("the parent stopped sending blocks")
        yield block
        os.write(messages, pickle.dumps(None))


def _fork_decide(first: SimConfig, ring, group: list[Decided], siblings: list[_Child]) -> _Child:
    """Decide ``group`` in a forked process, from the blocks the parent
    draws into ``ring``, by :func:`_decide`'s protocol, and return it as a
    :class:`_Child`.  The shares' decisions and served rates are first moved
    to anonymous shared memory.  The outcome is pickled whole before it is
    written, so an error that does not pickle ends the child having sent
    none of it; ``os._exit`` runs no exit handler and flushes none of the
    parent's buffered output."""
    total = first.total_slots
    for share in group:  # the float64 rates first, so that both arrays are aligned
        pages = mmap.mmap(-1, 12 * total)
        share.served, share.decisions = np.frombuffer(pages, count=total), np.frombuffer(pages, np.int32, offset=8 * total)
    fds = go_r, go_w, msg_r, msg_w = (*os.pipe(), *os.pipe())
    try:
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    if pid:
        for fd in (go_r, msg_w):
            os.close(fd)
        return _Child(pid, go_w, open(msg_r, "rb"), group)
    try:
        for fd in (go_w, msg_r):
            os.close(fd)
        for sibling in siblings:
            sibling.close()
        try:
            _decide_blocks(_ring_blocks(first, ring, go_r, msg_w), group)
            outcome = [(share.scheduler.switch_slot, share.scheduler.warmup_bits) for share in group]
        except BaseException as exc:
            outcome = exc
        with open(msg_w, "wb") as messages:
            messages.write(pickle.dumps(outcome))
    finally:
        os._exit(0)


def account(decisions, served, n_users: int, s_fi: int):
    """Credit a decided run to a fresh :class:`MetricsLog` in one call and
    read it at each FI evaluation: every ``s_fi`` slots and the last.

    Returns the log, the evaluations' slot counts, the system bits there,
    read off one slot-order ``np.add.accumulate``, and the Jain index of the
    per-user bits there, from :func:`ledger_fi` a block of ``BLOCK_ELEMENTS``
    at a time.  Each equals what crediting the run an interval at a time
    and reading the log after each would give; an evaluation with no bits
    yet reads 0 bits and a nan index.
    """
    log = MetricsLog(n_users)
    log.record_slot(decisions, served)
    total = len(decisions)
    stops = [*range(s_fi, total, s_fi), total]
    system = np.add.accumulate(served)[np.subtract(stops, 1)]
    return log, stops, system, ledger_fi(decisions, served, n_users, stops, BLOCK_ELEMENTS)


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
    """One config per policy, equal to the base in everything else; an unknown policy fails here."""
    return [dataclasses.replace(base, policy=p) for p in policies]


def run_comparison(configs: list[SimConfig], reference: str = "pfa") -> ComparisonResult:
    """Run several policies over one channel trace and tabulate them.

    The policies are decided by :func:`_decide`, over one process per
    usable CPU, bit-identically at any CPU count (``taskset -c 0`` gives
    one process), and each policy's :func:`run` accounts for its share in
    this process.  Results are those of a run per policy over
    ``channel_trace(configs[0])``, and so is the only error that depends on
    the draw; the configs' own were raised when they were made, and any
    other is raised before the first draw.

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

    results = {cfg.policy: run(cfg, decided=share) for cfg, share in zip(configs, _decide(configs))}
    ref_bits = results[reference].metrics.system_bits
    summary = [
        SummaryRow(p, r.metrics.jain(), r.metrics.system_bits, (ref_bits - r.metrics.system_bits) / ref_bits * 100.0)
        for p, r in results.items()
    ]
    return ComparisonResult(reference=reference, results=results, summary=summary)
