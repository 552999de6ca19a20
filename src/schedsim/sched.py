"""Scheduling policies, decided a block of slots at a time.

Five policies share one interface: ``step(rates, snrs)`` takes a
(slots x users) block, picks exactly one user per slot in slot order,
applies the policy's state updates and returns the block's decisions.
State carries across calls, so any split of a trace gives the same result.

* ``pfa``   - proportional fair: argmax r_k / R_k, with R_k the EWMA of the
  served rate.
* ``dpfa``  - proportional fair with per-user exponents: argmax
  r_k^alpha / R_k^beta_k, beta_k = gamma_k/delta for a user at the cell
  center more than theta slots in a row, else 1.  The neutral test
  A >= theta or B <= theta is B <= theta alone (an edge slot has B = 0,
  a center slot A = 0 < theta), so only the center timer B is carried.
* ``maxci`` - argmax r_k (pure opportunism).
* ``rr``    - cyclic round robin.
* ``vpfa``  - proportional fair until the fairness index stops moving, then
  serve the least-served user (fewest cumulative delivered bits), lowest
  index on ties.

Only what depends on earlier decisions runs slot by slot: the PF family's
EWMA and vpfa's variance-phase ledger.  Nothing here checks a block: the
trace source proves every block before its first draw (finite SNRs and
rates >= 0, averages that stay finite, see ``engine._trace_links``), and
each run's scheduler is built from a validated, resolved config.  A PF
slot runs the metric's ufuncs, bound once per block, into one preallocated
buffer, one argmax and the EWMA update; a variance slot one ``heapreplace``
on a heap of (delivered bits, user) tuples, whose order is the least-served
rule itself.  vpfa's switch is its own: the warm-up credits its decisions to
a ledger of per-user bits and folds the ledger's Jain index into the
stability counter every ``s_fi`` slots, and at the switch that ledger seeds
the heap.  dpfa's timer, exponents and numerator r^alpha are computed per
block; ``maxci`` is one ``select`` over the block and ``rr`` one arange.
Each rule below is a vectorised function; the :class:`Scheduler` holds a
run's state.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_finite
from .metrics import fi_stability_update, highest, jain_index, lowest

# Cold-start floor for the average-throughput denominator, in bits/slot.
# R_k starts here so the first slots degenerate to max-C/I instead of 0/0.
EPS_RATE = 1.0

POLICIES = ("pfa", "dpfa", "maxci", "rr", "vpfa")
TC_MODES = ("fixed", "growing")

# center_timer's running maximum goes row by row at this many users per slot
# or more (32-slot blocks of 1000 users), and down the columns below it (the
# defaults' 3276-slot blocks of 10); the two cost about the same at 16 x 256.
ROW_MAX_USERS_PER_SLOT = 16


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DpfaParams:
    """Knobs for the timer-driven PF variant.

    ``delta`` is the linear SNR threshold splitting edge from center (None
    means: resolve from the link budget at 60% of the cell radius when the
    simulation starts).  ``theta`` is the residence-time threshold in slots.
    The published rule's exponent floor b <= 1 is not a knob: it never binds
    (see :func:`update_beta`).  ``beta_override`` pins
    beta for every user, bypassing the timer logic; with 1.0 the policy is
    plain PF, with 0.0 it is max-C/I.
    """

    alpha: float = 1.0
    delta: float | None = None
    theta: int = 20
    beta_override: float | None = None

    def validate(self) -> None:
        check_finite(dpfa_alpha=self.alpha, dpfa_delta=self.delta, dpfa_beta_override=self.beta_override)
        if self.alpha < 0:
            raise ConfigError("dpfa_alpha must be >= 0")
        if self.beta_override is not None and self.beta_override < 0:
            raise ConfigError("dpfa_beta_override must be >= 0")
        if self.delta is not None and self.delta <= 0:
            raise ConfigError("dpfa_delta must be > 0")
        if self.theta < 1:
            raise ConfigError("dpfa_theta must be >= 1")


@dataclass(frozen=True)
class VpfaParams:
    """Phase-machine constants for the variance policy.

    ``s_fi`` slots between fairness-index evaluations, ``l_sc`` the
    stability-counter target that flips the policy out of its PF phase.
    """

    s_fi: int = 100
    l_sc: int = 5
    signed_stability: bool = False

    def validate(self) -> None:
        if self.s_fi < 1:
            raise ConfigError("vpfa_s_fi must be >= 1")
        if self.l_sc < 1:
            raise ConfigError("vpfa_l_sc must be >= 1")


# ---------------------------------------------------------------------------
# Rules: one vectorised definition each, over all users at once
# ---------------------------------------------------------------------------

def center_timer(center, snrs, delta: float) -> np.ndarray:
    """Cell-center residence timer B after each slot of a (slots x users)
    SNR block, continuing ``center``: the slots since the user's last edge
    slot (SNR below delta), so 0 at an edge slot.

    ``run`` is B if no slot of the block so far was at the edge; it grows
    by one a slot, so its value at the latest edge slot, a running maximum,
    is what each later slot counts from.  With ``ROW_MAX_USERS_PER_SLOT``
    users per slot or more that maximum is taken row by row, one ufunc call
    a slot over a contiguous row; otherwise in one accumulate down the
    columns, which pays a strided pass per column and so wins on long,
    narrow blocks.  Both give the same integers.
    """
    run = np.arange(1, len(snrs) + 1)[:, None] + center
    last_edge = run * (snrs < delta)
    if snrs.shape[1] >= ROW_MAX_USERS_PER_SLOT * len(snrs):
        for prev, row in zip(last_edge, last_edge[1:]):
            np.maximum(prev, row, out=row)
    else:
        np.maximum.accumulate(last_edge, axis=0, out=last_edge)
    return np.subtract(run, last_edge, out=last_edge)


def update_beta(center, snrs, params: DpfaParams) -> np.ndarray:
    """Per-user denominator exponent from the center timer B.

    Only a user at the center more than theta slots in a row is re-weighted,
    to gamma/delta; everyone else keeps beta = 1.  The paper's neutral test,
    A >= theta or B <= theta with A the edge timer, reduces to B <= theta:
    an edge slot has B = 0, a center slot A = 0 < 1 <= theta.  B > 0 means
    gamma >= delta, so a re-weighted exponent is >= 1 and the published
    floor max(gamma/delta, b), b <= 1, never binds.  ``beta_override``
    replaces the whole rule.
    """
    if params.beta_override is not None:
        return np.full(np.shape(snrs), params.beta_override, dtype=float)
    beta = snrs / params.delta
    beta[center <= params.theta] = 1.0
    return beta


def select(priorities):
    """Argmax over the per-user metric, the last axis; ties go to the lowest
    user index.  A 1-D metric gives an int, a (slots x users) block one
    decision per slot.  The program's one metric here is maxci's block of
    rates, which the trace source has proved finite, so nothing is checked."""
    arr = np.asarray(priorities, dtype=float)
    return int(arr.argmax()) if arr.ndim < 2 else arr.argmax(axis=-1)


def least_served(heap: list, rates) -> np.ndarray:
    """vpfa's variance phase over a (slots x users) block: each slot serves
    the least-served user, lowest index on ties, and credits its rate.

    ``heap`` holds one ``(bits delivered to k, k)`` tuple per user and is
    updated in place.  Tuple order, fewest bits and then lowest index, is
    the rule itself, so each slot serves ``heap[0]`` and puts it back at
    ``bits + r``, the IEEE addition the run's per-user bits make, with no
    guard against rounding.  The trace source has proved the rates finite
    and >= 0, so a credit that rounds up to inf stays inf, as ``inf + r``
    is never nan, and tuple order stays total."""
    replace, item, chosen = heapq.heapreplace, rates.item, []
    for t in range(len(rates)):
        b, c = heap[0]
        replace(heap, (b + item(t, c), c))
        chosen.append(c)
    return np.array(chosen, dtype=np.int64)


# ---------------------------------------------------------------------------
# Per-run state
# ---------------------------------------------------------------------------

class Scheduler:
    """One policy's state over one run.

    Holds the EWMA averages of the PF family, dpfa's center timer (each block
    derives its exponents from it) and vpfa's phase machine.  vpfa's warm-up
    credits its own decisions to a ledger of per-user bits and, every
    ``s_fi`` slots, folds the ledger's Jain index into its stability
    counter; when that reaches ``l_sc`` the policy leaves its PF phase for
    good, keeps the switch slot and the ledger there, and serves from the
    ledger heap.
    """

    def __init__(self, policy: str, n_users: int, dpfa: DpfaParams, vpfa: VpfaParams,
                 tc_mode: str, tc_slots: float):
        self.name = policy
        self.n_users = n_users
        self.dpfa = dpfa
        self.vpfa = vpfa
        self.tc_mode = tc_mode
        self.tc_slots = tc_slots
        self.slots_elapsed = 0
        self.avg_throughput = np.full(n_users, EPS_RATE)
        self.center_slots = np.zeros(n_users, dtype=np.int64)  # B_k
        self._priority = np.empty(n_users)  # the PF family's per-slot metric
        self.c_s = 0
        self.last_fi: float | None = None
        self.switch_slot: int | None = None  # vpfa's first variance-phase slot, 1-indexed
        self.warmup_bits: np.ndarray | None = None  # vpfa's ledger at the switch
        self._ledger = np.zeros(n_users)  # bits vpfa's warm-up delivered to each user
        self._ledger_heap: list[tuple[float, int]] | None = None  # (bits delivered to k, k)
        self._choose = getattr(self, "_choose_" + policy)

    @property
    def t_c(self) -> float:
        """T_c of the next slot.  Growing mode uses k + 1 after k slots (full
        replacement on the very first slot)."""
        return float(self.slots_elapsed + 1) if self.tc_mode == "growing" else self.tc_slots

    def step(self, rates, snrs) -> np.ndarray:
        """Decide a (slots x users) block in slot order and return its
        decisions; every piece of state carries over to the next call.  The
        block is one the trace source has proved, float64 SNRs and finite
        rates >= 0 of shape (slots, ``n_users``), and is not checked again."""
        pieces = [np.empty(0, dtype=np.int64)]  # so an empty block concatenates
        while len(rates):
            # a policy decides the whole block, vpfa's warm-up up to its next FI evaluation
            chosen = self._choose(rates, snrs)
            self.slots_elapsed += len(chosen)
            pieces.append(chosen)
            rates, snrs = rates[len(chosen):], snrs[len(chosen):]
        return np.concatenate(pieces)

    def _pf_loop(self, rates, num, beta=None) -> np.ndarray:
        """Serve each slot's argmax of num / max(R, EPS_RATE)^beta (exponent
        1 when ``beta`` is None), then update the EWMA R in place.

        Every input is proved before the trace's first draw: finite rates
        >= 0 (by ``engine._trace_links``), a first T_c >= 1 (by
        ``SimConfig.validate`` in fixed mode; k + 1 in growing mode), finite
        averages (each an EWMA of rates under a bound that the trace source
        keeps below float max / (2 ``total_slots``)) and, for dpfa, a finite
        numerator (``engine._decide`` bounds r^alpha) and exponents >= 0
        (SNR / delta with delta > 0, or a validated ``beta_override``).  So
        each denominator lies in [1, inf] and no priority is nan or inf: an
        update (1 - 1/T_c) R + r/T_c could round an average up to inf but not
        to nan, which takes 0 * inf, and a decay of 0 (T_c = 1) comes only at
        a growing run's first slot or in every slot of a fixed T_c = 1, where
        each update leaves 0 or r; so only an infinite start average could,
        and a slot serves the plain argmax.

        The floor never binds when min(R) at block start, multiplied in
        slot order by the decay 1 - 1/T_c of every slot but the last, is
        still >= EPS_RATE.  Rounding is monotone, every decay is >= 0 and
        serving a user only adds to its average, so that product bounds
        every average the block's slots divide by, and they divide by R
        itself instead of max(R, EPS_RATE).
        """
        avg, buf = self.avg_throughput, self._priority
        first, growing = self.t_c, self.tc_mode == "growing"
        t_cs = [first + t for t in range(len(rates))] if growing else [first] * len(rates)
        decays = [1.0 - 1.0 / t_c for t_c in t_cs]
        lo = lowest(avg)
        for d in decays[:-1]:
            lo *= d
        direct = lo >= EPS_RATE
        if not growing:
            # a ufunc converts a Python float operand on every call, an array operand it does not
            decays = [np.full(len(avg), decays[0])] * len(decays)
        # bound once per block; out is positional to divide and power, but a
        # keyword to maximum, where numpy deprecates a positional out
        divide, power, maximum = np.divide, np.power, np.maximum
        argmax, get, item, chosen = buf.argmax, avg.item, rates.item, []
        for t, (row, decay, t_c) in enumerate(zip(num, decays, t_cs)):
            den = avg if direct else maximum(avg, EPS_RATE, out=buf)
            if beta is not None:
                den = power(den, beta[t], buf)
            divide(row, den, buf)
            c = argmax()
            avg *= decay
            avg[c] = get(c) + item(t, c) / t_c
            chosen.append(c)
        return np.array(chosen, dtype=np.int64)

    def _choose_pfa(self, rates, snrs) -> np.ndarray:
        return self._pf_loop(rates, rates)

    def _choose_dpfa(self, rates, snrs) -> np.ndarray:
        p = self.dpfa
        center = center_timer(self.center_slots, snrs, p.delta)
        beta = update_beta(center, snrs, p)
        with np.errstate(over="ignore"):
            # r^1 is r bit for bit, so the default alpha skips the pass
            chosen = self._pf_loop(rates, rates if p.alpha == 1.0 else np.power(rates, p.alpha), beta)
        self.center_slots = center[-1].copy()  # a view would keep the whole block alive
        return chosen

    def _choose_maxci(self, rates, snrs) -> np.ndarray:
        return select(rates)

    def _choose_rr(self, rates, snrs) -> np.ndarray:
        return (self.slots_elapsed + np.arange(len(rates))) % self.n_users

    def _choose_vpfa(self, rates, snrs) -> np.ndarray:
        """vpfa's warm-up: pfa up to the next FI evaluation, its decisions
        credited to the ledger in slot order, as the run's per-user bits are.

        At the evaluation the ledger's Jain index steps the stability
        counter, unless the ledger is all zero, where the index is undefined
        (a run stops there).  When the counter reaches ``l_sc`` the ledger as
        it stands, an infinite credit included, becomes ``warmup_bits`` and
        seeds the variance phase's heap; a sorted list is a heap."""
        p = self.vpfa
        rates = rates[:p.s_fi - self.slots_elapsed % p.s_fi]
        chosen = self._pf_loop(rates, rates)
        np.add.at(self._ledger, chosen, rates[np.arange(len(rates)), chosen])
        elapsed = self.slots_elapsed + len(rates)
        if elapsed % p.s_fi == 0 and highest(self._ledger) > 0:
            fi = jain_index(self._ledger)
            self.c_s, self.last_fi = fi_stability_update(self.c_s, self.last_fi, fi, signed=p.signed_stability)
            if self.c_s >= p.l_sc:
                self.switch_slot, self.warmup_bits = elapsed + 1, self._ledger
                self._ledger_heap = sorted(zip(self._ledger.tolist(), range(self.n_users)))
                self._choose = self._choose_least_served
        return chosen

    def _choose_least_served(self, rates, snrs) -> np.ndarray:
        return least_served(self._ledger_heap, rates)


def make_scheduler(policy: str, n_users: int, dpfa: DpfaParams | None = None, vpfa: VpfaParams | None = None,
                   tc_mode: str = "fixed", tc_slots: float = 1000.0) -> Scheduler:
    """Fresh state for one run of ``policy``, one of ``POLICIES``.

    The policy and the parameter ranges are checked by ``SimConfig.validate``,
    and a dpfa ``delta`` is resolved by ``engine.resolved_config``; nothing
    here checks them again.
    """
    dpfa = dpfa or DpfaParams()
    return Scheduler(policy, n_users, dpfa, vpfa or VpfaParams(), tc_mode, tc_slots)
