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
EWMA and vpfa's variance-phase ledger.  ``Scheduler._pf_loop`` checks once
per block that its rates are finite and >= 0, T_c >= 1, its averages
finite and, for dpfa, its numerator finite and its exponents >= 0 (or
raises before the first slot), which keeps every priority finite; it
also proves once per block that the cold-start floor never binds.  A slot
runs only the metric's ufuncs into one preallocated buffer, one argmax and
the EWMA update, whose fixed decay is one array built per block.  dpfa's
timer, exponents and numerator r^alpha are computed per block; ``maxci``
is one ``select`` over the block and ``rr`` one arange.  vpfa's variance
phase is one ledger argmin a slot, with one finiteness check of the ledger
per block.  Each rule below is a vectorised function; the :class:`Scheduler`
holds a run's state.  :func:`pf_priority` and :func:`update_avg_throughput`
are the per-row rules the PF slot loop computes inline, kept as the
reference the tests hold it to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_finite
from .metrics import fi_stability_update, highest, lowest

# Cold-start floor for the average-throughput denominator, in bits/slot.
# R_k starts here so the first slots degenerate to max-C/I instead of 0/0.
EPS_RATE = 1.0

POLICIES = ("pfa", "dpfa", "maxci", "rr", "vpfa")

# center_timer's running maximum goes row by row at this many users per slot
# or more (10-slot blocks of 1000 users), and down the columns below it (the
# defaults' 100-slot blocks of 10); the two cost about the same at 16 x 256.
ROW_MAX_USERS_PER_SLOT = 16


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
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


@dataclass
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

def pf_priority(num: np.ndarray, avg: np.ndarray, beta=1.0, out: np.ndarray | None = None) -> np.ndarray:
    """The PF family's metric num / max(R, EPS_RATE)^beta, written into ``out``
    when given: pfa's r / R at the default beta = 1 (x^1 is x bit for bit),
    dpfa's from its numerator r^alpha and per-user exponents.

    A large beta overflows the denominator, driving the priority to 0 as
    intended; callers hold ``np.errstate(over="ignore")`` around a block.
    """
    den = np.maximum(avg, EPS_RATE, out=out)
    return np.divide(num, np.power(den, beta, out=den), out=den)


def update_avg_throughput(avg: np.ndarray, rates: np.ndarray, chosen: int, t_c: float) -> None:
    """EWMA average-throughput update of every user, in place.

    Scheduled user:   (1 - 1/T_c) * R + (1/T_c) * r
    Everyone else:    (1 - 1/T_c) * R
    """
    avg *= 1.0 - 1.0 / t_c
    avg[chosen] += rates.item(chosen) / t_c


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
        last_edge = np.maximum.accumulate(last_edge, axis=0)
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
    return np.where(center > params.theta, snrs / params.delta, 1.0)


def select(priorities):
    """Argmax over the per-user metric, the last axis; ties go to the lowest
    user index.  A 1-D metric gives an int, a (slots x users) block one
    decision per slot.  Any non-finite entry raises."""
    arr = np.asarray(priorities, dtype=float)
    if arr.size == 0:
        raise ValueError("empty priority list")
    finite = np.isfinite(arr)
    if not finite.flat[finite.argmin()]:  # the first non-finite entry, if any; cheaper than .all()
        raise ValueError("non-finite priority; upstream state is corrupt")
    return int(arr.argmax()) if arr.ndim < 2 else arr.argmax(axis=-1)


# ---------------------------------------------------------------------------
# Per-run state
# ---------------------------------------------------------------------------

class Scheduler:
    """One policy's state over one run.

    Holds the EWMA averages of the PF family, dpfa's center timer (each block
    derives its exponents from it), and vpfa's ledger and phase machine.  For
    vpfa the driving loop evaluates the fairness index every ``s_fi`` slots,
    at a block edge, and feeds it to :meth:`observe_fi`; when the stability
    counter reaches ``l_sc`` the policy leaves its PF phase for good.
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
        self.phase = "pf_warmup"  # pf_warmup | variance
        self.c_s = 0
        self.last_fi: float | None = None
        self.delivered_bits = np.zeros(n_users)
        self._choose = getattr(self, "_choose_" + policy)

    @property
    def t_c(self) -> float:
        """T_c of the next slot.  Growing mode uses k + 1 after k slots (full
        replacement on the very first slot)."""
        return float(self.slots_elapsed + 1) if self.tc_mode == "growing" else self.tc_slots

    def step(self, rates, snrs) -> np.ndarray:
        """Decide a (slots x users) block in slot order and return its
        decisions; every piece of state carries over to the next call."""
        rates = np.asarray(rates, dtype=float)
        snrs = np.asarray(snrs, dtype=float)
        if rates.ndim != 2 or rates.shape[1] != self.n_users or snrs.shape != rates.shape:
            raise ValueError("rates/snrs must be (slots, %d) blocks, got %s/%s"
                             % (self.n_users, rates.shape, snrs.shape))
        if not len(rates):
            return np.empty(0, dtype=np.int64)
        chosen = self._choose(rates, snrs)
        self.slots_elapsed += len(rates)
        return chosen

    def _pf_loop(self, rates, num, beta=None) -> np.ndarray:
        """Serve each slot's argmax of num / max(R, EPS_RATE)^beta (exponent
        1 when ``beta`` is None), then update the EWMA R in place.

        Precondition, checked once per block: finite served rates >= 0, a
        first T_c >= 1, finite averages and, for dpfa, a finite numerator and
        exponents >= 0; a block without it raises before its first slot and
        changes no state.  With it each denominator lies in [1, inf] and no
        priority is nan or inf: an update (1 - 1/T_c) R + r/T_c can round an
        average up to inf but not to nan, which takes 0 * inf, and a decay
        of 0 (T_c = 1) comes only at a growing run's first slot or in every
        slot of a fixed T_c = 1, where each update leaves 0 or r; so only an
        infinite start average could, and a slot serves the plain argmax.

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
        if not (lowest(rates) >= 0 and highest(rates) < math.inf and t_cs[0] >= 1
                and lo > -math.inf and highest(avg) < math.inf
                and (beta is None or (highest(num) < math.inf and lowest(beta) >= 0))):
            raise ValueError("a PF block needs finite rates >= 0, T_c >= 1, finite averages"
                             " and, for dpfa, a finite numerator and exponents >= 0")
        for d in decays[:-1]:
            lo *= d
        direct = lo >= EPS_RATE
        if not growing:
            # a ufunc converts a Python float operand on every call, an array operand it does not
            decays = [np.full(len(avg), decays[0])] * len(decays)
        argmax, item, chosen = buf.argmax, rates.item, []
        for t, (row, decay, t_c) in enumerate(zip(num, decays, t_cs)):
            den = avg if direct else np.maximum(avg, EPS_RATE, out=buf)
            if beta is not None:
                den = np.power(den, beta[t], out=buf)
            np.divide(row, den, out=buf)
            c = argmax()
            avg *= decay
            avg[c] += item(t, c) / t_c
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
        # observe_fi runs between blocks, so no block spans the phase switch
        if self.phase == "pf_warmup":
            chosen = self._choose_pfa(rates, snrs)
            np.add.at(self.delivered_bits, chosen, rates[np.arange(len(rates)), chosen])
            return chosen
        return self._serve_least_served(rates)

    def _serve_least_served(self, rates) -> np.ndarray:
        """vpfa's variance phase: each slot serves the least-served user,
        lowest index on ties, and credits its rate to the ledger.  A ledger
        entry that is not finite stays so, and argmin and argmax land on a
        nan, so one check of the extremes after the block raises on it."""
        d = self.delivered_bits
        argmin, item, chosen = d.argmin, rates.item, []
        for t in range(len(rates)):
            c = argmin()
            d[c] += item(t, c)
            chosen.append(c)
        if not (lowest(d) > -math.inf and highest(d) < math.inf):
            raise ValueError("non-finite delivered bits; upstream state is corrupt")
        return np.array(chosen, dtype=np.int64)

    def observe_fi(self, fi: float) -> bool:
        """Feed one fairness-index evaluation; True when this one fires the phase switch."""
        if self.phase != "pf_warmup":
            return False
        self.c_s, self.last_fi = fi_stability_update(
            self.c_s, self.last_fi, fi, signed=self.vpfa.signed_stability
        )
        if self.c_s >= self.vpfa.l_sc:
            self.phase = "variance"
        return self.phase == "variance"


def make_scheduler(policy: str, n_users: int, dpfa: DpfaParams | None = None, vpfa: VpfaParams | None = None,
                   tc_mode: str = "fixed", tc_slots: float = 1000.0) -> Scheduler:
    """Fresh state for one run of ``policy``.

    Parameter ranges are checked by ``SimConfig.validate``; this only
    rejects what a config cannot express.
    """
    if policy not in POLICIES:
        raise ConfigError("policy must be one of %s" % (POLICIES,))
    dpfa = dpfa or DpfaParams()
    if policy == "dpfa" and dpfa.delta is None:
        raise ConfigError("dpfa_delta must be resolved before scheduling")
    return Scheduler(policy, n_users, dpfa, vpfa or VpfaParams(), tc_mode, tc_slots)
