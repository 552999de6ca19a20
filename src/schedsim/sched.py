"""Per-slot scheduling policies.

Five policies share one interface: ``step(rates, snrs)`` picks exactly one
user for the slot and applies the policy's state updates.

* ``pfa``   - proportional fair: argmax r_k / R_k, with R_k the EWMA of the
  served rate.
* ``dpfa``  - proportional fair with per-user exponents: argmax
  r_k^alpha / R_k^beta_k, beta_k driven by cell-edge/cell-center residence
  timers so that long-time center users are de-prioritized.
* ``maxci`` - argmax r_k (pure opportunism).
* ``rr``    - cyclic round robin.
* ``vpfa``  - proportional fair until the fairness index stops moving, then
  greedy equalization of cumulative delivered bits (or, in ``series`` mode,
  argmax of the sliding-window variance of per-slot deliveries).

Each rule below is a vectorised function over all users; the
:class:`Scheduler` holds a run's state and calls each rule from one place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_finite
from .metrics import fi_stability_update

# Cold-start floor for the average-throughput denominator, in bits/slot.
# R_k starts here so the first slots degenerate to max-C/I instead of 0/0.
EPS_RATE = 1.0

POLICIES = ("pfa", "dpfa", "maxci", "rr", "vpfa")
VARIANCE_MODES = ("deficit", "series")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class DpfaParams:
    """Knobs for the timer-driven PF variant.

    ``delta`` is the linear SNR threshold splitting edge from center (None
    means: resolve from the link budget at 60% of the cell radius when the
    simulation starts).  ``theta`` is the residence-time threshold in slots,
    ``b`` the floor for the denominator exponent.  ``beta_override`` pins
    beta for every user, bypassing the timer logic; with 1.0 the policy is
    plain PF, with 0.0 it is max-C/I.
    """

    alpha: float = 1.0
    delta: float | None = None
    theta: int = 20
    b: float = 0.5
    beta_override: float | None = None
    literal_timers: bool = False

    def validate(self) -> None:
        check_finite(
            dpfa_alpha=self.alpha,
            dpfa_delta=self.delta,
            dpfa_beta_override=self.beta_override,
        )
        if self.alpha < 0:
            raise ConfigError("dpfa_alpha must be >= 0")
        if self.delta is not None and self.delta <= 0:
            raise ConfigError("dpfa_delta must be > 0")
        if self.theta < 1:
            raise ConfigError("dpfa_theta must be >= 1")
        if not 0 < self.b <= 1:
            raise ConfigError("dpfa_b must be in (0, 1]")


@dataclass
class VpfaParams:
    """Phase-machine constants for the variance policy.

    ``s_fi`` slots between fairness-index evaluations, ``l_sc`` the
    stability-counter target that flips the policy out of its PF phase.
    """

    s_fi: int = 100
    l_sc: int = 5
    variance_mode: str = "deficit"
    window: int = 500
    signed_stability: bool = False

    def validate(self) -> None:
        if self.s_fi < 1:
            raise ConfigError("vpfa_s_fi must be >= 1")
        if self.l_sc < 1:
            raise ConfigError("vpfa_l_sc must be >= 1")
        if self.variance_mode not in VARIANCE_MODES:
            raise ConfigError("vpfa_variance_mode must be one of %s" % (VARIANCE_MODES,))
        if self.window < 1:
            raise ConfigError("vpfa_window must be >= 1")


# ---------------------------------------------------------------------------
# Rules: one vectorised definition each, over all users at once
# ---------------------------------------------------------------------------

def pfa_priority(rates: np.ndarray, avg: np.ndarray) -> np.ndarray:
    """Proportional-fair metric r / R with the cold-start floor on R."""
    return rates / np.maximum(avg, EPS_RATE)


def dpfa_priority(rates: np.ndarray, avg: np.ndarray, alpha: float, beta) -> np.ndarray:
    """Generalized PF metric r^alpha / R^beta (alpha=beta=1 reduces to PF)."""
    # beta can be large for strong center users; the overflowing
    # denominator just drives the priority to 0, which is the intent.
    with np.errstate(over="ignore"):
        return np.power(rates, alpha) / np.power(np.maximum(avg, EPS_RATE), beta)


def update_avg_throughput(avg: np.ndarray, rates: np.ndarray, chosen: int, t_c: float) -> None:
    """EWMA average-throughput update of every user, in place.

    Scheduled user:   (1 - 1/T_c) * R + (1/T_c) * r
    Everyone else:    (1 - 1/T_c) * R
    """
    avg *= 1.0 - 1.0 / t_c
    avg[chosen] += rates[chosen] / t_c


def update_timers(edge, center, snrs, delta: float, literal: bool):
    """Cell-edge (A) and cell-center (B) residence timers; returns (A, B).

    Default semantics: SNR below the threshold counts consecutive edge slots
    and zeroes the center timer; at or above the threshold the reverse.  The
    ``literal`` mode keeps the published piecewise form instead, under which
    B counts gamma <= delta slots (so both timers can run together below the
    threshold).
    """
    if literal:
        return np.where(snrs >= delta, 0, edge + 1), np.where(snrs > delta, 0, center + 1)
    at_edge = snrs < delta
    return np.where(at_edge, edge + 1, 0), np.where(at_edge, 0, center + 1)


def update_beta(edge, center, snrs, params: DpfaParams) -> np.ndarray:
    """Per-user denominator exponent.

    The neutral branch (beta = 1) wins whenever the user has been at the
    edge at least theta slots or at the center no more than theta slots;
    only a long-time center user is re-weighted to max(gamma/delta, b).
    ``beta_override`` replaces the whole rule.
    """
    if params.beta_override is not None:
        return np.full(len(snrs), params.beta_override, dtype=float)
    neutral = (edge >= params.theta) | (center <= params.theta)
    return np.where(neutral, 1.0, np.maximum(snrs / params.delta, params.b))


def variance_scores(delivered: np.ndarray, window: np.ndarray | None) -> np.ndarray:
    """Variance-phase selection metric of every user.

    Deficit mode (``window`` None) scores the shortfall of each user's
    cumulative bits below the population mean; serving the top scorer is the
    greedy spread reducer.  Series mode scores the variance of each user's
    per-slot delivered bits over ``window``, the filled rows of the sliding
    window.
    """
    if window is None:
        return delivered.mean() - delivered
    if window.shape[0] == 0:
        return np.zeros(delivered.shape)
    return window.var(axis=0)


def select(priorities) -> int:
    """Argmax over the per-user metric; ties go to the lowest user index."""
    arr = np.asarray(priorities, dtype=float)
    if arr.size == 0:
        raise ValueError("empty priority list")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite priority; upstream state is corrupt")
    return int(np.argmax(arr))


# ---------------------------------------------------------------------------
# Per-run state
# ---------------------------------------------------------------------------

class Scheduler:
    """One policy's state over one run.

    Holds the EWMA averages of the PF family, dpfa's timers and exponents,
    and vpfa's ledger, window and phase machine.  For vpfa the driving loop
    evaluates the fairness index every ``s_fi`` slots and feeds it to
    :meth:`observe_fi`; when the stability counter reaches ``l_sc`` the
    policy leaves its PF phase for good.
    """

    def __init__(
        self,
        policy: str,
        n_users: int,
        dpfa: DpfaParams,
        vpfa: VpfaParams,
        tc_mode: str,
        tc_slots: float,
    ):
        self.name = policy
        self.n_users = n_users
        self.dpfa = dpfa
        self.vpfa = vpfa
        self.tc_mode = tc_mode
        self.tc_slots = tc_slots
        self.slots_elapsed = 0
        self.avg_throughput = np.full(n_users, EPS_RATE)
        self.edge_slots = np.zeros(n_users, dtype=np.int64)    # A_k
        self.center_slots = np.zeros(n_users, dtype=np.int64)  # B_k
        self.beta = np.ones(n_users)
        self.phase = "pf_warmup"  # pf_warmup | variance
        self.c_s = 0
        self.last_fi: float | None = None
        self.delivered_bits = np.zeros(n_users)
        series = policy == "vpfa" and vpfa.variance_mode == "series"
        self.window = np.zeros((vpfa.window, n_users)) if series else None
        self._choose = getattr(self, "_choose_" + policy)

    @property
    def t_c(self) -> float:
        # growing mode: the count starts at 0 and ticks every slot, so the
        # update at elapsed-count k uses T_c = k + 1 (full replacement on
        # the very first slot).
        if self.tc_mode == "growing":
            return float(self.slots_elapsed + 1)
        return self.tc_slots

    def step(self, rates, snrs) -> int:
        """Pick this slot's user and apply the policy's updates."""
        rates = np.asarray(rates, dtype=float)
        if len(rates) != self.n_users or len(snrs) != self.n_users:
            raise ValueError(
                "rates/snrs length mismatch: got %d/%d, expected %d"
                % (len(rates), len(snrs), self.n_users)
            )
        chosen = self._choose(rates, snrs)
        self.slots_elapsed += 1
        return chosen

    def _choose_pfa(self, rates, snrs) -> int:
        chosen = select(pfa_priority(rates, self.avg_throughput))
        update_avg_throughput(self.avg_throughput, rates, chosen, self.t_c)
        return chosen

    def _choose_dpfa(self, rates, snrs) -> int:
        p = self.dpfa
        snrs = np.asarray(snrs, dtype=float)
        self.edge_slots, self.center_slots = update_timers(
            self.edge_slots, self.center_slots, snrs, p.delta, p.literal_timers
        )
        self.beta = update_beta(self.edge_slots, self.center_slots, snrs, p)
        chosen = select(dpfa_priority(rates, self.avg_throughput, p.alpha, self.beta))
        update_avg_throughput(self.avg_throughput, rates, chosen, self.t_c)
        return chosen

    def _choose_maxci(self, rates, snrs) -> int:
        return select(rates)

    def _choose_rr(self, rates, snrs) -> int:
        return self.slots_elapsed % self.n_users

    def _choose_vpfa(self, rates, snrs) -> int:
        # Every vpfa slot appends one window row, so the filled rows are the
        # first min(slots_elapsed, window) ones.
        if self.phase == "pf_warmup":
            chosen = self._choose_pfa(rates, snrs)
        else:
            filled = None if self.window is None else self.window[: self.slots_elapsed]
            chosen = select(variance_scores(self.delivered_bits, filled))
        self.delivered_bits[chosen] += rates[chosen]
        if self.window is not None:
            row = self.window[self.slots_elapsed % len(self.window)]
            row[:] = 0.0
            row[chosen] = rates[chosen]
        return chosen

    def observe_fi(self, fi: float) -> bool:
        """Feed one fairness-index evaluation; True when this one fires the phase switch."""
        if self.phase != "pf_warmup":
            return False
        self.c_s, self.last_fi = fi_stability_update(
            self.c_s, self.last_fi, fi, signed=self.vpfa.signed_stability
        )
        if self.c_s >= self.vpfa.l_sc:
            self.phase = "variance"
            return True
        return False


def make_scheduler(
    policy: str,
    n_users: int,
    dpfa: DpfaParams | None = None,
    vpfa: VpfaParams | None = None,
    tc_mode: str = "fixed",
    tc_slots: float = 1000.0,
) -> Scheduler:
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
