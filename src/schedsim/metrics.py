"""Jain fairness index, per-user accounting, and the FI stability counter."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# An FI evaluation counts as "stable" when it moved less than this since the
# previous evaluation.
FI_STABILITY_THRESHOLD = 0.01


# ndarray.min and .max go through a Python-level reduce costing microseconds a
# call; argmin and argmax land on the first nan too, so these give the same
# extremes, nan included, as Python scalars.
def lowest(x: np.ndarray):
    return x.item(x.argmin())


def highest(x: np.ndarray):
    return x.item(x.argmax())


def jain_index(throughputs) -> float:
    """Jain fairness index (sum r)^2 / (N * sum r^2) over per-user throughputs.

    1.0 means perfectly equal allocation, 1/N means one user takes all.  The
    result is clamped to the mathematical range [1/N, 1] to absorb float
    rounding on near-equal inputs.  The index does not depend on scale, so
    where the sum of squares of finite throughputs overflows, or underflows
    to 0 while one is > 0, it is taken over the throughputs divided by their
    largest.  One row of :func:`_jain_rows`, which the run's FI series and
    vpfa's warm-up use too.
    """
    arr = np.asarray(throughputs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("throughputs must be a non-empty 1-D sequence")
    if lowest(arr) < 0:
        raise ValueError("throughputs must be non-negative")
    fi = _jain_rows(arr[None]).item()
    if fi != fi:
        raise ValueError("fairness index undefined for an all-zero allocation")
    return fi


@np.errstate(all="ignore")  # inf and nan entries give nan in the ratio, which the clamp maps to 1/N
def _jain_rows(rows: np.ndarray) -> np.ndarray:
    """Jain index of each row of a (rows x users) block of throughputs >= 0,
    nan for a row whose sum of squares is 0.

    Each row's sum of squares is its own ``np.dot`` and its sum a pairwise
    ``np.add.reduce``, so a row's index is the one it has alone.  A row whose
    squares overflow while its entries are finite, or underflow to 0 while
    an entry is not, is divided by its largest entry first.  ``np.fmax``
    skips nan as Python's ``max(1/N, nan)`` does, so a row with an infinite
    or nan entry clamps to 1/N.
    """
    sum_sq = np.array([np.dot(row, row) for row in rows])
    total = np.add.reduce(rows, axis=1)
    for k in np.flatnonzero((sum_sq == np.inf) | (sum_sq == 0)):
        row = rows[k]
        if 0 < highest(row) < np.inf:
            row = row / highest(row)
            sum_sq[k], total[k] = np.dot(row, row), np.add.reduce(row)
    n = rows.shape[1]
    fi = np.fmin(1.0, np.fmax(1.0 / n, total * total / (n * sum_sq)))
    fi[sum_sq == 0] = np.nan
    return fi


def ledger_fi(chosen, bits, n_users: int, stops, max_elements: int) -> np.ndarray:
    """Jain index of the per-user bits after each slot count in ``stops``.

    The ledger is built a block of stops at a time, at most ``max_elements``
    (stop, user) entries or one row: each row copies the one before it and
    adds its interval's credits with ``np.add.at``, in slot order, as
    :meth:`MetricsLog.record_slot` does, and each block takes one
    :func:`_jain_rows` call.  ``chosen`` and ``bits`` must be what
    ``record_slot`` accepts; a ledger still all zero reads nan.
    """
    fi = np.empty(len(stops))
    per_block = max(1, max_elements // n_users)
    row, start = np.zeros(n_users), 0
    for first in range(0, len(stops), per_block):
        block_stops = stops[first:first + per_block]
        block = np.empty((len(block_stops), n_users))
        for out, stop in zip(block, block_stops):
            np.copyto(out, row)
            np.add.at(out, chosen[start:stop], bits[start:stop])
            row, start = out, stop
        fi[first:first + len(block)] = _jain_rows(block)
    return fi


def fi_stability_update(
    c_s: int, last_fi: float | None, fi: float, signed: bool = False
) -> tuple[int, float]:
    """One step of the FI stability counter.

    A zero counter restarts at 1 unconditionally; otherwise it increments
    while the FI change since the previous evaluation stays below 0.01 and
    resets to 0 as soon as it does not.  ``signed`` switches the change test
    from |last - fi| to the raw difference (last - fi).
    """
    if c_s < 0:
        raise ValueError("c_s must be >= 0")
    if c_s == 0:
        return 1, fi
    delta = (last_fi - fi) if signed else abs(last_fi - fi)
    if delta < FI_STABILITY_THRESHOLD:
        return c_s + 1, fi
    return 0, fi


@dataclass
class MetricsLog:
    """Cumulative per-user and system counters for one simulation run."""

    n_users: int
    per_user_bits: np.ndarray = field(init=False)
    schedule_counts: np.ndarray = field(init=False)
    system_bits: float = 0.0

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        self.per_user_bits = np.zeros(self.n_users)
        self.schedule_counts = np.zeros(self.n_users, dtype=np.int64)

    def record_slot(self, chosen, delivered_bits) -> None:
        """Credit one slot, or a run of consecutive slots, to the chosen users.

        The run is checked once, before any credit.  Every sum accumulates in
        slot order, as a running ``+=`` would: the per-user bits and counts by
        ``np.add.at``, the system bits by one ``np.add.accumulate`` that starts
        from the total so far."""
        chosen = np.atleast_1d(chosen)
        bits = np.atleast_1d(np.asarray(delivered_bits, dtype=float))
        if chosen.size and not (0 <= lowest(chosen) and highest(chosen) < self.n_users):
            raise IndexError("chosen user out of range [0, %d)" % self.n_users)
        if bits.shape != chosen.shape:
            raise ValueError("%d delivered_bits values for %d slots" % (bits.size, chosen.size))
        if bits.size and lowest(bits) < 0:
            raise ValueError("delivered_bits must be >= 0")
        if chosen.ndim != 1:
            raise ValueError("chosen must be one user or a 1-D run of users")
        np.add.at(self.per_user_bits, chosen, bits)
        np.add.at(self.schedule_counts, chosen, 1)
        running = np.empty(bits.size + 1)
        running[0], running[1:] = self.system_bits, bits
        with np.errstate(over="ignore"):  # a sum past the float range is inf, as a Python float's is
            self.system_bits = np.add.accumulate(running, out=running).item(-1)

    def jain(self) -> float:
        return jain_index(self.per_user_bits)
