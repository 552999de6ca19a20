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
    rounding on near-equal inputs.
    """
    arr = np.asarray(throughputs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("throughputs must be a non-empty 1-D sequence")
    if lowest(arr) < 0:
        raise ValueError("throughputs must be non-negative")
    sum_sq = float(np.dot(arr, arr))
    if sum_sq == 0.0:
        raise ValueError("fairness index undefined for an all-zero allocation")
    n = arr.size
    total = float(np.add.reduce(arr))  # what arr.sum() calls, so the same pairwise sum
    return min(1.0, max(1.0 / n, total * total / (n * sum_sq)))


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
    slots: int = 0

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        self.per_user_bits = np.zeros(self.n_users)
        self.schedule_counts = np.zeros(self.n_users, dtype=np.int64)

    def record_slot(self, chosen, delivered_bits) -> None:
        """Credit one slot, or a run of consecutive slots, to the chosen users;
        every sum accumulates in slot order, as a running ``+=`` would."""
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
        total = self.system_bits
        for b in bits.tolist():
            total += b
        self.system_bits = total
        self.slots += chosen.size

    def jain(self) -> float:
        return jain_index(self.per_user_bits)
