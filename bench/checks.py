"""Output checks for one op: invariants, digests and exact simulated statistics.

The simulated statistics recorded here (fairness index, system bits, vpfa
switch slot) are outputs of an unvalidated model: the repository holds no
reference measurements, so they are compared between commits for exact
equality, never scored for accuracy.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

PINNED_FILE = Path(__file__).with_name("pinned.json")
PINNED_SEED = 0


def decisions_digest(decisions) -> str:
    """SHA-256 of the per-slot decisions as little-endian int64, so that a
    change of the array's dtype alone does not change the digest."""
    arr = np.ascontiguousarray(np.asarray(decisions), dtype="<i8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path and content hash,
    in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        h.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest() + b"\n")
    return h.hexdigest()


def check_result(policy: str, result, n_users: int, total_slots: int) -> tuple[list[str], dict]:
    """Invariants of one policy's ``SimResult`` plus its exact statistics."""
    errors = []
    dec = np.asarray(result.decisions)
    counts = np.asarray(result.metrics.schedule_counts)
    bits = np.asarray(result.metrics.per_user_bits, dtype=float)
    system_bits = float(result.metrics.system_bits)
    if dec.shape != (total_slots,):
        errors.append("%s: %s decisions, expected %d" % (policy, dec.shape, total_slots))
    elif dec.min() < 0 or dec.max() >= n_users:
        errors.append("%s: decision outside [0, %d)" % (policy, n_users))
    elif not np.array_equal(np.bincount(dec, minlength=n_users), counts):
        errors.append("%s: schedule counts disagree with the decisions" % policy)
    if int(counts.sum()) != total_slots:
        errors.append("%s: schedule counts sum to %d, not %d" % (policy, counts.sum(), total_slots))
    bits_sum = float(bits.sum())
    if not math.isclose(bits_sum, system_bits, rel_tol=1e-9):
        errors.append("%s: per-user bits sum to %r, system bits %r" % (policy, bits_sum, system_bits))
    stats = {
        "decisions_sha256": decisions_digest(dec),
        "fi": float(result.metrics.jain()),
        "system_bits": system_bits,
        "vpfa_switch_slot": result.phase_switch_slot,
    }
    return errors, stats


def check_tree(out: Path, policies: list[str], n_users: int, total_slots: int) -> list[str]:
    """Invariants of a written output tree (one policy at ``out``, or one
    directory per policy plus ``summary.csv``)."""
    errors = []
    if len(policies) > 1 and not (out / "summary.csv").is_file():
        errors.append("summary.csv missing")
    for policy in policies:
        run_dir = out / policy if len(policies) > 1 else out
        try:
            with open(run_dir / "per_user.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(run_dir / "system.csv", newline="") as fh:
                system_bits = float(list(csv.DictReader(fh))[-1]["cumulative_bits"])
        except (OSError, KeyError, IndexError, ValueError) as exc:
            errors.append("%s: unreadable output: %s" % (policy, exc))
            continue
        if [int(r["user_id"]) for r in rows] != list(range(n_users)):
            errors.append("%s: per_user.csv does not list users 0..%d" % (policy, n_users - 1))
        if sum(int(r["schedule_count"]) for r in rows) != total_slots:
            errors.append("%s: per_user.csv schedule counts do not sum to %d" % (policy, total_slots))
        # Values are printed with 6 significant digits.
        if not math.isclose(sum(float(r["cumulative_bits"]) for r in rows), system_bits, rel_tol=1e-5):
            errors.append("%s: per_user.csv bits do not sum to system.csv's total" % policy)
    return errors


def check_pins(workload: str, record: dict) -> list[str]:
    """Compare the default-seed op's digests with the pinned ones."""
    pinned = json.loads(PINNED_FILE.read_text()).get(workload)
    if pinned is None:
        return ["no pinned digests for workload %r" % workload]
    errors = []
    for policy, digest in pinned["decisions_sha256"].items():
        got = record["policies"].get(policy, {}).get("decisions_sha256")
        if got is not None and got != digest:
            errors.append("%s: decisions digest %s, pinned %s" % (policy, got, digest))
    if pinned.get("tree_sha256") != record.get("tree_sha256"):
        errors.append("output tree digest %s, pinned %s" % (record.get("tree_sha256"), pinned.get("tree_sha256")))
    return errors
