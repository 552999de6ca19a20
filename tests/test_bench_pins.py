"""Tier-1 fails wherever the benchmark's pin check would.

``bench/pinned.json`` pins the seed-0 decision digests and output-tree
digests of the benchmark workloads.  This reads it, never writes it, checks
that the golden digests agree with it, and rebuilds the one pinned tree no
other test checks: ``wide_cell``'s ``figures`` output, with its SVGs and
``summary.csv``.
"""
import importlib
import json
from pathlib import Path

import pytest
from test_golden import DEFAULT_DIGESTS, RUN_TREE_DIGEST

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def pinned():
    return json.loads((BENCH / "pinned.json").read_text())


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads"), importlib.import_module("checks")


def test_golden_digests_equal_pins(pinned):
    assert RUN_TREE_DIGEST == pinned["single_run"]["tree_sha256"]
    for workload in ("headline", "single_run"):
        assert pinned[workload]["seed"] == 0
        for policy, digest in pinned[workload]["decisions_sha256"].items():
            assert DEFAULT_DIGESTS[(policy, 0)] == digest, (workload, policy)


def test_wide_cell_figures_tree_equals_pin(pinned, bench, tmp_path):
    workloads, checks = bench
    pin = pinned["wide_cell"]
    out = tmp_path / "out"
    workloads.BY_NAME["wide_cell"].run_op(pin["seed"], out)
    assert checks.tree_digest(out) == pin["tree_sha256"]
