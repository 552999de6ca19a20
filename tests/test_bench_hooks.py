"""The benchmark's span hooks still resolve, and every one fires.

``bench/spans.py`` wraps schedsim's public functions by name and silently
drops the metrics of any hook that no longer resolves.  A refactor that
renames or bypasses ``Scheduler.step``, ``select``, ``MetricsLog.record_slot``,
``jain_index`` or ``engine.run`` would leave the benchmark's traced pass
without its per-layer metrics; this test fails first.
"""
import importlib
from pathlib import Path

import pytest

import schedsim.cli  # noqa: F401  (the cli and svgplot hooks resolve only once loaded)
from schedsim.engine import SimConfig, comparison_configs, run_comparison
from schedsim.sched import POLICIES, VpfaParams

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_every_hook_resolves_and_fires(spans):
    base = SimConfig(n_users=4, total_slots=300, seed=0, vpfa=VpfaParams(s_fi=50))
    with spans.Instrument(timing=True, capture=True) as inst:
        comp = run_comparison(comparison_configs(base, list(POLICIES)))
    assert inst.missing == set()
    for policy in POLICIES:
        assert inst.records["sched.step.%s" % policy].calls >= 1, policy
    for key in ("sched.select", "metrics.record_slot", "metrics.jain_index", "engine.run"):
        assert inst.records[key].calls >= 1, key
    assert sorted(r.config.policy for r in inst.results) == sorted(comp.results)
