"""The benchmark's span hooks still resolve, and every one fires; its setup
probes still run.

``bench/spans.py`` wraps schedsim's public functions by name and silently
drops the metrics of any hook that no longer resolves.  A refactor that
renames or bypasses ``Scheduler.step``, ``select``, ``MetricsLog.record_slot``,
``jain_index`` or ``engine.run`` would leave the benchmark's traced pass
without its per-layer metrics; this test fails first.

A comparison decides its policies round-robin over one process per usable
CPU, and the spans of a step taken in a forked process stay in that process.
So the per-policy spans are asserted with one usable CPU, and the split only
for what the parent still sees: every result, and its own shares' steps.
"""
import importlib
import math
import os
from pathlib import Path

import pytest

import schedsim.cli  # noqa: F401  (the cli and svgplot hooks resolve only once loaded)
from schedsim.engine import BLOCK_ELEMENTS, SimConfig, comparison_configs, run_comparison
from schedsim.sched import POLICIES, VpfaParams

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_every_setup_probe_prints_ready(monkeypatch, capsys):
    # the benchmark times each probe in a fresh interpreter as setup_s; here it runs in-process, so an API
    # change that breaks a probe fails this test rather than the benchmark
    monkeypatch.syspath_prepend(str(BENCH))
    for workload in importlib.import_module("workloads").WORKLOADS:
        exec(compile(workload.probe_code(0), "<%s probe>" % workload.name, "exec"), {"__name__": "probe"})
        assert capsys.readouterr().out == "ready\n", workload.name


def test_every_hook_resolves_and_fires(spans, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one process, which records every span
    base = SimConfig(n_users=4, total_slots=300, seed=0, vpfa=VpfaParams(s_fi=50))
    with spans.Instrument(timing=True, capture=True) as inst:
        comp = run_comparison(comparison_configs(base, list(POLICIES)))
    assert inst.missing == set()
    for policy in POLICIES:
        assert inst.records["sched.step.%s" % policy].calls >= 1, policy
    for key in ("sched.select", "metrics.record_slot", "metrics.jain_index", "engine.run"):
        assert inst.records[key].calls >= 1, key
    assert sorted(r.config.policy for r in inst.results) == sorted(comp.results)


@pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
@pytest.mark.parametrize("n_users,total_slots", [(4, 300), (40, 2000), (1000, 70)])
def test_a_comparison_steps_every_policy_once_a_block(spans, monkeypatch, n_users, total_slots):
    # the benchmark's decision checks read the captured results, and its per-policy spans the steps
    base = SimConfig(n_users=n_users, total_slots=total_slots, seed=1, vpfa=VpfaParams(s_fi=10))
    blocks = math.ceil(total_slots / max(1, BLOCK_ELEMENTS // n_users))
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with spans.Instrument(timing=True, capture=True) as inst:
            comp = run_comparison(comparison_configs(base, list(POLICIES)))
        assert [r.config.policy for r in inst.results] == list(POLICIES)
        assert all(comp.results[r.config.policy] is r for r in inst.results)
        # with two CPUs, the parent steps every other policy, the first among them, and a child the rest
        for policy in POLICIES:
            stepped_here = cpus == 1 or policy in POLICIES[::2]
            assert inst.records["sched.step.%s" % policy].calls == (blocks if stepped_here else 0), (cpus, policy)
