"""Every python code block in README.md runs as written, so the library
example keeps step with the API, every config README.md cites as
failing before the first fading draw fails so, with one error line, and
every dotted name it cites from schedsim (`engine._decide`,
`MetricsLog.per_user_bits`) still names something."""
import dataclasses
import importlib
import re
import typing
from pathlib import Path

import pytest

from schedsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)

MODULES = {name: importlib.import_module("schedsim." + name)
           for name in ("channel", "cli", "engine", "errors", "metrics", "sched", "svgplot")}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if isinstance(obj, type) and obj.__module__.startswith("schedsim.")}
# a backticked dotted name whose first part is a schedsim module or class, with a call's arguments or not:
# `engine._decide`, `Scheduler.step(rates, snrs)`
REFERENCES = sorted({ref for ref in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\([^`]*\))?`", TEXT)
                     if ref.split(".")[0] in MODULES.keys() | CLASSES.keys()})

# the configs README.md's notes cite as range errors
FAILING = [
    ["policy=dpfa", "dpfa_alpha=60"],
    ["tx_power_dbm=-400"],
    ["bandwidth_hz=1e300"],
    ["tx_power_dbm=-3300"],
    ["tx_power_dbm=3090", "shadowing_sigma_db=0"],
    ["slot_duration_s=1e305"],
    ["slot_duration_s=1e298"],
    ["n_users=1", "tx_power_dbm=-3250", "shadowing_sigma_db=1500", "policy=dpfa", "total_slots=20", "seed=108"],
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=["block %d" % k for k in range(len(BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("overrides", FAILING, ids=" ".join)
def test_readme_failing_config_fails_before_the_draw(overrides, tmp_path, capsys, monkeypatch):
    def no_draw(rng, size=None, out=None):
        raise AssertionError("drew the fading of a config that cannot run")

    assert all("`%s`" % item in TEXT for item in overrides)
    monkeypatch.setattr("schedsim.engine.draw_fast_fading", no_draw)
    out = tmp_path / "out"
    assert main(["run", *[arg for item in overrides for arg in ("--set", item)], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schedsim: error: ") and err.count("\n") == 1
    assert not out.exists()


def test_readme_names_are_read():
    assert {"engine._decide", "svgplot.CHUNK", "MetricsLog.per_user_bits", "Scheduler.step"} <= set(REFERENCES)


@pytest.mark.parametrize("reference", REFERENCES)
def test_readme_name_resolves(reference):
    # each part is an attribute or a dataclass field, which a class holds only as an annotation; a field's
    # annotated type is what the next part is looked up on
    first, *rest = reference.split(".")
    owner = MODULES.get(first) or CLASSES[first]
    for part in rest:
        fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else set()
        owner = typing.get_type_hints(owner)[part] if part in fields else getattr(owner, part)
