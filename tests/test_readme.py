"""Every python code block in README.md runs as written, so the library
example keeps step with the API, and every config README.md cites as
failing before the first fading draw fails so, with one error line."""
import re
from pathlib import Path

import pytest

from schedsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)

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
