"""The CSV and SVG writers stream: each formats and writes at most
``CHUNK`` rows or marks at a time.  Their output is byte for byte what
whole-file writers gave, on either side of every chunk boundary; the memory
they take does not grow with users x policies; and an output path that
cannot be written is one ``schedsim: error:`` line.
"""
import tracemalloc

import pytest
from test_golden import tree_digest

from schedsim.cli import emit_csv, emit_figures, main
from schedsim.engine import SimConfig, comparison_configs, run_comparison
from schedsim.svgplot import CHUNK

FIGURES = ["figures", "--policies", "pfa,dpfa,maxci,rr,vpfa"]

# `figures` output-tree digests (every file's SHA-256 with its path, as in
# test_golden), recorded with the whole-file writers that preceded streaming,
# at CHUNK = 256: 1, C - 1, C, C + 1 and 2C + 3 users (one bar group per
# user, one CSV row per user), and a fairness-index series of 2C + 3 points
# (polyline points and CSV rows)
CHUNK_CASES = [
    ({"n_users": 1, "total_slots": 20}, "f9da70f63d62b7b29e822f077a8531649dfa80aba85c2760d89edc61f4877a63"),
    ({"n_users": 255, "total_slots": 20}, "14477978e16efb45a2709657f131ee83e577bacfaa531065350d2892c789eaac"),
    ({"n_users": 256, "total_slots": 20}, "481f565dff7abdbf0f67960a1cc42bc3d40b79ed89ef4e290ba6426a42bd8c3b"),
    ({"n_users": 257, "total_slots": 20}, "103d014871d698a6142485e565a4a5537371b6ac93168851b05fa4258360b4f1"),
    ({"n_users": 515, "total_slots": 20}, "f7dab569d11e0c819a19da21692b62e75a8090d370a235af44dd8aa7528f0fa3"),
    ({"n_users": 3, "total_slots": 515, "vpfa_s_fi": 1},
     "9e299dc200bf8b12abfa6fc15f26562eb803b21e9a15ec7a1f52aaf86bbd358a"),
]


def test_chunk_cases_straddle_the_chunk():
    assert CHUNK == 256  # the digests' sizes are C - 1, C, C + 1 and 2C + 3 at this value


@pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")  # equal spacing at 255+ users
@pytest.mark.parametrize("keys,digest", CHUNK_CASES, ids=["-".join(map(str, k.values())) for k, _ in CHUNK_CASES])
def test_figures_tree_at_chunk_boundaries(keys, digest, tmp_path):
    out = tmp_path / "out"
    overrides = [arg for key, value in keys.items() for arg in ("--set", "%s=%d" % (key, value))]
    assert main([*FIGURES, *overrides, "--out", str(out)]) == 0
    assert tree_digest(out) == digest


def test_emission_memory_is_bounded_by_the_chunk(tmp_path):
    # whole-file writers held every row, bar and point as a string, and each file's text twice:
    # 4.4 MB here, and growing with users x policies
    comp = run_comparison(comparison_configs(SimConfig(n_users=3000, total_slots=4, placement="uniform_ring"),
                                             ["pfa", "rr"]))
    tracemalloc.start()
    try:
        emit_csv(comp, tmp_path)
        emit_figures(comp, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk of marks, about 110 characters each, held at most three times over (the strings,
    # their join and its encoding), plus the charts' 8-byte user ids: about 0.14 MB
    assert peak < CHUNK * 1024


@pytest.mark.parametrize("command,blocked", [
    (FIGURES, "fi.svg"),
    (["compare", "--policies", "pfa,rr"], "pfa/per_user.csv"),
])
def test_an_unwritable_output_is_single_line_error(command, blocked, tmp_path, capsys):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([*command, "--set", "n_users=4", "--set", "total_slots=30", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("schedsim: error: cannot write %s: " % (out / blocked))
    assert captured.err.count("\n") == 1
