import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from schedsim.channel import ChannelParams
from schedsim.cli import (
    emit_csv,
    emit_figures,
    main,
    parse_config,
    render_config,
)
from schedsim.engine import SimConfig, comparison_configs, run, run_comparison
from schedsim.errors import ConfigError
from schedsim.metrics import jain_index
from schedsim.sched import DpfaParams, VpfaParams


def no_draw(rng, size=None, out=None):
    raise AssertionError("drew the fading of a config that cannot run")


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == SimConfig()
        assert cfg.channel.tx_power_dbm == 46.0
        assert cfg.channel.cell_radius_m == 1000.0
        assert cfg.channel.bandwidth_hz == 10e6
        assert cfg.channel.shadowing_sigma_db == 8.0

    def test_single_override(self):
        cfg = parse_config("n_users = 4\n")
        assert cfg.n_users == 4
        assert cfg.total_slots == SimConfig().total_slots

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*'frequency'"):
            parse_config("seed = 1\nfrequency = 2\n")

    def test_bad_enum_names_key(self):
        with pytest.raises(ConfigError, match=r"'policy'"):
            parse_config("policy = flying\n")

    def test_bad_number_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 1.*'n_users'"):
            parse_config("n_users = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("tx_power_dbm 46\n")

    def test_validation_applies(self):
        with pytest.raises(ConfigError):
            parse_config("total_slots = 0\n")

    def test_auto_and_none_sentinels(self):
        cfg = parse_config("dpfa_delta = auto\ndpfa_beta_override = none\n")
        assert cfg.dpfa.delta is None
        assert cfg.dpfa.beta_override is None
        cfg = parse_config("dpfa_delta = 3.5\ndpfa_beta_override = 1.0\n")
        assert cfg.dpfa.delta == 3.5
        assert cfg.dpfa.beta_override == 1.0

    def test_overrides_apply_after_file(self):
        cfg = parse_config("seed = 1\n", overrides=["seed=7", "n_users=3"])
        assert cfg.seed == 7 and cfg.n_users == 3

    def test_bad_override_reported(self):
        with pytest.raises(ConfigError, match=r"--set #1"):
            parse_config("", overrides=["nope=1"])


# config.txt as ``schedsim run`` wrote it at defaults while dpfa_b,
# dpfa_literal_timers, vpfa_variance_mode and vpfa_window were still settable
DEFAULT_CONFIG_TXT = """\
tx_power_dbm = 46.0
carrier_freq_mhz = 2000.0
bandwidth_hz = 10000000.0
cell_radius_m = 1000.0
shadowing_sigma_db = 8.0
bs_height_m = 30.0
ue_height_m = 1.5
env_class = metro
noise_figure_db = 9.0
slot_duration_s = 0.001
fast_fading = true
n_users = 10
placement = equal_spacing
policy = pfa
total_slots = 20000
seed = 0
tc_mode = fixed
tc_slots = 1000.0
dpfa_alpha = 1.0
dpfa_delta = 6.3424493119662735
dpfa_theta = 20
dpfa_b = 0.5
dpfa_beta_override = none
dpfa_literal_timers = false
vpfa_s_fi = 100
vpfa_l_sc = 5
vpfa_variance_mode = deficit
vpfa_window = 500
vpfa_signed_stability = false
"""

REMOVED_KEY_VALUES = [
    ("dpfa_b", "0.3"),
    ("dpfa_literal_timers", "true"),
    ("vpfa_variance_mode", "series"),
    ("vpfa_window", "64"),
]


class TestRemovedKeys:
    def test_written_config_parses_and_rerenders(self):
        assert render_config(parse_config(DEFAULT_CONFIG_TXT)) == DEFAULT_CONFIG_TXT

    @pytest.mark.parametrize("via", ["set", "config"])
    @pytest.mark.parametrize("key,value", REMOVED_KEY_VALUES)
    def test_other_value_is_single_line_error(self, key, value, via, tmp_path, capsys):
        if via == "set":
            source = ["--set", "%s=%s" % (key, value)]
        else:
            cfg = tmp_path / "sim.cfg"
            cfg.write_text("%s = %s\n" % (key, value))
            source = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(["run", *source, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error:") and err.count("\n") == 1
        assert "'%s'" % key in err and "removed" in err
        assert not out.exists()


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(),
            SimConfig(
                channel=ChannelParams(
                    tx_power_dbm=43.0,
                    carrier_freq_mhz=1800.0,
                    env_class="suburban",
                    fast_fading_enabled=False,
                    slot_duration_s=0.5e-3,
                ),
                n_users=7,
                placement="uniform_ring",
                policy="vpfa",
                total_slots=123,
                seed=99,
                tc_mode="growing",
                dpfa=DpfaParams(alpha=0.5, delta=2.25, theta=7, beta_override=1.0),
                vpfa=VpfaParams(s_fi=10, l_sc=2, signed_stability=True),
            ),
        ],
    )
    def test_round_trip(self, cfg):
        assert parse_config(render_config(cfg)) == cfg


class TestEmitCsv:
    def toy_result(self, **kw):
        return run(SimConfig(n_users=2, total_slots=20, seed=1, **kw))

    def test_per_user_row_count(self, tmp_path):
        emit_csv(self.toy_result(), tmp_path)
        lines = (tmp_path / "per_user.csv").read_text().splitlines()
        assert lines[0] == "user_id,distance_m,schedule_count,cumulative_bits"
        assert len(lines) == 3

    def test_headers_exact(self, tmp_path):
        comp = run_comparison(
            comparison_configs(SimConfig(n_users=2, total_slots=20), ["pfa", "rr"])
        )
        emit_csv(comp, tmp_path)
        assert (tmp_path / "pfa" / "fi_series.csv").read_text().splitlines()[0] == "slot,fi"
        assert (
            tmp_path / "pfa" / "system.csv"
        ).read_text().splitlines()[0] == "slot,cumulative_bits"
        assert (
            tmp_path / "summary.csv"
        ).read_text().splitlines()[0] == "policy,fi,system_bits,drop_pct_vs_reference"

    def test_byte_identical_on_reemit(self, tmp_path):
        res = self.toy_result()
        emit_csv(res, tmp_path / "a")
        emit_csv(res, tmp_path / "b")
        for name in ("per_user.csv", "fi_series.csv", "system.csv", "config.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_reference_drop_is_zero_in_summary(self, tmp_path):
        comp = run_comparison(
            comparison_configs(SimConfig(n_users=2, total_slots=20), ["pfa", "rr"])
        )
        emit_csv(comp, tmp_path)
        pfa_row = [
            line
            for line in (tmp_path / "summary.csv").read_text().splitlines()[1:]
            if line.startswith("pfa,")
        ][0]
        assert pfa_row.endswith(",0")

    def test_csv_totals_consistent(self, tmp_path):
        comp = run_comparison(
            comparison_configs(SimConfig(n_users=3, total_slots=250), ["pfa", "maxci"])
        )
        emit_csv(comp, tmp_path)
        for policy in ("pfa", "maxci"):
            per_user = (tmp_path / policy / "per_user.csv").read_text().splitlines()[1:]
            total = sum(float(line.split(",")[3]) for line in per_user)
            system_last = (tmp_path / policy / "system.csv").read_text().splitlines()[-1]
            assert total == pytest.approx(float(system_last.split(",")[1]), rel=1e-5)


@pytest.fixture(scope="module")
def comparison():
    return run_comparison(
        comparison_configs(
            SimConfig(n_users=10, total_slots=300, seed=2), ["pfa", "maxci", "rr"]
        )
    )


class TestEmitFigures:

    def test_four_well_formed_svgs(self, comparison, tmp_path):
        files = emit_figures(comparison, tmp_path)
        assert sorted(p.name for p in files) == [
            "fi.svg",
            "per_user_throughput.svg",
            "schedule_counts.svg",
            "system_throughput.svg",
        ]
        for p in files:
            root = ET.parse(p).getroot()
            assert root.tag.endswith("svg")

    def test_bar_count_matches_policies_times_users(self, comparison, tmp_path):
        emit_figures(comparison, tmp_path)
        text = (tmp_path / "schedule_counts.svg").read_text()
        assert text.count('<rect class="bar"') == 30

    def test_fi_axis_spans_at_most_unit_interval(self, comparison, tmp_path):
        emit_figures(comparison, tmp_path)
        root = ET.parse(tmp_path / "fi.svg").getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        labels = [
            float(el.text)
            for el in root.findall("svg:text", ns)
            if el.get("text-anchor") == "end"
        ]
        assert labels and min(labels) >= 0.0 and max(labels) <= 1.0

    def test_legend_names_each_policy(self, comparison, tmp_path):
        emit_figures(comparison, tmp_path)
        text = (tmp_path / "fi.svg").read_text()
        for policy in ("pfa", "maxci", "rr"):
            assert ">%s</text>" % policy in text

    def test_single_policy_rejected(self, tmp_path):
        comp = run_comparison(comparison_configs(SimConfig(n_users=2, total_slots=20), ["pfa"]))
        with pytest.raises(ConfigError):
            emit_figures(comp, tmp_path)


class TestMain:
    def test_run_success(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_users = 2\ntotal_slots = 30\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "per_user.csv").exists()
        assert "policy pfa" in capsys.readouterr().out

    def test_missing_config_is_single_line_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key,value",
        [
            ("tc_slots", "nan"),
            ("bandwidth_hz", "nan"),
            ("noise_figure_db", "nan"),
            ("slot_duration_s", "nan"),
            ("shadowing_sigma_db", "nan"),
            ("cell_radius_m", "inf"),
            ("dpfa_alpha", "nan"),
            ("dpfa_delta", "nan"),
            ("dpfa_beta_override", "nan"),
            ("dpfa_beta_override", "-0.5"),  # a negative exponent boosts the best-served user
            ("seed", "-1"),  # numpy's own error for it names no key
        ],
    )
    def test_non_finite_value_is_single_line_error(self, key, value, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--set", "%s=%s" % (key, value), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        rule = ">= 0" if value.startswith("-") else "finite"
        assert err.startswith("schedsim: error: %s must be %s" % (key, rule))
        assert err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_tx_power_is_single_line_error(self, tmp_path, capsys):
        rc = main(["run", "--set", "tx_power_dbm=1e308", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error:") and "tx_power_dbm" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("policy", ["pfa", "dpfa", "maxci", "rr", "vpfa"])
    def test_fading_that_overflows_the_snr_is_single_line_error(self, policy, tmp_path, capsys):
        # the link-budget SNR is finite; the largest fading gain takes user 0's past the float range
        out = tmp_path / "out"
        rc = main(["run", "--set", "policy=" + policy, "--set", "tx_power_dbm=3090", "--set", "shadowing_sigma_db=0",
                   "--set", "total_slots=2000", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "schedsim: error: SNR overflows a float: tx_power_dbm 3090 takes user 0's SNR at the largest fading gain,"
            " 44.4339, past the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("policy", ["pfa", "rr"])
    def test_rate_past_the_float_range_is_single_line_error(self, policy, tmp_path, capsys):
        # log2(1 + SNR) is finite, but scaled by bandwidth and slot time it is not
        out = tmp_path / "out"
        rc = main(["run", "--set", "policy=" + policy, "--set", "slot_duration_s=1e305", "--set", "total_slots=200",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error: rate overflows a float: bandwidth_hz 1e+07 times slot_duration_s 1e+305")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("policy", ["pfa", "rr"])
    def test_fi_of_bits_whose_squares_pass_the_float_range(self, policy, tmp_path, capsys):
        # at 1e150 s a slot the bits, about 1e162, are finite but their squares are not
        scaled = ["--set", "policy=" + policy, "--set", "slot_duration_s=1e150"]
        assert main(["run", *scaled, "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        bits = run(parse_config("", overrides=scaled[1::2])).metrics.per_user_bits / 1e150
        assert captured.out.startswith("policy %s: fi %.6g, " % (policy, jain_index(bits)))
        if policy == "rr":  # round robin's decisions, and so its index, do not depend on scale
            assert captured.out.startswith("policy rr: fi 0.642738, ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("policy", ["pfa", "vpfa"])
    def test_fi_of_bits_whose_squares_underflow_to_zero(self, policy, tmp_path, capsys):
        # at 1e-300 s a slot the bits, about 1e-292, are > 0 but their squares are 0
        scaled = ["--set", "policy=" + policy, "--set", "slot_duration_s=1e-300"]
        assert main(["run", *scaled, "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        bits = run(parse_config("", overrides=scaled[1::2])).metrics.per_user_bits
        assert np.dot(bits, bits) == 0
        assert captured.out.startswith("policy %s: fi %.6g, " % (policy, jain_index(bits / bits.max())))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("policy,users,slots", [
        ("pfa", 10, 300),
        ("rr", 10, 500),
        ("vpfa", 1, 1700),
        ("vpfa", 1, 20000),  # the default slot count: refused before vpfa's warm-up ledger passes the float range
    ])
    def test_bits_past_the_float_range_are_single_line_error(self, policy, users, slots, tmp_path, capsys):
        # each rate is finite, about 1e306 bits, but the bits of a few hundred slots may not be: a run
        # of 20000 slots passes the float range by the slot given, and a run of that many is refused
        out = tmp_path / "out"
        assert main(["run", "--set", "policy=" + policy, "--set", "n_users=%d" % users, "--set", "slot_duration_s=1e298",
                     "--set", "total_slots=%d" % slots, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "schedsim: error: bits overflow a float: total_slots %d at bandwidth_hz"
                                           " 1e+07 and slot_duration_s 1e+298 can take the cumulative bits past"
                                           " the float range\n" % slots)
        assert not out.exists()

    def test_bits_overflow_is_named_at_the_fi_evaluation_after_it(self, tmp_path, capsys):
        # the total would pass the float range at slot 177, between two FI evaluations;
        # the run is refused before its first draw, so the line names the slot count
        out = tmp_path / "out"
        assert main(["run", "--set", "n_users=1000", "--set", "total_slots=2000", "--set", "placement=uniform_ring",
                     "--set", "slot_duration_s=1e298", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("schedsim: error: bits overflow a float: total_slots 2000 at bandwidth_hz"
                                           " 1e+07 and slot_duration_s 1e+298 can take the cumulative bits past"
                                           " the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("overrides,err", [
        (["tx_power_dbm=-3300"], "SNR underflows to 0: tx_power_dbm -3300 takes user 0's link-budget SNR below the"
                                 " float range"),
        # every link-budget SNR is > 0 and below 1e-16, so the rate bound is 0; a fade that takes one to 0 adds nothing
        (["tx_power_dbm=-3150", "shadowing_sigma_db=0"],
         "no bits were delivered: every rate is 0 under this link budget (tx_power_dbm -3150, bandwidth_hz 1e+07,"
         " noise_figure_db 9)"),
        # seed 8's shadowing takes every link-budget SNR below 1e-16 (seeds 0-7 run)
        (["policy=vpfa", "n_users=3", "total_slots=50", "vpfa_s_fi=1", "shadowing_sigma_db=400", "seed=8"],
         "no bits were delivered: every rate is 0 under this link budget (tx_power_dbm 46, bandwidth_hz 1e+07,"
         " noise_figure_db 9)"),
    ], ids=["link budget", "fading", "shadowing"])
    def test_snr_underflowing_to_zero_is_single_line_error(self, overrides, err, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("schedsim.engine.draw_fast_fading", no_draw)
        out = tmp_path / "out"
        args = [arg for item in overrides for arg in ("--set", item)]
        assert main(["run", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "schedsim: error: %s\n" % err
        assert not out.exists()

    def test_dpfa_alpha_past_the_float_range_is_single_line_error(self, tmp_path, capsys):
        # the default link budget's rate bound, about 175,800 bits/slot, to the 60th power overflows a float
        out = tmp_path / "out"
        assert main(["run", "--set", "policy=dpfa", "--set", "dpfa_alpha=60", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("schedsim: error: dpfa_alpha 60 raises the largest rate of this link"
                                           " budget past the float range\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_default_dpfa_delta_that_underflows_is_single_line_error(self, tmp_path, capsys, monkeypatch):
        # seed 108's shadowing lifts the user's SNR into the float range; the default dpfa_delta's reference
        # link, at 0.6 x cell_radius_m with no shadowing, has an SNR of 0, which dpfa would divide by
        monkeypatch.setattr("schedsim.engine.draw_fast_fading", no_draw)
        out = tmp_path / "out"
        args = [arg for item in ["n_users=1", "tx_power_dbm=-3250", "shadowing_sigma_db=1500", "policy=dpfa",
                                 "total_slots=20", "seed=108"] for arg in ("--set", item)]
        assert main(["run", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("schedsim: error: SNR underflows to 0: tx_power_dbm -3250 takes the default"
                                           " dpfa_delta, the SNR at 0.6 x cell_radius_m, below the float range\n")
        assert not out.exists()

    def test_large_finite_dpfa_alpha_still_runs(self, tmp_path, capsys):
        # to the 50th power the rate bound is about 1.8e262
        assert main(["run", "--set", "policy=dpfa", "--set", "dpfa_alpha=50", "--out", str(tmp_path / "out")]) == 0
        assert "policy dpfa" in capsys.readouterr().out

    @pytest.mark.parametrize("override", ["tx_power_dbm=-400", "bandwidth_hz=1e300"])
    def test_zero_capacity_link_budget_is_single_line_error(self, override, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("schedsim.engine.draw_fast_fading", no_draw)  # the rate bound is 0
        out = tmp_path / "out"
        rc = main(["run", "--set", override, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error: no bits were delivered: every rate is 0 under this link budget")
        assert override.split("=")[0] in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_trace_past_memory_is_single_line_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(rng, size, out=None):
            raise MemoryError()

        monkeypatch.setattr("schedsim.engine.draw_fast_fading", no_memory)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "schedsim: error: out of memory: an allocation failed\n"
        assert not out.exists()

    PARTLY_ZERO = ["--set", "policy=rr", "--set", "n_users=3", "--set", "total_slots=50", "--set", "vpfa_s_fi=1",
                   "--set", "shadowing_sigma_db=400"]

    @pytest.mark.parametrize("seed,users", [(4, "0"), (5, "0, 1")])
    def test_no_bits_at_an_evaluation_is_single_line_error(self, seed, users, tmp_path, capsys):
        # round robin serves user 0 first, and its rate is 0 in every slot
        out = tmp_path / "out"
        rc = main(["run", *self.PARTLY_ZERO, "--set", "seed=%d" % seed, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("schedsim: error: fairness index undefined at slot 1: no bits were delivered yet; "
                       "users with rate 0 in every slot so far: %s\n" % users)
        assert not out.exists()

    def test_some_zero_rates_still_run(self, tmp_path):
        assert main(["run", *self.PARTLY_ZERO, "--set", "seed=3", "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "per_user.csv").exists()

    def test_bad_key_is_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("policy = flying\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc != 0
        assert "'policy'" in capsys.readouterr().err

    def test_set_override(self, tmp_path):
        rc = main(
            [
                "run",
                "--set",
                "n_users=2",
                "--set",
                "total_slots=25",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "o" / "per_user.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_compare_writes_summary_and_per_policy_dirs(self, tmp_path):
        rc = main(
            [
                "compare",
                "--set",
                "n_users=2",
                "--set",
                "total_slots=40",
                "--policies",
                "pfa,rr",
                "--out",
                str(tmp_path / "cmp"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "cmp" / "summary.csv").exists()
        assert (tmp_path / "cmp" / "pfa" / "per_user.csv").exists()
        assert (tmp_path / "cmp" / "rr" / "per_user.csv").exists()
        assert not (tmp_path / "cmp" / "fi.svg").exists()

    def test_figures_writes_svgs(self, tmp_path):
        rc = main(
            [
                "figures",
                "--set",
                "n_users=3",
                "--set",
                "total_slots=60",
                "--policies",
                "pfa,rr",
                "--out",
                str(tmp_path / "fig"),
            ]
        )
        assert rc == 0
        for name in ("fi.svg", "schedule_counts.svg", "per_user_throughput.svg", "system_throughput.svg"):
            assert (tmp_path / "fig" / name).exists()

    def test_figures_over_one_policy_runs_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before rejecting the policy list")

        monkeypatch.setattr("schedsim.cli.run_comparison", no_run)
        out = tmp_path / "fig"
        rc = main(["figures", "--policies", "pfa", "--set", "total_slots=20", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "schedsim: error: figures need a comparison over at least 2 policies\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "figures"])
    def test_unknown_policy_draws_and_writes_nothing(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("schedsim.engine.draw_fast_fading", no_draw)
        out = tmp_path / "out"
        assert main([command, "--policies", "pfa,nope", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error: policy must be one of (") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_users", "total_slots"])
    def test_count_past_sys_maxsize_is_single_line_error(self, key, tmp_path, capsys, monkeypatch):
        # numpy sizes no float64 array past sys.maxsize // 8 items, and its error for 2**62 names no input
        monkeypatch.setattr("schedsim.engine.draw_fast_fading", no_draw)
        out = tmp_path / "out"
        for count in (2**62, 10**20):
            assert main(["run", "--set", "%s=%d" % (key, count), "--out", str(out)]) == 2
            assert capsys.readouterr().err == ("schedsim: error: %s must be >= 1 and <= %d, got %d\n"
                                               % (key, sys.maxsize // 8, count))
            assert not out.exists()

    @pytest.mark.parametrize("placement", ["equal_spacing", "uniform_ring"])
    def test_users_at_the_count_bound_are_out_of_memory(self, placement, tmp_path, capsys, monkeypatch):
        # the placement's first allocation of sys.maxsize // 8 floats fails at once, before any draw; numpy's
        # arange would size it in floats, which round the count past its limit, and name no input
        monkeypatch.setattr("schedsim.engine.draw_fast_fading", no_draw)
        out = tmp_path / "out"
        assert main(["run", "--set", "n_users=%d" % (sys.maxsize // 8), "--set", "placement=" + placement,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHEDSIM_OUT", str(tmp_path / "envout"))
        rc = main(["run", "--set", "n_users=2", "--set", "total_slots=20"])
        assert rc == 0
        assert (tmp_path / "envout" / "per_user.csv").exists()

    def test_unknown_reference_is_error(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--set",
                "total_slots=20",
                "--set",
                "n_users=2",
                "--policies",
                "pfa,rr",
                "--reference",
                "vpfa",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc != 0
        assert "reference" in capsys.readouterr().err


def test_import_loads_no_network_modules():
    # xml.sax.saxutils would pull in urllib.request and with it the network stack
    code = ("import sys, schedsim.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', 'email', 'socket') if m in sys.modules))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
