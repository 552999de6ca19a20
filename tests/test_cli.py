import xml.etree.ElementTree as ET

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
from schedsim.sched import DpfaParams, VpfaParams


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
                dpfa=DpfaParams(alpha=0.5, delta=2.25, theta=7, b=0.75, beta_override=1.0),
                vpfa=VpfaParams(s_fi=10, l_sc=2, variance_mode="series", window=64, signed_stability=True),
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
        ],
    )
    def test_non_finite_value_is_single_line_error(self, key, value, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--set", "%s=%s" % (key, value), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error: %s must be finite" % key)
        assert err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_tx_power_is_single_line_error(self, tmp_path, capsys):
        rc = main(["run", "--set", "tx_power_dbm=1e308", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("schedsim: error:") and "tx_power_dbm" in err
        assert err.count("\n") == 1

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
