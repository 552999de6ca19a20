"""Command-line front end: flat key=value configs in, CSV tables and SVG
charts out.

Subcommands: ``run`` (one policy), ``compare`` (several policies over one
channel trace, plus a summary table),
``figures`` (compare plus the four charts).  All outputs are
byte-deterministic for a given config.  Every file is streamed: its writer
formats and writes at most ``svgplot.CHUNK`` rows or marks at a time, so the
memory that writing takes does not grow with users x policies.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .channel import ENV_CLASSES, PLACEMENT_MODES, ChannelParams
from .engine import (
    ComparisonResult,
    SimConfig,
    SimResult,
    comparison_configs,
    run,
    run_comparison,
)
from .errors import ConfigError
from .sched import POLICIES, TC_MODES, DpfaParams, VpfaParams
from .svgplot import CHUNK, grouped_bar_chart, line_chart

OUT_DIR_ENV_VAR = "SCHEDSIM_OUT"
DEFAULT_OUT_DIR = "out"
DEFAULT_COMPARE_POLICIES = "pfa,dpfa,vpfa"


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------

def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError("expected 'true' or 'false', got %r" % s)


def _parse_enum(options):
    def parse(s: str):
        if s not in options:
            raise ValueError("expected one of %s, got %r" % (", ".join(options), s))
        return s

    return parse


def _removed(fixed: str):
    """Entry of a removed key.  Every config.txt written so far carries it, so
    it is still written and parsed, but only at ``fixed``."""
    def parse(s: str):
        if s != fixed:
            raise ValueError("this key was removed; only '%s' is accepted, got %r" % (fixed, s))

    return (None, fixed, parse)


# key -> (section, attribute, parser); a section of None is a removed key
# whose attribute slot holds its fixed text
CONFIG_KEYS = {
    "tx_power_dbm": ("channel", "tx_power_dbm", float),
    "carrier_freq_mhz": ("channel", "carrier_freq_mhz", float),
    "bandwidth_hz": ("channel", "bandwidth_hz", float),
    "cell_radius_m": ("channel", "cell_radius_m", float),
    "shadowing_sigma_db": ("channel", "shadowing_sigma_db", float),
    "bs_height_m": ("channel", "bs_height_m", float),
    "ue_height_m": ("channel", "ue_height_m", float),
    "env_class": ("channel", "env_class", _parse_enum(ENV_CLASSES)),
    "noise_figure_db": ("channel", "noise_figure_db", float),
    "slot_duration_s": ("channel", "slot_duration_s", float),
    "fast_fading": ("channel", "fast_fading_enabled", _parse_bool),
    "n_users": ("sim", "n_users", int),
    "placement": ("sim", "placement", _parse_enum(PLACEMENT_MODES)),
    "policy": ("sim", "policy", _parse_enum(POLICIES)),
    "total_slots": ("sim", "total_slots", int),
    "seed": ("sim", "seed", int),
    "tc_mode": ("sim", "tc_mode", _parse_enum(TC_MODES)),
    "tc_slots": ("sim", "tc_slots", float),
    "dpfa_alpha": ("dpfa", "alpha", float),
    "dpfa_delta": ("dpfa", "delta", float),
    "dpfa_theta": ("dpfa", "theta", int),
    "dpfa_b": _removed("0.5"),
    "dpfa_beta_override": ("dpfa", "beta_override", float),
    "dpfa_literal_timers": _removed("false"),
    "vpfa_s_fi": ("vpfa", "s_fi", int),
    "vpfa_l_sc": ("vpfa", "l_sc", int),
    "vpfa_variance_mode": _removed("deficit"),
    "vpfa_window": _removed("500"),
    "vpfa_signed_stability": ("vpfa", "signed_stability", _parse_bool),
}

# the text that stands for None, for the keys whose value may be None
NONE_TEXT = {"dpfa_delta": "auto", "dpfa_beta_override": "none"}


def _parse_items(text: str, where: str):
    """Yield (section, attribute, parsed value) from flat key = value lines; '#'
    comments.  A removed key is checked against its fixed value, then skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s line %d: expected 'key = value'" % (where, lineno))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError("%s line %d: unknown key '%s'" % (where, lineno, key))
        section, attr, parse = CONFIG_KEYS[key]
        try:
            parsed = None if value == NONE_TEXT.get(key) else parse(value)
        except ValueError as exc:
            raise ConfigError("%s line %d: key '%s': %s" % (where, lineno, key, exc)) from None
        if section is not None:
            yield section, attr, parsed


def parse_config(text: str, where: str = "config", overrides: list[str] | None = None) -> SimConfig:
    """Build a SimConfig from flat key = value text; unset keys keep defaults.

    ``overrides`` are extra "key=value" strings applied after the file.  The
    values are collected, and the config is built, so checked, once.
    """
    values = {"channel": {}, "sim": {}, "dpfa": {}, "vpfa": {}}
    sources = [(text, where), *((item, "--set #%d" % i) for i, item in enumerate(overrides or (), start=1))]
    for source, name in sources:
        for section, attr, value in _parse_items(source, name):
            values[section][attr] = value
    return SimConfig(channel=ChannelParams(**values["channel"]), dpfa=DpfaParams(**values["dpfa"]),
                     vpfa=VpfaParams(**values["vpfa"]), **values["sim"])


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(config: SimConfig) -> str:
    """Serialize a config so that parse_config(render_config(c)) == c."""
    sections = {"channel": config.channel, "sim": config, "dpfa": config.dpfa, "vpfa": config.vpfa}
    lines = []
    for key, (section, attr, _) in CONFIG_KEYS.items():
        if section is None:
            lines.append("%s = %s" % (key, attr))
            continue
        value = getattr(sections[section], attr)
        lines.append("%s = %s" % (key, NONE_TEXT[key] if value is None else _format_value(value)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV and figure emission
# ---------------------------------------------------------------------------

def _num(v) -> str:
    return "%.6g" % v


def _write(path: Path, emit) -> Path:
    """Open ``path`` for writing and call ``emit`` with the open file.  Any
    ``OSError`` on the way, opening or writing, is one :class:`ConfigError`
    naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            emit(fh)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from None
    return path


def _csv(header: str, row_format: str, n_rows: int, rows):
    """An ``emit`` for :func:`_write`: the header line, then one
    ``row_format`` line per row, ``rows(lo, hi)`` giving rows lo:hi, formatted
    and written ``CHUNK`` rows at a time."""
    def emit(fh):
        fh.write(header + "\n")
        for lo in range(0, n_rows, CHUNK):
            fh.write("".join([row_format % row for row in rows(lo, lo + CHUNK)]))

    return emit


def _result_csvs(result: SimResult, out_dir: Path) -> list[Path]:
    fi, system = result.fi_series, result.system_series
    # "%.6g" is _num's format, inlined: one % per row
    return [
        _write(out_dir / "per_user.csv", _csv("user_id,distance_m,schedule_count,cumulative_bits",
                                              "%d,%.6g,%d,%.6g\n", len(result.links), result.per_user_rows)),
        _write(out_dir / "fi_series.csv", _csv("slot,fi", "%d,%.6g\n", len(fi), lambda lo, hi: fi[lo:hi])),
        _write(out_dir / "system.csv",
               _csv("slot,cumulative_bits", "%d,%.6g\n", len(system), lambda lo, hi: system[lo:hi])),
        _write(out_dir / "config.txt", lambda fh: fh.write(render_config(result.config))),
    ]


def emit_csv(result_or_comparison, out_dir) -> list[Path]:
    """Write the CSV set for a single run, or per-policy sets plus summary.csv."""
    out = Path(out_dir)
    if isinstance(result_or_comparison, SimResult):
        return _result_csvs(result_or_comparison, out)
    comp: ComparisonResult = result_or_comparison
    written = []
    for policy, result in comp.results.items():
        written += _result_csvs(result, out / policy)
    rows = [dataclasses.astuple(row) for row in comp.summary]
    return written + [_write(out / "summary.csv", _csv("policy,fi,system_bits,drop_pct_vs_reference",
                                                       "%s,%.6g,%.6g,%.6g\n", len(rows), lambda lo, hi: rows[lo:hi]))]


def _check_figure_policies(n_policies: int) -> None:
    if n_policies < 2:
        raise ConfigError("figures need a comparison over at least 2 policies")


def emit_figures(comp: ComparisonResult, out_dir) -> list[Path]:
    """Four SVG charts: per-user schedule counts and throughput (grouped
    bars), system throughput and fairness index over time (lines).  Each
    chart is written straight into its file from the results' own arrays
    and series."""
    _check_figure_policies(len(comp.results))
    out = Path(out_dir)
    results = comp.results
    links = next(iter(results.values())).links
    users = np.fromiter((link.user_id for link in links), dtype=np.int64, count=len(links))
    counts = {p: r.metrics.schedule_counts for p, r in results.items()}
    bits = {p: r.metrics.per_user_bits for p, r in results.items()}
    system = {p: r.system_series for p, r in results.items()}
    fi = {p: r.fi_series for p, r in results.items()}

    return [
        _write(out / "schedule_counts.svg", lambda fh: grouped_bar_chart(
            fh, "Times each user was scheduled", "user", "slots scheduled", users, counts)),
        _write(out / "per_user_throughput.svg", lambda fh: grouped_bar_chart(
            fh, "Cumulative bits per user", "user", "bits", users, bits)),
        _write(out / "system_throughput.svg", lambda fh: line_chart(
            fh, "System throughput over time", "slot", "cumulative bits", system)),
        _write(out / "fi.svg", lambda fh: line_chart(
            fh, "Fairness index over time", "slot", "fairness index", fi, y_range=(0.0, 1.0))),
    ]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(args) -> SimConfig:
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (args.config, exc)) from None
    return parse_config(text, where=str(args.config or "defaults"), overrides=args.set)


def _comparison_from_args(args, figures: bool) -> ComparisonResult:
    base = _load_config(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise ConfigError("--policies must name at least one policy")
    if figures:
        _check_figure_policies(len(policies))  # before anything runs or is written
    return run_comparison(comparison_configs(base, policies), reference=args.reference)


def _cmd_run(args) -> int:
    config = _load_config(args)
    result = run(config)
    files = emit_csv(result, args.out)
    print("policy %s: fi %s, system bits %s" % (config.policy, _num(result.metrics.jain()), _num(result.metrics.system_bits)))
    print("wrote %d files to %s" % (len(files), args.out))
    return 0


def _cmd_compare(args, figures: bool = False) -> int:
    comp = _comparison_from_args(args, figures)
    files = emit_csv(comp, args.out)
    if figures:
        files += emit_figures(comp, args.out)
    for row in comp.summary:
        print("policy %s: fi %s, system bits %s, drop vs %s %s%%"
              % (row.policy, _num(row.fi), _num(row.system_bits), comp.reference, _num(row.drop_pct_vs_reference)))
    print("wrote %d files to %s" % (len(files), args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedsim", description="Deterministic single-cell downlink scheduler comparison simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get(OUT_DIR_ENV_VAR, DEFAULT_OUT_DIR)

    def common(p):
        p.add_argument("--config", help="flat key = value config file (defaults when omitted)")
        p.add_argument("--out", default=default_out, help="output directory (default: %(default)s)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p_run = sub.add_parser("run", help="run a single policy and write its CSV tables")
    common(p_run)

    for name, help_text in (
        ("compare", "run several policies over one shared channel trace and summarize"),
        ("figures", "compare plus the four SVG charts"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--policies", default=DEFAULT_COMPARE_POLICIES,
                       help="comma-separated policies (default: %(default)s)")
        p.add_argument("--reference", default="pfa", help="reference policy for drop%% (default: %(default)s)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_compare(args, figures=True)
    except (ConfigError, OSError, ValueError) as exc:
        print("schedsim: error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the size; a bare one says nothing
        print("schedsim: error: out of memory: %s" % (str(exc) or "an allocation failed"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
