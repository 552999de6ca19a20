"""schedsim benchmark.

    python3 bench/run.py --workload headline --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 10

One process, one Python thread, closed loop with one client: each op starts
when the previous one has finished.  The run imports schedsim from the
``src/`` directory next to this one, times ``setup_s`` in fresh
interpreters, runs one untimed warm-up op at the pinned seed (checking its
digests), then runs ops for ``--seconds`` of host time.  Every op's output
is checked.  Every timed op, and every set-up probe, is rescaled to the
reference host speed by reference readings (see ``reference.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics.
Host time is seconds of wall clock; simulated time is counted in slots.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, per-seed digests and statistics, notes) is written to
``.bench_results/`` in the checkout.  ``--workload all`` runs every
workload in both modes, each in a fresh process, and prints every metric.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
# Op k of a run uses simulation seed (workload seed + k % SEED_CYCLE).
SEED_CYCLE = 10
CHILD_TIMEOUT_S = 170
# Every policy gets a sched.step_us.<policy> metric, 0 where a workload does not run it.
POLICIES = ("pfa", "dpfa", "maxci", "rr", "vpfa")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "schedsim" / "__init__.py").is_file():
        print("bench: error: no schedsim sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if args.workload == "all":
        return run_all(args)

    import schedsim

    if Path(schedsim.__file__).resolve().parent != SRC / "schedsim":
        print("bench: error: imported schedsim from %s" % schedsim.__file__, file=sys.stderr)
        return 2
    import workloads

    workload = workloads.BY_NAME.get(args.workload)
    if workload is None:
        parser.error("--workload must be one of %s or all" % ", ".join(workloads.BY_NAME))
    return Bench(workload, args).run()


class Bench:
    def __init__(self, workload, args):
        self.workload = workload
        self.args = args
        self.work = ROOT / ".bench_work" / ("%s-%d" % (workload.name, os.getpid()))
        self.seen: dict[int, dict] = {}  # op seed -> first record
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.tail = None
        self.raw = {"setup": [], False: [], True: []}  # unscaled host seconds
        self.reference_readings: list[float] = []

    def run(self) -> int:
        args = self.args
        # The first probe is discarded: it may be the one that compiles bytecode.
        setup = [self.setup_probe() for _ in range(SETUP_PROBES + 1)][1:] if args.trace == 0 else []
        capture = self.workload.cli_args is not None
        tracer = spans.Instrument(timing=True, capture=capture)
        plain = spans.Instrument(timing=False, capture=capture)
        times = {False: [], True: []}
        try:
            self.work.mkdir(parents=True, exist_ok=True)
            self.pinned_op(plain)
            scaler = reference.Scaler()
            usage = {"clamped": 0, "bytes_written": 0, "marks": 0, "ops": 0}
            t_end = perf_counter() + args.seconds
            k = 0
            while perf_counter() < t_end:
                traced = args.trace == 1 and k % 2 == 1
                # In a traced run each seed is used by one untraced and one traced op.
                seed = args.seed + (k // (1 + args.trace)) % SEED_CYCLE
                dt, record = self.op(seed, tracer if traced else plain, timed=True)
                scaled = scaler.scale(dt or 0.0)  # also re-times the reference after a failure
                if dt is not None:
                    times[traced].append(scaled)
                    self.raw[traced].append(dt)
                if traced and record is not None:
                    usage["ops"] += 1
                    for key in ("clamped", "bytes_written", "marks"):
                        usage[key] += record[key]
                k += 1
            self.reference_readings += scaler.readings
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass
        if args.trace == 0:
            metrics = self.end_to_end(times[False], setup)
        else:
            metrics = self.per_layer(times, tracer, usage)
        for hook in sorted(tracer.missing | plain.missing):
            self.notes.append("hook %s not found; its metrics are dropped" % hook)
        correct = not self.errors
        self.report(metrics, times, setup, correct)
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }))
        return 0

    # -- ops ----------------------------------------------------------------

    def setup_probe(self) -> float:
        """Host seconds from starting a fresh interpreter to its ``ready``
        line, scaled by a reference reading the child takes right after it.
        (A reading in this process, just after the child exits, reads up to
        2x slow.)"""
        code = self.workload.probe_code(self.args.seed) + (
            "import sys\nsys.path.insert(0, %r)\nimport reference\n"
            "print(reference.reference_reading())\n" % str(Path(__file__).resolve().parent)
        )
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            rest = proc.stdout.read()
            status = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or status != 0:
            raise SystemExit("bench: error: setup probe failed (exit %s)" % status)
        reading = float(rest)
        self.raw["setup"].append(dt)
        self.reference_readings.append(reading)
        return dt * reference.REF_S / reading

    def pinned_op(self, instrument) -> None:
        """Untimed warm-up op at the pinned seed, checked against pinned.json."""
        _, record = self.op(checks.PINNED_SEED, instrument, timed=False)
        if record is None:
            return  # op() has recorded the failure
        for e in checks.check_pins(self.workload.name, record):
            self.errors.append("pinned check: %s" % e)
            print("bench: pinned check: %s" % e, file=sys.stderr)

    def op(self, seed: int, instrument, timed: bool):
        """Run and check one op.  Returns (host seconds or None, record or None)."""
        wl = self.workload
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if timed:
            self.attempted += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with instrument:
                    t0 = perf_counter()
                    results = wl.run_op(seed, out)
                    dt = perf_counter() - t0
            except Exception as exc:  # the loop must go on; the op counts as failed
                return self.fail(timed, seed, "".join(traceback.format_exception_only(exc)).strip())
        if results is None:
            results = {r.config.policy: r for r in instrument.results}
            if not instrument.results:
                self.note("no SimResult captured; decisions of CLI ops are not checked")
        errors = []
        record = {"policies": {}, "tree_sha256": None, "bytes_written": 0, "marks": 0}
        if results and sorted(results) != sorted(wl.policies):
            errors.append("ran policies %s, expected %s" % (sorted(results), sorted(wl.policies)))
        for policy, result in sorted(results.items()):
            errs, stats = checks.check_result(policy, result, wl.n_users, wl.total_slots)
            errors += errs
            record["policies"][policy] = stats
        if wl.cli_args is not None:
            errors += checks.check_tree(out, list(wl.policies), wl.n_users, wl.total_slots)
            files = [p for p in out.rglob("*") if p.is_file()]
            record["tree_sha256"] = checks.tree_digest(out)
            record["bytes_written"] = sum(p.stat().st_size for p in files)
            record["marks"] = sum(count_marks(p.read_text()) for p in files if p.suffix == ".svg")
        record["clamped"] = sum(1 for w in caught if "clamping" in str(w.message))
        others = len(caught) - record["clamped"]
        if others:
            self.note("%d warnings other than distance clamping" % others)
        first = self.seen.setdefault(seed, record)
        if first is not record and {k: first[k] for k in ("policies", "tree_sha256")} != {
            k: record[k] for k in ("policies", "tree_sha256")
        }:
            errors.append("outputs differ from the first op at the same seed")
        if errors:
            return self.fail(timed, seed, "; ".join(errors))
        return (dt if timed else None), record

    def fail(self, timed: bool, seed: int, message: str):
        if timed:
            self.failed += 1
        self.errors.append("seed %d: %s" % (seed, message))
        print("bench: op at seed %d failed: %s" % (seed, message), file=sys.stderr)
        return None, None

    def note(self, message: str) -> None:
        if message not in self.notes:
            self.notes.append(message)

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, times: list[float], setup: list[float]) -> dict:
        wl = self.workload
        metrics = {"setup_s": (statistics.median(setup), "s")}
        if times:
            tail_pct, tail = tail_percentile(times)
            self.tail = {"percentile": tail_pct, "ops": len(times)}
            metrics.update({
                "policy_slots_per_s": (wl.policy_slots * len(times) / sum(times), "1/s"),
                "op_s_p50": (statistics.median(times), "s"),
                "op_s_tail": (tail, "s"),
            })
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["ok_frac"] = ((self.attempted - self.failed) / max(self.attempted, 1), "frac")
        return metrics

    def per_layer(self, times: dict, tracer, usage: dict) -> dict:
        wl = self.workload
        rec = tracer.records
        ops = usage["ops"]
        if not ops:
            return {}
        policy_slots = ops * wl.policy_slots

        def per_op(key):
            return rec[key].incl_s / ops

        def mean_us(key):
            return rec[key].incl_s / rec[key].calls * 1e6 if rec[key].calls else 0.0

        def have(*keys):
            return all(k in rec for k in keys)

        m = {}
        if have("channel.draw_fast_fading", "channel.instantaneous_rate"):
            m["channel.trace_s"] = (tracer.layer_s.get("channel", 0.0) / ops, "s")
            m["channel.trace_draws"] = (rec["channel.draw_fast_fading"].calls / ops, "count")
            m["channel.fading_samples"] = (tracer.counters["fading_samples"] / ops, "count")
            m["channel.trace_bytes"] = (tracer.counters["trace_bytes"] / ops, "bytes_computed")
        m["channel.clamped_distances"] = (usage["clamped"] / ops, "count")
        steps = {k: r for k, r in rec.items() if k.startswith("sched.step.")}
        if steps:
            for policy in POLICIES:
                key = "sched.step.%s" % policy
                m["sched.step_us.%s" % policy] = (mean_us(key) if key in rec else 0.0, "us")
            m["sched.step_calls"] = (sum(r.calls for r in steps.values()) / ops, "count")
        if have("sched.select"):
            m["sched.select_us"] = (mean_us("sched.select"), "us")
            if steps:
                m["sched.select_share"] = (rec["sched.select"].incl_s / sum(r.incl_s for r in steps.values()), "frac")
        # Simulated, at the run's own seed; 0 when vpfa did not run or switch.
        first = self.seen.get(self.args.seed, {"policies": {}})
        m["sched.vpfa_switch_slot"] = (first["policies"].get("vpfa", {}).get("vpfa_switch_slot") or 0, "slot")
        if have("metrics.record_slot"):
            m["metrics.record_slot_us"] = (mean_us("metrics.record_slot"), "us")
        if have("metrics.jain_index"):
            m["metrics.jain_us"] = (mean_us("metrics.jain_index"), "us")
            m["metrics.jain_calls"] = (rec["metrics.jain_index"].calls / ops, "count")
        if have("engine.run"):
            m["engine.run_s"] = (per_op("engine.run"), "s")
            m["engine.loop_self_us_per_slot"] = (rec["engine.run"].self_s / policy_slots * 1e6, "us")
        for key, name in (("cli.parse_config", "cli.parse_s"), ("cli.emit_csv", "cli.emit_csv_s"), ("cli.emit_figures", "cli.emit_figures_s")):
            if have(key):
                m[name] = (per_op(key), "s")
        m["cli.bytes_written"] = (usage["bytes_written"] / ops, "B")
        if have("svgplot.grouped_bar_chart", "svgplot.line_chart"):
            m["svgplot.chart_s"] = (per_op("svgplot.grouped_bar_chart") + per_op("svgplot.line_chart"), "s")
        m["svgplot.marks"] = (usage["marks"] / ops, "count")
        if times[False] and times[True]:
            m["trace.overhead_frac"] = (statistics.median(times[True]) / statistics.median(times[False]) - 1.0, "frac")
        # Span times are rescaled by the run's median reference reading, not op by op.
        factor = reference.REF_S / statistics.median(self.reference_readings)
        return {n: (v * factor if u in ("s", "us") else v, u) for n, (v, u) in m.items()}

    # -- reporting ----------------------------------------------------------

    def report(self, metrics, times, setup, correct) -> None:
        args = self.args
        for name, (value, unit) in metrics.items():
            print("%-32s %16.6g %s" % (name, value, unit))
        raw = {k: statistics.median(v) for k, v in (
            ("setup_s", self.raw["setup"][1:]), ("op_s_p50 untraced", self.raw[False]),
            ("op_s_p50 traced", self.raw[True]), ("reference reading", self.reference_readings)) if v}
        print("unscaled host seconds: " + ", ".join("%s %.6g" % kv for kv in raw.items())
              + " (rescaled to a reading of %g)" % reference.REF_S)
        for n in self.notes:
            print("bench: note: %s" % n, file=sys.stderr)
        record = {
            "workload": self.workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "notes": self.notes,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            "op_s_tail": self.tail,
            "op_times_s": {"untraced": times[False], "traced": times[True]},
            "setup_probes_s": setup,
            "unscaled_s": {"untraced": self.raw[False], "traced": self.raw[True], "setup": self.raw["setup"]},
            "reference_readings_s": self.reference_readings,
            "reference_scale_s": reference.REF_S,
            "model_validation": "unvalidated: no reference measurements; statistics are compared between commits for equality only",
            "per_seed": {str(s): r for s, r in sorted(self.seen.items())},
        }
        out = ROOT / ".bench_results"
        out.mkdir(exist_ok=True)
        path = out / ("%s-seed%d-trace%d.json" % (self.workload.name, args.seed, args.trace))
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print("full record: %s" % path.relative_to(ROOT))


def tail_percentile(times: list[float]) -> tuple[float, float]:
    """The highest percentile of ``times`` with at least ten samples above it,
    as (percentile, value).  Never below the median: with fewer than 21
    samples this is the middle sample (the upper one of an even count),
    with fewer than ten samples above it."""
    ordered = sorted(times)
    i = max(len(ordered) - 11, len(ordered) // 2)
    return 100.0 * (i + 1) / len(ordered), ordered[i]


def count_marks(svg: str) -> int:
    """Bars plus polyline points drawn in one chart."""
    points = re.findall(r'<polyline class="line"[^>]* points="([^"]*)"', svg)
    return svg.count('class="bar"') + sum(len(p.split()) for p in points)


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process; one table."""
    from workloads import BY_NAME

    ok = True
    for name in BY_NAME:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print("%s trace=%d: no result (exit %d)" % (name, trace, proc.returncode))
                ok = False
                continue
            ok = ok and result["correct"] and proc.returncode == 0
            print("%s trace=%d: correct=%s attempted=%d failed=%d"
                  % (name, trace, result["correct"], result["attempted"], result["failed"]))
            for metric, v in result["metrics"].items():
                print("  %-32s %16.6g %s" % (metric, v["value"], v["unit"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
