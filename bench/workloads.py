"""The three benchmark workloads.  Names are fixed: later changes and
benchmark results cite them.  README.md and BENCHMARK.json give the reason
for each."""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import schedsim.cli
from schedsim import SimConfig, run_comparison
from schedsim.engine import comparison_configs


class OpFailed(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    policies: tuple[str, ...]
    n_users: int
    total_slots: int
    # CLI arguments before "--set seed=<s> --out <dir>"; None for the
    # library-call workload.
    cli_args: tuple[str, ...] | None

    @property
    def policy_slots(self) -> int:
        """(policy x simulated slot) pairs in one op."""
        return len(self.policies) * self.total_slots

    def argv(self, seed: int, out: Path) -> list[str]:
        return [*self.cli_args, "--set", "seed=%d" % seed, "--out", str(out)]

    def run_op(self, seed: int, out: Path):
        """One op.  Returns {policy: SimResult} for the library workload and
        None for CLI workloads, whose results are captured by the caller."""
        if self.cli_args is None:
            comp = run_comparison(comparison_configs(SimConfig(seed=seed), list(self.policies)))
            return comp.results
        with contextlib.redirect_stdout(io.StringIO()):
            code = schedsim.cli.main(self.argv(seed, out))
        if code != 0:
            raise OpFailed("schedsim exited with status %r" % code)
        return None

    def probe_code(self, seed: int) -> str:
        """Python source for a fresh interpreter: import ``schedsim.cli``,
        parse and validate this workload's config, then print ``ready``."""
        if self.cli_args is None:
            body = (
                "from schedsim.engine import SimConfig, comparison_configs\n"
                "for c in comparison_configs(SimConfig(seed=%d), %r):\n"
                "    c.validate()\n" % (seed, list(self.policies))
            )
        else:
            body = (
                "args = schedsim.cli.build_parser().parse_args(%r)\n"
                "schedsim.cli.parse_config('', overrides=args.set)\n"
                % (self.argv(seed, Path("out")),)
            )
        return "import schedsim.cli\n" + body + "print('ready', flush=True)\n"


WORKLOADS = (
    Workload(
        name="headline",
        policies=("pfa", "dpfa", "vpfa"),
        n_users=10,
        total_slots=20000,
        cli_args=None,
    ),
    Workload(
        name="wide_cell",
        policies=("pfa", "dpfa", "maxci", "rr", "vpfa"),
        n_users=1000,
        total_slots=5000,
        cli_args=(
            "figures",
            "--policies", "pfa,dpfa,maxci,rr,vpfa",
            "--set", "n_users=1000",
            "--set", "placement=uniform_ring",
            "--set", "total_slots=5000",
            "--set", "vpfa_s_fi=10",
        ),
    ),
    Workload(
        name="single_run",
        policies=("pfa",),
        n_users=10,
        total_slots=20000,
        cli_args=("run",),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
