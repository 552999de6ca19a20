"""A comparison decides its policies round-robin over one process per usable
CPU.  Split over two processes or more, up to one per policy, so that a
child may decide several, it gives what one process gives, bit for bit,
and raises what one process raises.  The parent
draws the trace once, into a shared ring of two block slots, and the
children decide each block from there.  Each child holds two pipes, "go"
in and one of pickled messages out, a None a block and then its outcome,
and writes its decisions in place, in pages it shares with the parent.
The parent raises a child's error with its type and message, also after
the ring has wrapped, names a child that ends early or sends an error that
does not pickle, reaps every child whether the comparison succeeds or
fails, and leaves no pipe end or ring mapped behind, without a garbage
collection; the children flush and run nothing of the parent's on exit
and hold none of their siblings' pipe ends.  The suite's
``conftest.py`` fails any test that leaves a child process behind.
"""
import atexit
import contextlib
import gc
import mmap
import os
import pickle
import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schedsim.engine as engine
from schedsim.cli import main
from schedsim.engine import BLOCK_ELEMENTS, SimConfig, comparison_configs, run, run_comparison
from schedsim.sched import POLICIES, TC_MODES, Scheduler, VpfaParams
from test_stream import assert_same_outcome, outcome
from whole_trace import whole_trace


@contextlib.contextmanager
def cpus(count):
    """``count`` usable CPUs; yields the pids that ``os.fork`` returns to the parent meanwhile."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(count))), \
            mock.patch.object(os, "fork", counted):
        yield forks


@st.composite
def split_cases(draw):
    policies = draw(st.lists(st.sampled_from(POLICIES), min_size=1, max_size=len(POLICIES), unique=True))
    cfg = SimConfig(n_users=draw(st.integers(1, 30)), total_slots=draw(st.integers(1, 400)),
                    seed=draw(st.integers(0, 50)), placement=draw(st.sampled_from(["equal_spacing", "uniform_ring"])),
                    tc_mode=draw(st.sampled_from(TC_MODES)),
                    vpfa=VpfaParams(s_fi=draw(st.integers(1, 60)), l_sc=draw(st.integers(1, 4))))
    # below len(policies) CPUs, a child decides two or more of them
    count = draw(st.integers(min(2, len(policies)), len(policies)))
    return comparison_configs(cfg, policies), draw(st.sampled_from([1, 64, BLOCK_ELEMENTS])), count


@pytest.mark.filterwarnings("ignore:distance .* below the 20 m model floor")
@settings(max_examples=40, deadline=None, database=None)
@given(split_cases())
@example((comparison_configs(SimConfig(n_users=20, total_slots=300, seed=3, vpfa=VpfaParams(s_fi=7, l_sc=2)),
                             ["pfa", "vpfa", "dpfa", "rr"]), 64, 2))  # vpfa switches at slot 71, in a child with rr
@example((comparison_configs(SimConfig(n_users=3, total_slots=10, vpfa=VpfaParams(s_fi=10, l_sc=1)),
                             ["pfa", "vpfa"]), 1, 2))  # vpfa switches at slot 11, the run's last evaluation
@example((comparison_configs(SimConfig(n_users=3, total_slots=10, vpfa=VpfaParams(s_fi=60, l_sc=1)),
                             list(POLICIES)), BLOCK_ELEMENTS, 5))  # vpfa never evaluates
def test_a_split_comparison_is_the_one_process_comparison(case):
    configs, elements, count = case
    compare = lambda: run_comparison(configs, reference=configs[0].policy).results  # noqa: E731
    with mock.patch.object(engine, "BLOCK_ELEMENTS", elements):
        with cpus(1) as forks:
            one = outcome(compare)
        assert forks == []
        with cpus(count) as forks:
            split = outcome(compare)
        assert len(forks) == count - 1
    assert_same_outcome(split, one)


@pytest.mark.parametrize("elements", [1, 64, BLOCK_ELEMENTS])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_every_policys_bits_are_the_whole_traces_rates_at_its_decisions(count, elements):
    # an oracle that shares no code with the block source; vpfa switches at slot 71, decided in this
    # process at 1 and 2 CPUs and in a child, with dpfa, at 3
    cfg = SimConfig(n_users=20, total_slots=300, seed=3, vpfa=VpfaParams(s_fi=7, l_sc=2))
    rates = whole_trace(cfg)[2]
    with mock.patch.object(engine, "BLOCK_ELEMENTS", elements), cpus(count) as forks:
        results = run_comparison(comparison_configs(cfg, list(POLICIES))).results
    assert len(forks) == count - 1 and results["vpfa"].phase_switch_slot == 71
    for policy, res in results.items():
        bits = np.zeros(cfg.n_users)
        np.add.at(bits, res.decisions, rates[np.arange(cfg.total_slots), res.decisions])
        assert bits.tobytes() == res.metrics.per_user_bits.tobytes(), policy


def test_a_child_decided_results_decisions_map_4_bytes_a_slot():
    # the served rates have pages of their own, so a result keeps no more than its decisions mapped
    with cpus(2):
        results = run_comparison(comparison_configs(SimConfig(total_slots=500), ["pfa", "dpfa", "vpfa"])).results
    pages = results["dpfa"].decisions.base.obj
    assert isinstance(pages, mmap.mmap) and len(pages) == 4 * 500
    assert results["pfa"].decisions.base is None


def test_more_processes_than_cores_wrap_the_ring_many_times():
    # five processes, on a host of fewer cores, hand 1,500 one-slot blocks through the two ring slots
    configs = comparison_configs(SimConfig(total_slots=1500, vpfa=VpfaParams(s_fi=7)), list(POLICIES))
    compare = lambda: run_comparison(configs).results  # noqa: E731
    with mock.patch.object(engine, "BLOCK_ELEMENTS", 1):
        with cpus(1):
            one = outcome(compare)
        start = time.monotonic()
        with cpus(len(POLICIES)) as forks:
            split = outcome(compare)
        assert len(forks) == len(POLICIES) - 1 and time.monotonic() - start < 60
    assert_same_outcome(split, one)


def test_a_run_forks_nothing():
    with cpus(4) as forks, mock.patch.object(mmap, "mmap", side_effect=AssertionError("mapped a ring")):
        run(SimConfig(total_slots=100))
    assert forks == []


def test_the_trace_is_drawn_once_a_block_in_the_parent(monkeypatch):
    # a draw in a child would end it before it sent its results, which the parent names
    parent, draws, draw = os.getpid(), [], engine.draw_fast_fading

    def parent_only(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(0)
        draws.append(kwargs["size"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(engine, "draw_fast_fading", parent_only)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 640)  # 64 slots a block at 10 users: 8 blocks
    configs = comparison_configs(SimConfig(total_slots=500), ["pfa", "dpfa", "vpfa"])
    with cpus(3) as forks:
        run_comparison(configs)
    assert len(forks) == 2
    assert draws == [(64, 10)] * 7 + [(52, 10)]


def test_no_more_processes_than_shares_and_no_warning():
    configs = comparison_configs(SimConfig(total_slots=100), ["pfa", "dpfa", "vpfa"])
    with cpus(64) as forks, warnings.catch_warnings():
        warnings.simplefilter("error")
        run_comparison(configs)
    assert len(forks) == 2


def boom(self, rates, snrs):
    raise MemoryError("boom")


class Unpicklable(MemoryError):
    def __init__(self):
        super().__init__("boom")
        self.hook = lambda: None  # a lambda does not pickle, so neither does the error


class TestErrors:
    # with two CPUs, pfa and vpfa are decided in the parent and dpfa in a child
    CONFIGS = comparison_configs(SimConfig(total_slots=500), ["pfa", "dpfa", "vpfa"])

    @pytest.mark.parametrize("policy", ["dpfa", "pfa"], ids=["in_the_child", "in_the_parent"])
    def test_an_error_is_raised_with_its_type_and_message(self, policy, monkeypatch):
        monkeypatch.setattr(Scheduler, "_choose_" + policy, boom)
        with cpus(2) as forks, pytest.raises(MemoryError) as info:
            run_comparison(self.CONFIGS)
        assert (type(info.value), str(info.value), len(forks)) == (MemoryError, "boom", 1)

    def test_the_cli_prints_a_childs_out_of_memory_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(Scheduler, "_choose_dpfa", boom)
        with cpus(2):
            assert main(["compare", "--set", "total_slots=500", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "schedsim: error: out of memory: boom\n"

    def test_an_interrupted_parent_kills_its_child(self, monkeypatch):
        # the child would sleep a minute in dpfa; the parent, interrupted in its first block of pfa, kills it
        def interrupt(self, rates, snrs):
            raise KeyboardInterrupt

        monkeypatch.setattr(Scheduler, "_choose_pfa", interrupt)
        monkeypatch.setattr(Scheduler, "_choose_dpfa", lambda self, rates, snrs: time.sleep(60))
        start = time.monotonic()
        with cpus(2), pytest.raises(KeyboardInterrupt):
            run_comparison(self.CONFIGS[:2])
        assert time.monotonic() - start < 30

    def test_a_child_that_dies_is_named(self, monkeypatch):
        def die(self, rates, snrs):
            os._exit(0)

        monkeypatch.setattr(Scheduler, "_choose_dpfa", die)
        with cpus(2), pytest.raises(ChildProcessError, match="^a decide process for dpfa ended before it sent"):
            run_comparison(self.CONFIGS)

    def test_a_childs_error_that_does_not_pickle_is_named(self, monkeypatch):
        def unpicklable(self, rates, snrs):
            raise Unpicklable

        monkeypatch.setattr(Scheduler, "_choose_dpfa", unpicklable)
        fds = len(os.listdir("/proc/self/fd"))
        with cpus(2) as forks, \
                pytest.raises(ChildProcessError, match="^a decide process for dpfa ended before it sent"):
            run_comparison(self.CONFIGS)
        assert (len(forks), len(os.listdir("/proc/self/fd"))) == (1, fds)


def at_third_block(act):
    """A ``_choose_<policy>`` that decides its first two blocks and calls ``act`` at its third;
    each process counts its own calls."""
    calls = []

    def choose(self, rates, snrs):
        calls.append(len(rates))
        if len(calls) == 3:
            act()
        return self._pf_loop(rates, rates)

    return choose


def boom_now():
    raise MemoryError("boom")


class TestAfterTheRingWraps:
    # 100 slots a block at 10 users: 5 blocks, the third drawn over the first's ring slot;
    # with two CPUs pfa and vpfa are decided in the parent and dpfa in a child
    CONFIGS = comparison_configs(SimConfig(total_slots=500), ["pfa", "dpfa", "vpfa"])

    @pytest.fixture(autouse=True)
    def five_blocks(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 1000)

    def test_a_childs_error_is_raised_with_its_type_and_message(self, monkeypatch):
        monkeypatch.setattr(Scheduler, "_choose_dpfa", at_third_block(boom_now))
        with cpus(2) as forks, pytest.raises(MemoryError) as info:
            run_comparison(self.CONFIGS)
        assert (type(info.value), str(info.value), len(forks)) == (MemoryError, "boom", 1)

    def test_a_child_that_dies_is_named_and_the_parent_does_not_hang(self, monkeypatch):
        monkeypatch.setattr(Scheduler, "_choose_dpfa", at_third_block(lambda: os._exit(0)))
        start = time.monotonic()
        with cpus(2), pytest.raises(ChildProcessError, match="^a decide process for dpfa ended before it sent"):
            run_comparison(self.CONFIGS)
        assert time.monotonic() - start < 30

    def test_a_parent_that_fails_kills_and_reaps_its_waiting_child(self, monkeypatch):
        monkeypatch.setattr(Scheduler, "_choose_pfa", at_third_block(boom_now))
        start = time.monotonic()
        with cpus(2) as forks, pytest.raises(MemoryError, match="^boom$"):
            run_comparison(self.CONFIGS)
        assert len(forks) == 1 and time.monotonic() - start < 30


def test_a_child_acks_each_block_and_stops_at_the_end_of_its_go_pipe():
    cfg = SimConfig(total_slots=5000)  # two blocks of 3,276 and 1,724 slots
    go_r, go_w = os.pipe()
    msg_r, msg_w = os.pipe()
    with open(msg_r, "rb") as messages:
        try:
            os.write(go_w, b"\0")  # one block, then the parent is gone
            os.close(go_w)
            blocks = engine._ring_blocks(cfg, engine._block_slots(cfg, 2), go_r, msg_w)
            assert next(blocks)[0] == 0
            with pytest.raises(EOFError, match="the parent stopped sending blocks"):
                next(blocks)
        finally:
            os.close(go_r)
            os.close(msg_w)
        assert pickle.load(messages) is None and messages.read() == b""  # one pickled None: the one block decided


def pipes(pid="self"):
    """The pipes a process holds an end of, by inode."""
    fds = "/proc/%s/fd" % pid
    links = []
    for fd in os.listdir(fds):
        with contextlib.suppress(FileNotFoundError):  # listdir's own descriptor, closed since
            links.append(os.readlink(os.path.join(fds, fd)))
    return {link for link in links if re.fullmatch(r"pipe:\[\d+\]", link)}


def ring_mappings():
    """The shared anonymous mappings of this process, as a ring is mapped."""
    with open("/proc/self/maps") as maps:
        return sum(line.rstrip().endswith("/dev/zero (deleted)") for line in maps)


class TestNothingLeaks:
    CONFIGS = comparison_configs(SimConfig(total_slots=500), ["pfa", "dpfa", "vpfa"])

    def test_no_descriptor_or_ring_is_left_behind(self, monkeypatch):
        gc.collect()  # the rings of errors raised before, which their tracebacks' cycles hold
        fds, rings = len(os.listdir("/proc/self/fd")), ring_mappings()
        with cpus(3) as forks:
            run_comparison(self.CONFIGS)
        assert (len(os.listdir("/proc/self/fd")), ring_mappings(), len(forks)) == (fds, rings, 2)
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 1000)
        monkeypatch.setattr(Scheduler, "_choose_dpfa", at_third_block(boom_now))
        with cpus(3), pytest.raises(MemoryError) as info:
            run_comparison(self.CONFIGS)
        del info  # its traceback's frames hold views of the ring, as they would of heap blocks
        assert (len(os.listdir("/proc/self/fd")), ring_mappings()) == (fds, rings)

    def test_a_childs_error_unmaps_the_ring_without_a_collection(self, monkeypatch):
        # the error's traceback holds views of the ring, and only a cycle would keep it past the error
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 1000)
        monkeypatch.setattr(Scheduler, "_choose_dpfa", at_third_block(boom_now))
        gc.disable()
        try:
            rings = ring_mappings()
            with cpus(3), pytest.raises(MemoryError) as info:
                run_comparison(self.CONFIGS)
            del info
            assert ring_mappings() == rings
        finally:
            gc.enable()

    def test_a_child_holds_none_of_its_siblings_pipe_ends(self, monkeypatch):
        # by the parent's third block it has taken every child's None for the first, which each
        # child sends after closing what it inherited; the children wait for the fourth block
        before, held, choose_pfa = pipes(), {}, Scheduler._choose_pfa

        def look(self, rates, snrs):
            held.setdefault("parent", []).append(pipes() - before)
            if len(held["parent"]) == 3:
                held.update((pid, pipes(pid) - before) for pid in forks)
            return choose_pfa(self, rates, snrs)

        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 1000)
        monkeypatch.setattr(Scheduler, "_choose_pfa", look)
        with cpus(3) as forks:
            run_comparison(self.CONFIGS)
        parent, first, second = held["parent"][2], held[forks[0]], held[forks[1]]
        assert len(first) == len(second) == 2  # its "go" and message pipes
        assert not first & second and first | second == parent


def test_a_child_flushes_and_runs_nothing_of_the_parent_on_exit(tmp_path):
    ran = tmp_path / "atexit"

    def mark():
        ran.write_text("ran")

    atexit.register(mark)
    try:
        with open(tmp_path / "buffered", "w") as held, cpus(3) as forks:
            held.write("once")  # still in the parent's buffer when the children fork
            run_comparison(comparison_configs(SimConfig(total_slots=100), ["pfa", "dpfa", "vpfa"]))
    finally:
        atexit.unregister(mark)
    assert len(forks) == 2
    assert (tmp_path / "buffered").read_text() == "once" and not ran.exists()


def test_a_clamped_distance_warns_once():
    cfg = SimConfig(n_users=1000, placement="uniform_ring", total_slots=20, seed=2)  # places one user below 20 m
    with pytest.warns(UserWarning, match="below the 20 m model floor") as single:
        run(cfg)
    with cpus(len(POLICIES)), pytest.warns(UserWarning, match="below the 20 m model floor") as split:
        run_comparison(comparison_configs(cfg, list(POLICIES)))
    assert len(split) == len(single) >= 1
