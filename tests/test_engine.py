"""Scheduler and runner: determinism, fairness, liveness bounds, schedule
enumeration and its pruner."""

from __future__ import annotations

import copy
import gc
import json
import random
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest

from byzreg import registers
from byzreg.adversary import (
    READER_STRATEGIES,
    CollaborateStabilize,
    CorrectReader,
    CorrectWriter,
    Equivocate,
    FakeWitnessStamp,
    ForgeInformSet,
    MultiValueBurst,
    OutOfOrderWitness,
    OverwriteEarly,
    PartialQuorum,
    Silent,
    SplitValue,
    StaleCounter,
    StrategyAssignment,
    WriterStrategy,
    build_machines,
    scenario_alternation,
    scenario_forged_quorum,
    scenario_pseudo_correct,
)
from byzreg.cli import load_scenario
from byzreg.core import WRITER, Config, ProcessId, TaggedValue
from byzreg.crypto import make_keyring
from byzreg.engine import (
    BoundTooLarge,
    RoundRobin,
    Scripted,
    SeededRandom,
    Simulation,
    StepLimitExhausted,
    Workload,
    _root_simulation,
    enumerate_schedules,
    make_chooser,
    run,
)
from byzreg.protocol import R_INIT, W_POLL, ProcessMachine, ReaderMachine, WriterMachine
from byzreg.registers import (
    AccessViolation,
    Raw,
    ReadOp,
    RegisterBank,
    TraceEvent,
    UnknownRegister,
    WriteOp,
    ack_reg,
    bank_init,
    final_reg,
    inform_reg,
    init_reg,
    witness_reg,
)

from test_acceptance import READER_STRATEGIES as ACCEPTANCE_READERS
from test_acceptance import WRITER_STRATEGIES as ACCEPTANCE_WRITERS
from test_registers import replay_trace

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


CFG40 = Config(4, 0)
CFG41 = Config(4, 1)
REPLAY_WORKLOAD = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 1}, read_gap=1)
FORGED_QUORUM = scenario_forged_quorum()


def returned_values(history):
    return [
        e.value
        for e in history.hli_events
        if e.kind == "response" and e.op == "read"
    ]


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 3: 1}, read_gap=1)
        runs = [
            run(CFG40, StrategyAssignment(), wl, SeededRandom(seed=42), 30000, key_seed=42)
            for _ in range(2)
        ]
        assert runs[0].digest() == runs[1].digest()
        assert list(runs[0].export_records()) == list(runs[1].export_records())

    def test_different_seeds_differ(self):
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2}, read_gap=1)
        h1 = run(CFG40, StrategyAssignment(), wl, SeededRandom(seed=1), 30000, key_seed=1)
        h2 = run(CFG40, StrategyAssignment(), wl, SeededRandom(seed=2), 30000, key_seed=2)
        assert h1.digest() != h2.digest()

    def test_unfair_seeded_schedule_still_deterministic(self):
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        h1 = run(CFG40, StrategyAssignment(), wl, SeededRandom(seed=5, fair=False), 30000)
        h2 = run(CFG40, StrategyAssignment(), wl, SeededRandom(seed=5, fair=False), 30000)
        assert h1.digest() == h2.digest()

    def test_ed25519_scheme_end_to_end(self):
        # the asymmetric scheme validates payload canonicalization on the
        # full protocol path and stays deterministic
        from byzreg import checker

        wl = Workload.make(writes=[b"a"], reads={1: 1, 2: 1}, read_gap=1)
        h1 = run(CFG40, StrategyAssignment(), wl, SeededRandom(seed=4), 30000,
                 scheme="ed25519", key_seed=4)
        h2 = run(CFG40, StrategyAssignment(), wl, SeededRandom(seed=4), 30000,
                 scheme="ed25519", key_seed=4)
        assert h1.digest() == h2.digest()
        report = checker.run_all_checks(h1)
        assert not report.violations()


class TestRoundRobinLiveness:
    def test_single_write_completes_within_bound(self):
        # measured on the round-robin schedule, asserted with slack:
        # one write needs two full reader pipeline flushes, well under
        # 8 * n * steps-per-iteration
        wl = Workload.make(writes=[b"a"])
        history = run(CFG40, StrategyAssignment(), wl, RoundRobin(), 8 * 4 * 40)
        assert history.status == "completed"
        writes = [e for e in history.hli_events if e.op == "write"]
        assert writes[-1].kind == "response"

    def test_all_acks_converge_after_rounds(self):
        wl = Workload.make(writes=[b"a"])
        history = run(CFG40, StrategyAssignment(), wl, RoundRobin(), 3000, settle_steps=600)
        cells = replay_trace(CFG40, history.u0, history.keyring(), history.trace)
        for i in CFG40.reader_indices():
            assert cells[ack_reg(i)] == TaggedValue(1, b"a")

    def test_silent_byzantine_reader_does_not_block(self):
        wl = Workload.make(writes=[b"a", b"b"])
        strategies = StrategyAssignment(readers={4: Silent()})
        history = run(CFG41, strategies, wl, RoundRobin(), 6000)
        assert history.status == "completed"


class TestLiveness:
    def test_starvation_raises_step_limit(self):
        # a scripted schedule that only ever runs the writer starves the
        # helpers; the write can never complete, and the liveness failure
        # carries no safety violation
        from byzreg import checker

        wl = Workload.make(writes=[b"a"])
        schedule = Scripted(steps=("w",) * 200, then="stop")
        with pytest.raises(StepLimitExhausted) as info:
            run(CFG40, StrategyAssignment(), wl, schedule, 200)
        partial = info.value.history
        assert partial.status == "step_limit"
        assert any(e.kind == "invoke" for e in partial.hli_events)
        assert not any(e.kind == "response" for e in partial.hli_events)
        report = checker.run_all_checks(partial)
        assert not report.violations()

    def test_raise_on_limit_false_returns_history(self):
        wl = Workload.make(writes=[b"a"])
        schedule = Scripted(steps=("w",) * 200, then="stop")
        history = run(CFG40, StrategyAssignment(), wl, schedule, 200, raise_on_limit=False)
        assert history.status == "step_limit"


def fairness_violations(history, window: int) -> list[int]:
    """Steps at which some always-enabled reader went a full window without
    being scheduled (empty means the schedule was fair for readers)."""
    readers = {ProcessId.reader(i) for i in history.cfg.reader_indices()}
    last_seen = {pid: -1 for pid in readers}
    bad: list[int] = []
    for step, pid in enumerate(history.sched_log):
        if pid in last_seen:
            last_seen[pid] = step
        for other, seen_at in last_seen.items():
            if step - seen_at > window:
                bad.append(step)
                last_seen[other] = step  # report once per lapse
    return bad


class TestFairness:
    def test_fair_schedule_has_no_window_violations(self):
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 2})
        history = run(CFG40, StrategyAssignment(), wl, SeededRandom(seed=9), 30000)
        # shuffled rounds: every always-enabled reader is scheduled at
        # least once per two-round window
        window = 2 * (CFG40.n + 1)
        assert fairness_violations(history, window) == []

    def test_round_robin_is_fair(self):
        wl = Workload.make(writes=[b"a"], reads={2: 1})
        history = run(CFG40, StrategyAssignment(), wl, RoundRobin(), 10000)
        assert fairness_violations(history, 2 * (CFG40.n + 1)) == []


class ReferenceChooser:
    """run's schedule sources as they were: one pid per step, chosen from
    the processes enabled then, counting the entries skipped."""

    skipped = 0


class ShuffledRounds(ReferenceChooser):
    """The fair chooser written with random.shuffle: the reference for
    the chooser's inline draws.  ``starts`` holds the calls, counted from
    0, that began a round."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.round: list = []
        self.calls = 0
        self.starts: list[int] = []

    def choose(self, enabled):
        self.calls += 1
        while True:
            if not self.round:
                self.starts.append(self.calls - 1)
                self.round = list(enabled)
                self.rng.shuffle(self.round)
            pid = self.round.pop()
            if pid in enabled:
                return pid
            self.skipped += 1


class UnfairPicks(ReferenceChooser):
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choose(self, enabled):
        return enabled[self.rng.randrange(len(enabled))]


class Rotation(ReferenceChooser):
    """Round robin as one cursor over every process in pid order."""

    def __init__(self, pids):
        self.order = sorted(pids)
        self.cursor = 0

    def choose(self, enabled):
        for _ in range(len(self.order)):
            pid = self.order[self.cursor % len(self.order)]
            self.cursor += 1
            if pid in enabled:
                return pid
            self.skipped += 1
        return None


class ScriptThen(ReferenceChooser):
    """A script of process names, then a Rotation or, for any other
    ``then``, nothing."""

    def __init__(self, spec: Scripted, pids):
        by_name = {str(pid): pid for pid in pids}
        self.steps = [by_name[name] for name in spec.steps if name in by_name]
        self.pos = 0
        self.fallback = Rotation(pids) if spec.then == "round_robin" else None

    def choose(self, enabled):
        while self.pos < len(self.steps):
            pid = self.steps[self.pos]
            self.pos += 1
            if pid in enabled:
                return pid
            self.skipped += 1
        return self.fallback.choose(enabled) if self.fallback else None


class RoundTaker:
    """Takes pids from a chooser's rounds as run does: from the end of
    the round, skipping a pid not enabled when taken."""

    def __init__(self, chooser):
        self.chooser = chooser
        self.round: list = []

    def choose(self, enabled):
        while True:
            if not self.round:
                self.round = self.chooser.next_round(enabled)
                if not self.round:
                    return None
            pid = self.round.pop()
            if pid in enabled:
                return pid


def reference_run(cfg, strategies, wl, chooser, step_limit, *, key_seed=0, settle_steps=0):
    """run's loop as it was: ``chooser`` picks one enabled pid per step and
    the in-place simulation steps it.  Returns the simulation and the
    number of processes enabled before each step."""
    sim = _root_simulation(cfg, strategies, wl, b"init", "keyed", key_seed)
    sizes = []
    while sim.steps < step_limit and sim.status is None:
        if sim.workload_complete():
            if settle_steps <= 0:
                break
            settle_steps -= 1
        enabled = sim.enabled_pids()
        pid = chooser.choose(enabled) if enabled else None
        if pid is None:
            break
        sizes.append(len(enabled))
        sim.step_process(pid)
    return sim, sizes


class TestFairRounds:
    def test_rounds_are_those_random_shuffle_draws(self):
        # the chooser draws each round inline; every schedule, history and
        # digest rests on its rounds being random.shuffle's, on every
        # Python the project supports.  Midway through the second round,
        # a process that the round has yet to reach is disabled.
        for seed in range(1000):
            for length in range(1, 15):
                enabled = [ProcessId(i) for i in range(length)]
                taker = RoundTaker(make_chooser(SeededRandom(seed), enabled))
                reference = ShuffledRounds(seed)
                for step in range(3 * length):
                    assert taker.choose(enabled) == reference.choose(enabled), (seed, length)
                    assert taker.round == reference.round
                    if step == length + length // 2 and reference.round:
                        enabled = [p for p in enabled if p != reference.round[0]]


class TestRoundDrivenRun:
    """run takes whole rounds from its schedule, and skips a pid that is
    not enabled when taken; it must step what the reference choosers,
    one pid per step, step."""

    WL = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 1}, read_gap=1)
    PIDS = [ProcessId(i) for i in range(CFG40.n + 1)]

    def compare(self, schedule, reference, settle_steps=0):
        history = run(CFG40, None, self.WL, schedule, 30000, key_seed=3,
                      settle_steps=settle_steps, raise_on_limit=False)
        sim, sizes = reference_run(CFG40, None, self.WL, reference, 30000, key_seed=3,
                                   settle_steps=settle_steps)
        assert history.sched_log == sim.sched_log
        assert history.digest() == sim.history(history.status).digest()
        return history, sizes

    def test_fair_rounds(self):
        reference = ShuffledRounds(1)
        history, sizes = self.compare(SeededRandom(1), reference, settle_steps=50)
        assert history.status == "completed"
        # the writer went idle at a step that did not end its round
        idle = next(i for i in range(1, len(sizes)) if sizes[i] < sizes[i - 1])
        assert idle not in reference.starts

    def test_unfair_picks(self):
        history, _ = self.compare(SeededRandom(5, fair=False), UnfairPicks(5))
        assert history.status == "completed"

    def test_round_robin_skips_the_idle_writer(self):
        reference = Rotation(self.PIDS)
        history, _ = self.compare(RoundRobin(), reference, settle_steps=50)
        assert history.status == "completed" and reference.skipped > 0

    @pytest.mark.parametrize("then", ["round_robin", "stop"])
    def test_script_with_unknown_and_disabled_entries(self, then):
        # "r9" names no process, and the writer's entries after it went
        # idle are disabled ones; the settle steps outlast the script
        script = Scripted(("w", "r9", "r1", "w", "r2", "r3", "r4") * 100, then=then)
        reference = ScriptThen(script, self.PIDS)
        history, _ = self.compare(script, reference, settle_steps=200)
        assert reference.skipped > 0 and reference.pos == len(reference.steps)
        scripted = len(reference.steps) - reference.skipped
        if then == "stop":
            assert history.steps == scripted
        else:
            assert history.steps > scripted


class TestRegisterSlots:
    def test_slots_are_looked_up_a_fixed_number_of_times(self, monkeypatch):
        # each machine resolves its register slots when it is built, so a
        # run's slot lookups do not grow with its steps
        cover = registers._cover
        calls = []

        def counting(*args):
            calls.append(args)
            return cover(*args)

        def lookups(writes: int) -> tuple[int, int]:
            wl = Workload.make(writes=[b"v%d" % k for k in range(writes)], reads={1: 2, 3: 1})
            calls.clear()
            history = run(CFG40, None, wl, SeededRandom(seed=5), 200_000)
            return len(calls), history.steps

        run(CFG40, None, Workload.make(writes=[b"a"]), SeededRandom(seed=5), 200_000)
        monkeypatch.setattr(registers, "_cover", counting)
        short, long = lookups(2), lookups(20)
        assert long[1] > 5 * short[1]
        assert long[0] == short[0]

    def test_fresh_keys_look_up_fewer_slots_than_readers(self, monkeypatch):
        # a run's register layout is derived once per n, so a run on keys
        # no run used before resolves fewer slots than it has readers
        cfg = Config(10, 3)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        run(cfg, None, wl, SeededRandom(seed=5), 200_000)
        cover = registers._cover
        calls = []
        monkeypatch.setattr(registers, "_cover", lambda *args: calls.append(args) or cover(*args))
        _root_simulation(cfg, None, wl, b"init", "keyed", 1 << 41)
        assert len(calls) < cfg.n


class TestScriptedSchedule:
    def test_script_prefix_then_round_robin(self):
        wl = Workload.make(writes=[b"a"])
        history = run(
            CFG40,
            StrategyAssignment(),
            wl,
            Scripted(steps=("w", "w", "w", "w")),
            5000,
        )
        assert history.status == "completed"
        assert [str(p) for p in history.sched_log[:4]] == ["w", "w", "w", "w"]

    def test_names_matching_no_process_are_skipped(self):
        wl = Workload.make(writes=[b"a"], reads={1: 1, 2: 1})
        steps = ("w", "r1", "w", "r2", "r1") * 12
        junk = ("r03", "r0", "x", 3, "r9", "W", "r1 ", "")
        noisy = tuple(
            e for i, name in enumerate(steps) for e in (junk[i % len(junk)], name)
        )
        clean = run(CFG40, StrategyAssignment(), wl, Scripted(steps=steps), 5000)
        mixed = run(CFG40, StrategyAssignment(), wl, Scripted(steps=noisy), 5000)
        assert [str(p) for p in clean.sched_log[:5]] == ["w", "r1", "w", "r2", "r1"]
        assert mixed.sched_log == clean.sched_log
        assert mixed.digest() == clean.digest()


class TestRunLogs:
    """A simulation logs its schedule and register trace in flat lists;
    stepped in place, it logs its reads apart from its writes.  Either
    log is a schedule that replays."""

    def test_in_place_step_retains_only_its_write_event(self):
        # a write keeps its TraceEvent alive and a read keeps nothing, as
        # the cyclic collector walks every object a run keeps alive: a
        # read event per read step would be about 0.6 objects per step
        # more, and a cons cell per log two more per step
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 2}, read_gap=1)
        sim = _root_simulation(CFG40, None, wl, b"init", "keyed", 0)
        rng = random.Random(1)

        def step(count):
            for _ in range(count):
                sim.step_process(rng.choice(sim.enabled_pids()))
            gc.collect()
            return len(gc.get_objects()), sim.bank._writes

        objects, writes = step(200)
        more_objects, more_writes = step(2000)
        reads = len(sim.bank._reads) // registers.READ_FIELDS
        assert reads > 1000 and more_writes - writes > 500
        assert (more_objects - objects - (more_writes - writes)) / 2000 <= 0.05

    # every reader and writer strategy of the acceptance tables, a writer
    # counter too wide for the codec, so that Raw cells are read, and a
    # run that ends in a violation: (cfg, strategies, workload, schedule)
    REPLAY_CASES = {
        "fault_free": (CFG40, None, REPLAY_WORKLOAD, SeededRandom(seed=4)),
        **{
            name: (CFG41, StrategyAssignment(readers={4: strategy}), REPLAY_WORKLOAD,
                   SeededRandom(seed=4))
            for name, strategy in ACCEPTANCE_READERS.items() if name != "correct"
        },
        **{
            name: (Config(4, 1, writer_byzantine=True), StrategyAssignment(writer=strategy),
                   REPLAY_WORKLOAD, SeededRandom(seed=4))
            for name, strategy in ACCEPTANCE_WRITERS.items() if name != "correct"
        },
        "stale_counter_2_64": (
            Config(4, 1, writer_byzantine=True), StrategyAssignment(writer=StaleCounter(k=2**64)),
            REPLAY_WORKLOAD, SeededRandom(seed=4),
        ),
        "forged_quorum_n4t2": (
            FORGED_QUORUM.cfg, FORGED_QUORUM.strategies, FORGED_QUORUM.workload,
            FORGED_QUORUM.schedule,
        ),
    }

    @pytest.mark.parametrize("name", sorted(REPLAY_CASES))
    def test_in_place_trace_matches_tabled_replay(self, name):
        # the merged trace of an in-place run is the trace a tabled
        # simulation rebuilds from its undo stack for the same schedule,
        # and digests alike
        cfg, strategies, wl, schedule = self.REPLAY_CASES[name]
        history = run(cfg, strategies, wl, schedule, 30000, key_seed=4, raise_on_limit=False)
        assert history.read_log
        sim = _root_simulation(cfg, strategies, wl, b"init", "keyed", 4)
        sim._tabulate()
        for pid in history.sched_log:
            sim.step_process(pid)
        assert (sim.steps, sim.violation) == (history.steps, history.violation)
        assert (sim.status == "protocol_violation") == (history.status == "protocol_violation")
        tabled = sim.history(history.status)
        assert not tabled.read_log and sim.bank.logs() == ([], [])
        assert tabled.trace == history.trace
        assert tabled.trace_length == history.trace_length == len(history.trace)
        assert tabled.hli_events == history.hli_events
        assert tabled.family_writes == history.family_writes
        assert tabled.digest() == history.digest()
        if name == "stale_counter_2_64":
            assert any(ev.op == "read" and type(ev.value) is Raw for ev in tabled.trace)
        if name == "forged_quorum_n4t2":
            assert history.violation.startswith("concurrent_final_sets at ")

    @pytest.mark.parametrize(
        "strategies",
        [None, StrategyAssignment(readers={4: Equivocate.make({1: b"z"})})],
        ids=["fault_free", "equivocate"],
    )
    def test_in_place_steps_replay_run(self, strategies):
        # run and an in-place step_process take the one step path: its
        # schedule, stepped a pid at a time, gives run's history
        cfg = CFG41 if strategies else CFG40
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 1}, read_gap=1)
        history = run(cfg, strategies, wl, SeededRandom(seed=4), 30000, key_seed=4,
                      settle_steps=40)
        sim = _root_simulation(cfg, strategies, wl, b"init", "keyed", 4)
        for pid in history.sched_log:
            sim.step_process(pid)
        again = sim.history(history.status)
        fields = ("status", "steps", "violation", "sched_log", "hli_events", "trace")
        assert [getattr(again, f) for f in fields] == [getattr(history, f) for f in fields]
        assert again.digest() == history.digest()

    def test_in_place_steps_replay_a_violation(self):
        scenario = load_scenario(SCENARIOS / "forged_quorum_n4t2.json")
        seed = scenario.seeds[0]
        history = run(
            scenario.cfg, scenario.strategies, scenario.workload, scenario.schedule,
            scenario.step_limit, u0=scenario.u0, scheme=scenario.scheme, key_seed=seed,
            raise_on_limit=False,
        )
        assert history.status == "protocol_violation"
        assert history.violation.startswith("concurrent_final_sets at ")
        sim = _root_simulation(
            scenario.cfg, scenario.strategies, scenario.workload, scenario.u0, scenario.scheme,
            seed,
        )
        for pid in history.sched_log:
            sim.step_process(pid)
        assert (sim.steps, sim.status, sim.violation) == (
            history.steps, history.status, history.violation
        )
        assert sim.history(sim.status).digest() == history.digest()
        # the violation stopped the simulation: a further step is not taken
        sim.step_process(history.sched_log[-1])
        assert sim.steps == history.steps

    @staticmethod
    def assert_replays(history, wl, strategies=None, settle_steps=0):
        """Run ``history``'s recorded schedule, then stop: the same schedule
        and the same fields that digest() reads, so the same digest too."""
        script = Scripted(tuple(map(str, history.sched_log)), then="stop")
        again = run(
            history.cfg, strategies, wl, script, history.steps + 1,
            key_seed=history.key_seed, settle_steps=settle_steps,
        )
        assert again.sched_log == history.sched_log
        fields = ("status", "steps", "violation", "hli_events", "trace")
        assert [getattr(again, f) for f in fields] == [getattr(history, f) for f in fields]
        assert again.digest() == history.digest()

    def test_seeded_run_with_settle_steps_replays(self):
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 3: 1}, read_gap=1)
        history = run(CFG40, None, wl, SeededRandom(seed=7), 30000, key_seed=7, settle_steps=300)
        self.assert_replays(history, wl, settle_steps=300)

    def test_byzantine_run_replays(self):
        strategies = StrategyAssignment(readers={4: FakeWitnessStamp(offset=10)})
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 1}, read_gap=1)
        history = run(CFG41, strategies, wl, SeededRandom(seed=3), 30000, key_seed=3)
        self.assert_replays(history, wl, strategies)

    def test_enumerated_histories_replay(self):
        # criterion 2's n=2, t=0 case with one read: every history is
        # tabled, and each replays to its digest
        cfg, wl = Config(2, 0), Workload.make(writes=[b"a"], reads={1: 1})
        count = 0
        for history in enumerate_schedules(cfg, wl, depth_bound=250, node_cap=600_000):
            self.assert_replays(history, wl)
            count += 1
        assert count == 1_295


class TestEnumeration:
    def test_micro_full_enumeration_n1(self):
        cfg = Config(1, 0)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        histories = list(enumerate_schedules(cfg, wl, depth_bound=200))
        assert len(histories) > 1
        values = {str(v) for h in histories for v in returned_values(h)}
        # both outcomes of the write/read race are reachable
        assert values == {"<0,init>", "<1,a>"}

    def test_depth_bound_guard(self):
        cfg = Config(1, 0)
        wl = Workload.make(writes=[b"a"])
        with pytest.raises(BoundTooLarge):
            list(enumerate_schedules(cfg, wl, depth_bound=10_000))

    def test_node_cap_guard(self):
        cfg = Config(2, 0)
        wl = Workload.make(writes=[b"a"], reads={1: 1, 2: 1})
        with pytest.raises(BoundTooLarge):
            list(enumerate_schedules(cfg, wl, depth_bound=300, node_cap=100))

    @staticmethod
    def outcome(h, report=None):
        """What a history shows the checker: its high-level events in
        order, its violations and its stabilization sequence, each
        stabilization as its value, the reader whose row completed first
        and its witness core's stamps."""
        from byzreg import checker

        if report is None:
            report = checker.run_all_checks(h)
        return (
            tuple((str(e.process), e.kind, e.op, str(e.value)) for e in h.hli_events),
            tuple(sorted(report.violations())),
            tuple(
                (str(s.value), s.row_owner, tuple(sorted((e.p, e.s) for e in s.ws)))
                for s in report.stabilizations
            ),
        )

    def test_reductions_keep_criterion_2_outcomes(self):
        """The soundness gate of every state-space reduction: on criterion
        2's four cases, and under ``exact_depth`` on the benchmark's n=2
        depth-60 instance and on n=2 with no read at depth 50, the
        enumeration yields exactly the outcomes and verdict tuples (every
        verdict and the brute-force oracle's) pinned in
        ``enumeration_outcomes.json``, which holds those of the enumerator
        before any reduction.  A reduction may yield fewer histories,
        never another set of outcomes; the pins are never regenerated.
        The tight bounds run under ``exact_depth``: without it, which
        states a depth bound cuts depends on the first path to each, so a
        reduction that merges states moves the cut."""
        from byzreg.checker import brute_force_linearizable, run_all_checks

        pinned = json.loads((Path(__file__).parent / "enumeration_outcomes.json").read_text())
        for case in pinned["cases"]:
            cfg = Config(case["n"], case["t"])
            wl = Workload.make(
                writes=[w.encode() for w in case["writes"]],
                reads={int(i): k for i, k in case["reads"].items()},
            )
            outcomes, verdicts = set(), set()
            for h in enumerate_schedules(cfg, wl, depth_bound=case["depth_bound"],
                                         exact_depth=case.get("exact_depth", False)):
                report = run_all_checks(h)
                outcomes.add(json.dumps(self.outcome(h, report)))
                verdicts.add(json.dumps(
                    sorted((name, v.status) for name, v in report.verdicts.items())
                    + [("brute_force_linearizable", brute_force_linearizable(h))]
                ))
            label = (case["reads"], case["depth_bound"])
            assert outcomes == {json.dumps(o) for o in case["outcomes"]}, label
            assert verdicts == {json.dumps(v) for v in case["verdicts"]}, label

    def test_pruned_matches_unpruned_on_micro_case(self):
        # cross-validation of the pruner: identical high-level outcomes and
        # checker violation sets with and without convergent-prefix pruning
        # (raw traces may differ by redundant converged poll loops)
        cfg = Config(1, 0)
        wl = Workload.make(writes=[b"a"])
        pruned = {
            self.outcome(h) for h in enumerate_schedules(cfg, wl, depth_bound=16)
        }
        unpruned = {
            self.outcome(h)
            for h in reference_enumeration(
                cfg, wl, depth_bound=16, prune=False, node_cap=500_000
            )
        }
        assert pruned == unpruned
        assert pruned

    @pytest.mark.xfail(
        strict=True,
        reason="the visited set ignores depth: a state first reached by a path "
        "at the depth bound blocks its shorter paths",
    )
    def test_depth_bound_covers_every_sequence_within_it(self):
        # n=2, t=0, one write, no read: the enumerator yields nothing at
        # depth 30, although 16 completed states lie within 30 steps
        cfg = Config(2, 0)
        wl = Workload.make(writes=[b"a"])
        enumerated = {
            event_sequence(h.hli_events) for h in enumerate_schedules(cfg, wl, depth_bound=30)
        }
        assert enumerated == shortest_path_sequences(cfg, wl, depth_bound=30)

    @pytest.mark.parametrize("reads, depth_bound", [({}, 30), ({}, 50), ({1: 1}, 40)])
    def test_exact_depth_covers_every_sequence_within_it(self, reads, depth_bound):
        # the depth-30 case is the one the default search misses entirely
        cfg = Config(2, 0)
        wl = Workload.make(writes=[b"a"], reads=reads)
        enumerated = {
            event_sequence(h.hli_events)
            for h in enumerate_schedules(cfg, wl, depth_bound=depth_bound, exact_depth=True)
        }
        assert enumerated == shortest_path_sequences(cfg, wl, depth_bound=depth_bound)
        assert enumerated

    def test_enumeration_deterministic(self):
        cfg = Config(1, 0)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        d1 = [h.digest() for h in enumerate_schedules(cfg, wl, depth_bound=150)]
        d2 = [h.digest() for h in enumerate_schedules(cfg, wl, depth_bound=150)]
        assert d1 == d2

    def test_pruned_matches_unpruned_with_acks_while_polling(self):
        # the reader acks while the write waits in W_POLL, so states differ
        # in the writer's ack freshness, which only bank_key sees
        cfg = Config(1, 0)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        pruned = list(enumerate_schedules(cfg, wl, depth_bound=15))
        unpruned = list(
            reference_enumeration(cfg, wl, depth_bound=15, prune=False, node_cap=500_000)
        )
        assert {self.outcome(h) for h in pruned} == {self.outcome(h) for h in unpruned}

        def acks_while_polling(h):
            write = next(op for op in h.ops if op.process == WRITER)
            return any(
                ev.op == "write"
                and ev.reg == ack_reg(1)
                and write.invoke_step < ev.step < write.response_step
                for ev in h.trace
            )

        assert any(acks_while_polling(h) for h in pruned)

    def test_two_enumerations_share_no_intern_table(self, monkeypatch):
        sims = tabled_simulations(monkeypatch)
        tables = []
        cfg = Config(1, 0)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        for _ in range(2):
            assert list(enumerate_schedules(cfg, wl, depth_bound=40))
            (sim,) = sims[len(tables):]
            tables.append((sim._canon, sim._table, sim._parts))
        # one table of canonical machines, one transition table and one
        # table of state key parts per enumeration, which its one
        # simulation holds throughout: every state it keyed holds its own
        # canonical machines and part ids
        for sim, (canon, _, parts) in zip(sims, tables):
            own = {id(m) for m in canon.values()}
            ids = set(parts.values())
            assert len(sim._seen) > 100
            for key in sim._seen:
                assert all(id(m) in own for m in key[: len(sim.order)])
                assert set(key[len(sim.order):-1]) <= ids
        ((canon1, table1, parts1), (canon2, table2, parts2)) = tables
        assert canon1 is not canon2 and canon1 and canon2
        assert table1 is not table2 and table1 and table2
        assert parts1 is not parts2 and parts1 and parts2
        # every machine in either table belongs to its own enumeration
        ids1 = {id(m) for m in canon1.values()}
        assert not ids1 & {id(m) for m in canon2.values()}
        assert not ids1 & {id(m) for m in table2}

    def test_bank_keys_derived_fewer_times_than_states_keyed(self, monkeypatch):
        # the bank keys' part id is carried from state to state and derived
        # again only after a step of the writer, whose bank_key the state
        # key and the writer's step both use, or a write to the init or
        # ack registers whose write order it reads; every state keyed is
        # in the visited set, so fewer derivations than distinct states
        # means fewer than states keyed
        calls = []
        bank_key = WriterMachine.bank_key

        def counting(machine, bank):
            calls.append(machine)
            return bank_key(machine, bank)

        monkeypatch.setattr(WriterMachine, "bank_key", counting)
        sims = tabled_simulations(monkeypatch)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        assert sum(1 for _ in enumerate_schedules(Config(2, 0), wl, depth_bound=60)) == 199
        (sim,) = sims
        assert len(calls) < len(sim._seen)

    def test_bytes_per_stored_state(self, monkeypatch):
        """A stored state allocates only its flat key tuple; every part it
        holds is shared.  Criterion 2's n=2 case with one read, at depth
        250, must peak at no more than 300 traced bytes per distinct state
        key (a key built from scratch per state costs about 500).  It
        keys over 20,000 states, enough for the per-state cost to swamp
        the search's fixed allocations; the benchmark's depth-60 instance
        keys about 12,000."""
        cfg = Config(2, 0)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        # the counting pass also warms the module caches the traced pass
        # would otherwise fill
        with monkeypatch.context() as patch:
            sims = tabled_simulations(patch)
            histories = sum(1 for _ in enumerate_schedules(cfg, wl, depth_bound=250))
        (sim,) = sims
        states = len(sim._seen)
        del sims[:], sim
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert sum(1 for _ in enumerate_schedules(cfg, wl, depth_bound=250)) == histories
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert states > 20_000
        assert peak / states <= 300, f"{peak / states:.0f} B per state"


def tabled_simulations(monkeypatch) -> list:
    """The simulations ``Simulation._tabulate`` switches into table mode
    from now on, listed as it does, so that a test reads an enumeration's
    simulation and its visited set after the search."""
    sims = []
    tabulate = Simulation._tabulate

    def keeping(sim):
        tabulate(sim)
        sims.append(sim)

    monkeypatch.setattr(Simulation, "_tabulate", keeping)
    return sims


def reference_key(sim):
    """Simulation.state_key's equality relation, recomputed in full with
    no canonical machines or running event key."""
    return (
        tuple(sim.machines[pid].state_key() for pid in sim.order),
        tuple(sim.machines[pid].bank_key(sim.bank) for pid in sim.order),
        tuple(sim.bank.cells),
        tuple((e.process, e.kind, e.op, e.value) for e in sim.recorder.events),
        sim.status,
    )


def reference_clone(sim):
    """A twin of a simulation stepped in place: every machine and every
    list of its bank and recorder copied, so the two step apart."""
    twin = copy.copy(sim)
    twin._sched = sim._sched.copy()
    twin.machines = {pid: copy.copy(m) for pid, m in sim.machines.items()}
    bank = twin.bank = copy.copy(sim.bank)
    bank.cells, bank.write_seq = bank.cells.copy(), bank.write_seq.copy()
    bank._trace, bank._reads = bank._trace.copy(), bank._reads.copy()
    twin.recorder = copy.copy(sim.recorder)
    twin.recorder.events = sim.recorder.events.copy()
    return twin


def reference_enumeration(cfg, wl, depth_bound, *, strategies=None, node_cap=400_000,
                          prune=True):
    """enumerate_schedules with no transition table: the same depth-first
    order and state cap, every machine stepped in place and copied into
    each clone.  Pruned, it merges states on reference_key; unpruned, it
    explores every prefix and yields each completed state once."""
    root = _root_simulation(cfg, strategies, wl, b"init", "keyed", 0)
    seen, yielded = set(), set()
    stack = [root]
    visited = 0
    while stack:
        sim = stack.pop()
        if prune:
            key = reference_key(sim)
            if key in seen:
                continue
            seen.add(key)
        visited += 1
        if visited > node_cap:
            raise BoundTooLarge(f"explored more than {node_cap} states")
        if sim.status is not None or sim.workload_complete():
            key = reference_key(sim)
            if sim.status is None and key not in yielded:
                yielded.add(key)
                yield sim.history("completed")
            continue
        if sim.steps >= depth_bound:
            continue
        enabled = sim.enabled_pids()
        for pid in reversed(enabled[1:]):
            child = reference_clone(sim)
            child.step_process(pid)
            stack.append(child)
        if enabled:
            sim.step_process(enabled[0])
            stack.append(sim)


def event_sequence(events):
    return tuple((e.process, e.kind, e.op, e.value) for e in events)


def replayed(sim, paths):
    """Step the tabled ``sim`` along each path in turn, yield the path,
    then undo it: a breadth-first walk over the one simulation."""
    for path in paths:
        for pid in path:
            sim.step_process(pid)
        yield path
        for _ in path:
            sim.undo()


def shortest_path_sequences(cfg, wl, depth_bound):
    """The high-level event sequence of every completed state within
    depth_bound steps: a breadth-first walk of the enumerator's tabled
    states, which reaches each state first by one of its shortest paths."""
    sim = _root_simulation(cfg, None, wl, b"init", "keyed", 0)
    sim._tabulate()
    seen = {sim.state_key()}
    level = [()]
    out = set()
    while level:
        deeper = []
        for path in replayed(sim, level):
            if sim.status is not None or sim.workload_complete():
                if sim.status is None:
                    out.add(event_sequence(sim.recorder.events))
                continue
            if sim.steps >= depth_bound:
                continue
            for pid in sim.enabled_pids():
                sim.step_process(pid)
                key = sim.state_key()
                if key not in seen:
                    seen.add(key)
                    deeper.append((*path, pid))
                sim.undo()
        level = deeper
    return out


class TestIncrementalStateKey:
    """The enumerator's state key holds canonical machines and a running
    event key; it must relate states exactly as a key rebuilt in full
    does.  At n=4 no history completes within a depth small
    enough to enumerate unpruned, so these compare the states reachable
    within the depth: breadth first with pruning on a tabled simulation's
    key, replaying each path on it and undoing it, and without pruning,
    over reference clones stepped in place."""

    @staticmethod
    def reachable(sim, depth):
        found = {reference_key(sim)}
        frontier = [sim]
        for _ in range(depth):
            later = []
            for parent in frontier:
                for pid in parent.enabled_pids():
                    child = reference_clone(parent)
                    child.step_process(pid)
                    found.add(reference_key(child))
                    later.append(child)
            frontier = later
        return found

    @staticmethod
    def reachable_pruned(sim, depth):
        refs = {sim.state_key(): reference_key(sim)}
        frontier = [()]
        for _ in range(depth):
            later = []
            for path in replayed(sim, frontier):
                for pid in sim.enabled_pids():
                    sim.step_process(pid)
                    ref = reference_key(sim)
                    key = sim.state_key()
                    if key in refs:
                        assert refs[key] == ref  # no false merge
                    else:
                        refs[key] = ref
                        later.append((*path, pid))
                    sim.undo()
            frontier = later
        found = set(refs.values())
        assert len(found) == len(refs)  # no false split
        return found

    @pytest.mark.parametrize(
        "reader", [Silent(), FakeWitnessStamp(offset=10)], ids=["silent", "fake_witness_stamp"]
    )
    def test_pruned_matches_unpruned_n4t1(self, reader):
        cfg = CFG41
        strategies = StrategyAssignment(readers={4: reader})
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        ring = make_keyring(cfg, "keyed", 0)

        def root(tabled):
            machines = build_machines(cfg, strategies, wl, ring, b"init")
            sim = Simulation(cfg, machines, bank_init(cfg, b"init", ring))
            if tabled:
                sim._tabulate()
            return sim

        pruned = self.reachable_pruned(root(tabled=True), 6)
        assert pruned == self.reachable(root(tabled=False), 6)
        # the writer reached W_POLL, so bank_key took part
        assert any(ref[1][0] for ref in pruned)


class Scribe(ProcessMachine):
    """A process reduced to one op: at every step it writes ``value`` to
    ``reg``, whose writer end it is.  It has no workload."""

    def __init__(self, reg, value):
        self.pid = registers.WRITER_END[reg]
        self.op = WriteOp(reg, value)

    def done(self):
        return True

    def next_op(self):
        return self.op

    def apply(self, bank, op, result, recorder):
        pass


def assert_atomic(history):
    """Every read of ``history``'s trace returns the latest write before
    it: the bank was not written behind the steps."""
    assert not registers.atomicity_violations(
        history.cfg, history.u0, history.keyring(), history.register_events, history.read_log
    )


class TestTransitionTable:
    """An enumeration steps every machine by a transition table: one
    canonical machine per state_key, each (machine, read result, bank_key)
    step taken once and replayed.  That is sound only if equal keys mean
    equal machines and a replayed step equals the step taken in place."""

    READERS = {
        "correct": CorrectReader(),
        "silent": Silent(),
        "fake_witness_stamp": FakeWitnessStamp(offset=10),
        "out_of_order_witness": OutOfOrderWitness(),
        "forge_inform_set": ForgeInformSet(),
        "equivocate": Equivocate.make({1: b"zz", 2: b"qq"}),
        "collaborate_stabilize": CollaborateStabilize(),
    }

    def test_every_reader_strategy_is_covered(self):
        assert set(self.READERS) == set(READER_STRATEGIES) | {"correct"}

    @staticmethod
    def lockstep(cfg, strategies, wl, seeds, steps):
        """Step a tabled simulation (one for every seed, undone back to its
        root after each, so the seeds share its tables) and one stepped in
        place through the same random schedule, comparing the stepped
        machines; returns every state_key reached in place, with its
        machine's attributes, and each run's final status.  A state key
        lists attribute values in ``__init__`` order, so every machine
        reached must list its attribute names in the order its process's
        freshly built machine does."""
        ring = make_keyring(cfg, "keyed", 0)

        def root():
            machines = build_machines(cfg, strategies, wl, ring, b"init")
            return Simulation(cfg, machines, bank_init(cfg, b"init", ring))

        names = {pid: list(vars(m)) for pid, m in root().machines.items()}
        tabled = root()
        tabled._tabulate()
        reached: dict = {}
        statuses = []
        for seed in seeds:
            rng = random.Random(seed)
            plain = root()
            for _ in range(steps):
                if plain.status is not None:
                    break
                pid = rng.choice(plain.enabled_pids())
                plain.step_process(pid)
                tabled.step_process(pid)
                m = plain.machines[pid]
                assert vars(tabled.machines[pid]) == vars(m)
                assert list(vars(m)) == list(vars(tabled.machines[pid])) == names[pid]
                assert reached.setdefault(m.state_key(), dict(vars(m))) == vars(m)
            assert (tabled.status, tabled.violation) == (plain.status, plain.violation)
            rebuilt, stepped = tabled.history("x"), plain.history("x")
            assert rebuilt.trace == stepped.trace
            assert rebuilt.hli_events == stepped.hli_events
            assert rebuilt.digest() == stepped.digest()
            statuses.append(plain.status)
            while tabled.steps:
                tabled.undo()
        assert len(tabled._table) < seeds.stop * steps  # steps were replayed
        return reached, statuses

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_equal_keys_mean_equal_machines(self, name):
        strategies = StrategyAssignment(readers={4: self.READERS[name]})
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 1, 2: 1}, read_gap=1)
        reached, _ = self.lockstep(CFG41, strategies, wl, range(6), 500)
        # the correct writer is tabled too, polling included
        assert any(
            key[0] is WriterMachine and attrs["phase"] == W_POLL
            for key, attrs in reached.items()
        )

    @pytest.mark.parametrize(
        "writer",
        [
            CorrectWriter(),
            SplitValue.make({1: b"a", 2: b"a", 3: b"b", 4: b"b"}),
            PartialQuorum.make({1, 2}, {3}),
            MultiValueBurst((b"p", b"q")),
            OverwriteEarly(delay=2),
            StaleCounter(k=1),
        ],
        ids=lambda w: type(w).__name__,
    )
    def test_equal_keys_mean_equal_byzantine_writers(self, writer):
        # every writer strategy of a writer_byzantine config is tabled, the
        # correct one included; the others read no bank
        cfg = Config(4, 1, writer_byzantine=True)
        wl = Workload.make(writes=[b"a", b"b", b"c"], reads={1: 1}, read_gap=1)
        reached, _ = self.lockstep(cfg, StrategyAssignment(writer=writer), wl, range(6), 300)
        assert any(attrs["pid"] == WRITER for attrs in reached.values())

    def test_writer_step_keyed_by_ack_freshness(self):
        # the same canonical writer polls the same ack content twice: written
        # before the write began (stale), then after it (fresh); a step
        # keyed by the read result alone would replay the stale outcome
        cfg = Config(1, 0)
        ring = make_keyring(cfg, "keyed", 0)
        ack = TaggedValue(1, b"a")
        reader = ProcessId.reader(1)
        machines = {WRITER: WriterMachine(cfg, ring, [b"a"]), reader: Scribe(ack_reg(1), ack)}
        sim = Simulation(cfg, machines, bank_init(cfg, b"init", ring))
        sim.step_process(reader)  # in place, before the table
        sim._tabulate()
        sim.step_process(WRITER)
        polling = sim.machines[WRITER]
        sim.step_process(WRITER)
        assert not sim.machines[WRITER].acked and not sim.workload_complete()
        sim.undo()
        sim.undo()
        sim.step_process(WRITER)
        sim.step_process(reader)
        assert sim.machines[WRITER] is polling
        sim.step_process(WRITER)
        # the fresh ack completed the write, whose response resets acked
        response = sim.recorder.events[-1]
        assert (response.process, response.kind, response.op) == (WRITER, "response", "write")
        assert response.value == ack and sim.workload_complete()
        history = sim.history("completed")
        assert [(ev.op, str(ev.reg)) for ev in history.trace] == [
            ("write", "ack[r1->w]"), ("write", "init[w->r1]"),
            ("write", "ack[r1->w]"), ("read", "ack[r1->w]"),
        ]
        assert_atomic(history)

    def test_violation_is_replayed(self):
        # the forged-quorum scenario ends in concurrent_final_sets at a
        # correct reader, raised inside a tabled step
        s = scenario_forged_quorum()
        _, statuses = self.lockstep(s.cfg, s.strategies, s.workload, range(4), 3000)
        assert "protocol_violation" in statuses

    @staticmethod
    def undo_snapshot(sim):
        """What a tabled step may change, the history it rebuilds and the
        running event key included, as values."""
        history = sim.history("x")
        return (
            sim.steps, sim.state_key(), reference_key(sim), sim.bank.cells.copy(),
            sim.bank.write_seq.copy(), sim.bank._writes, history.trace, history.hli_events,
            sim.sched_log, sim._event_key, sim.enabled_pids(), sim._unfinished, sim.status,
            sim.violation,
        )

    UNDO_CASES = {
        **{f"reader_{name}": (CFG41, StrategyAssignment(readers={4: r})) for name, r in READERS.items()},
        "writer_split_value": (
            Config(4, 1, writer_byzantine=True),
            StrategyAssignment(writer=SplitValue.make({1: b"a", 2: b"a", 3: b"b", 4: b"b"})),
        ),
    }

    @pytest.mark.parametrize("name", [*sorted(UNDO_CASES), "forged_quorum"])
    def test_undo_restores_each_state(self, name):
        # random walks down from a tabled root, then undone step by step:
        # each state on the way back equals the one recorded on the way down
        if name == "forged_quorum":  # a violation raised inside a tabled step
            s = scenario_forged_quorum()
            cfg, strategies, wl = s.cfg, s.strategies, s.workload
        else:
            cfg, strategies = self.UNDO_CASES[name]
            wl = Workload.make(writes=[b"a", b"b"], reads={1: 1, 2: 1}, read_gap=1)
        sim = _root_simulation(cfg, strategies, wl, b"init", "keyed", 0)
        sim._tabulate()
        statuses = set()
        for seed in range(3):
            rng = random.Random(seed)
            trail = [self.undo_snapshot(sim)]
            while sim.status is None and sim.enabled_pids() and sim.steps < 300:
                sim.step_process(rng.choice(sim.enabled_pids()))
                trail.append(self.undo_snapshot(sim))
            statuses.add(sim.status)
            for depth in reversed(range(len(trail))):
                assert self.undo_snapshot(sim) == trail[depth], f"seed {seed}, depth {depth}"
                if depth:
                    sim.undo()
        assert not sim._undo
        if name == "forged_quorum":
            assert statuses == {"protocol_violation"}

    def test_undo_without_a_tabled_step_raises(self):
        # stepped in place, a simulation keeps no undo stack; tabled, it
        # cannot back out past the state it was tabled in
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        in_place = _root_simulation(Config(2, 0), None, wl, b"init", "keyed", 0)
        in_place.step_process(WRITER)
        with pytest.raises(ValueError, match="steps in place"):
            in_place.undo()
        assert in_place.steps == 1
        sim = _root_simulation(Config(2, 0), None, wl, b"init", "keyed", 0)
        sim._tabulate()
        root = self.undo_snapshot(sim)
        with pytest.raises(ValueError, match="no tabled step to undo"):
            sim.undo()
        sim.step_process(WRITER)
        sim.undo()
        with pytest.raises(ValueError, match="no tabled step to undo"):
            sim.undo()
        assert self.undo_snapshot(sim) == root

    def test_walk_logs_no_register_event(self, monkeypatch):
        # the walk steps the cells itself: it calls neither bank op, and
        # builds a TraceEvent only when a history rebuilds its trace
        def refused(*args):
            raise AssertionError("the walk called the bank")

        monkeypatch.setattr(RegisterBank, "read", refused)
        monkeypatch.setattr(RegisterBank, "write", refused)
        built = []

        def counted(*fields):
            built.append(fields)
            return TraceEvent(*fields)

        monkeypatch.setattr("byzreg.engine.TraceEvent", counted)
        sims = tabled_simulations(monkeypatch)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        histories = list(enumerate_schedules(Config(2, 0), wl, depth_bound=60))
        assert len(histories) == 199
        assert len(built) == sum(len(h.trace) for h in histories)
        assert sims[0].bank.logs() == ([], [])

    # criterion 2's first two cases, n=4 cases with no write (with a write,
    # no history completes within the cap at n=4), a writer whose counter
    # does not decode, so that Raw cells get content ids, and the
    # benchmark's enumerate_n2 instance, where reader 1 acks while the
    # writer polls, so a reader's write changes the writer's bank key
    CASES = {
        "c2_one_read": (
            Config(1, 0), Workload.make(writes=[b"a"], reads={1: 1}), 200, StrategyAssignment(),
        ),
        "c2_two_reads": (
            Config(1, 0), Workload.make(writes=[b"a"], reads={1: 2}), 250, StrategyAssignment(),
        ),
        "n4t1_silent": (
            CFG41, Workload.make(reads={1: 1}), 40, StrategyAssignment(readers={4: Silent()}),
        ),
        "n4t1_fake_witness_stamp": (
            CFG41, Workload.make(reads={1: 1}), 40,
            StrategyAssignment(readers={4: FakeWitnessStamp(offset=10)}),
        ),
        "n2_stale_counter_2_64": (
            Config(2, 0, writer_byzantine=True), Workload.make(writes=[b"a"], reads={1: 1}), 60,
            StrategyAssignment(writer=StaleCounter(k=2**64)),
        ),
        "enumerate_n2": (
            Config(2, 0), Workload.make(writes=[b"a"], reads={1: 1}), 60, StrategyAssignment(),
        ),
    }

    CAP = 40_000

    @classmethod
    def digests(cls, enumeration, cfg, wl, bound, strategies):
        """The digests of the histories an enumeration yields, in order,
        and whether it stopped at the state cap."""
        out = []
        try:
            for h in enumeration(cfg, wl, bound, strategies=strategies, node_cap=cls.CAP):
                out.append(h.digest())
        except BoundTooLarge:
            return out, True
        return out, False

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_enumeration_unchanged_without_table(self, name):
        cfg, wl, bound, strategies = self.CASES[name]
        tabled = self.digests(enumerate_schedules, cfg, wl, bound, strategies)
        assert tabled == self.digests(reference_enumeration, cfg, wl, bound, strategies)
        assert tabled[0]

    @pytest.mark.parametrize(
        "name", ["c2_one_read", "n2_stale_counter_2_64", "n4t1_fake_witness_stamp", "enumerate_n2"]
    )
    def test_carried_part_ids_match_fresh_ones(self, name, monkeypatch):
        """At every state that a depth-first walk of one-edge steps and
        undos reaches, the part ids the simulation carries are those of
        the cell ids, the event key and the bank keys derived afresh; and
        the keys that walk builds with ``state_key``, pruning as the
        enumerator does, are the very keys the enumeration visited."""
        cfg, wl, bound, strategies = self.CASES[name]
        sims = tabled_simulations(monkeypatch)
        histories, capped = self.digests(enumerate_schedules, cfg, wl, bound, strategies)
        assert histories
        (sim,) = sims
        while sim.steps:  # a search stopped at the cap stays where it was
            sim.undo()
        parts = sim._parts
        keys, bank_keys = set(), []

        def visit():
            key = sim.state_key()
            fresh = tuple(sim.machines[pid].bank_key(sim.bank) for pid in sim._bank_keyed)
            assert sim._cell_ids == tuple(parts.get(c) for c in sim.bank.cells)
            assert key[len(sim.order):-1] == (
                parts.get(fresh), parts.get(sim._cell_ids), parts.get(sim._event_key)
            )
            bank_keys.append(fresh)
            if key in keys:
                return
            keys.add(key)
            if len(keys) > self.CAP:
                raise BoundTooLarge
            if sim.status is not None or sim.workload_complete() or sim.steps >= bound:
                return
            for pid in sim.enabled_pids():
                sim.step_process(pid)
                visit()
                sim.undo()

        try:
            visit()
        except BoundTooLarge:
            assert capped
        else:
            assert not capped
        assert keys == sim._seen.keys()
        assert len(bank_keys) > 100
        if name == "enumerate_n2":
            # some keyed state holds a fresh ack while the writer polls
            assert any(True in key for (key,) in bank_keys)

    def test_undecodable_writes_get_content_ids(self, monkeypatch):
        # the stale counter 2**64 is wider than the codec's, so the init
        # writes hold Raw content, which takes a content id like any other
        cfg, wl, bound, strategies = self.CASES["n2_stale_counter_2_64"]
        sims = tabled_simulations(monkeypatch)
        assert len(list(enumerate_schedules(cfg, wl, bound, strategies=strategies))) == 333
        assert any(type(part) is Raw for part in sims[0]._parts)


@pytest.mark.parametrize("tabled", [False, True], ids=["in_place", "tabled"])
class TestUndecodableCells:
    """Bytes no codec decodes reach a correct machine as None through
    step_process, stepped in place and by table alike."""

    GARBAGE = Raw(b"\xff not a value")

    @classmethod
    def simulation(cls, tabled, build, garbage_at=None):
        """A simulation of the machines ``build(ring)`` lists, with GARBAGE
        written to the register ``garbage_at`` (if any) before it is
        tabled."""
        ring = make_keyring(CFG41, "keyed", 0)
        machines = {m.pid: m for m in build(ring)}
        sim = Simulation(CFG41, machines, bank_init(CFG41, b"init", ring))
        if garbage_at is not None:
            sim.bank.write(garbage_at, cls.GARBAGE, registers.WRITER_END[garbage_at])
        if tabled:
            sim._tabulate()
        return sim

    def test_ack_not_counted(self, tabled):
        ack = TaggedValue(1, b"a")
        sim = self.simulation(tabled, lambda ring: [
            WriterMachine(CFG41, ring, [b"a"]),
            Scribe(ack_reg(1), self.GARBAGE),
            Scribe(ack_reg(2), ack),
        ])
        for _ in range(CFG41.n):  # the init writes
            sim.step_process(WRITER)
        sim.step_process(ProcessId.reader(1))
        sim.step_process(ProcessId.reader(2))
        sim.step_process(WRITER)  # polls reader 1
        sim.step_process(WRITER)  # polls reader 2
        assert sim.machines[WRITER].acked == {2}
        assert_atomic(sim.history("x"))

    def reader_iteration(self, tabled, reg):
        """Reader 1 after one helper iteration with ``reg`` holding garbage."""
        pid = ProcessId.reader(1)
        sim = self.simulation(
            tabled, lambda ring: [ReaderMachine(CFG41, ring, b"init", 1)], garbage_at=reg
        )
        sim.step_process(pid)
        while sim.machines[pid].phase != R_INIT:
            sim.step_process(pid)
        assert_atomic(sim.history("x"))
        return sim.machines[pid]

    def test_init_counts_as_unchanged(self, tabled):
        reader = self.reader_iteration(tabled, init_reg(1))
        assert reader.s == 0 and reader.last_init == TaggedValue(0, b"init")
        assert reader.suspected == frozenset()

    @pytest.mark.parametrize("family", ["witness", "inform", "final"])
    def test_peer_cell_suspects_its_source(self, tabled, family):
        reg = {"witness": witness_reg, "inform": inform_reg, "final": final_reg}[family]
        reader = self.reader_iteration(tabled, reg(3, 1))
        assert reader.suspected == {3}
        if family == "inform":
            assert reader.t_inform[3] is None


@pytest.mark.parametrize("tabled", [False, True], ids=["in_place", "tabled"])
class TestStepGuard:
    """step_process steps only an enabled process of a simulation that no
    violation stopped, in place and by table alike."""

    @staticmethod
    def simulation(tabled, cfg, strategies, wl):
        sim = _root_simulation(cfg, strategies, wl, b"init", "keyed", 0)
        if tabled:
            sim._tabulate()
        return sim

    @staticmethod
    def snapshot(sim):
        return (
            sim.steps, sim.sched_log, sim.history("x").trace, sim.bank.cells.copy(),
            sim.bank.write_seq.copy(), sim.recorder.events.copy(), sim.recorder.last,
            {pid: dict(vars(m)) for pid, m in sim.machines.items()}, sim.enabled_pids(),
            sim.status, sim.violation,
        )

    def test_disabled_process_steps_nothing(self, tabled):
        # with no write to make, the writer is disabled from the start
        sim = self.simulation(tabled, Config(2, 0), None, Workload.make(reads={1: 1}))
        assert WRITER not in sim.enabled_pids()
        before = self.snapshot(sim)
        sim.step_process(WRITER)
        assert self.snapshot(sim) == before
        reader = ProcessId.reader(1)
        sim.step_process(reader)
        assert sim.sched_log == [reader] and sim.steps == 1
        if tabled:  # the reader's step is the one to undo
            sim.undo()
            assert self.snapshot(sim) == before and not sim._undo

    def test_stopped_simulation_steps_nothing(self, tabled):
        s = scenario_forged_quorum()
        sim = self.simulation(tabled, s.cfg, s.strategies, s.workload)
        rng = random.Random(0)
        while sim.status is None and sim.steps < 300:
            sim.step_process(rng.choice(sim.enabled_pids()))
        assert sim.status == "protocol_violation" and sim.enabled_pids()
        before = self.snapshot(sim)
        for pid in sim.order:
            sim.step_process(pid)
        assert self.snapshot(sim) == before


@dataclass(frozen=True)
class Trespass(WriterStrategy):
    """A writer whose every write is the one op ``op``, whatever register
    it names."""

    op: object

    def plan(self, cfg, writes):
        for _ in writes:
            yield (self.op,), None


class TestAccessRule:
    """The bank's access rule holds for an op whichever way it is taken:
    stepped in place, every op goes through the bank's read or write; by
    table, each op is checked when its table entry is made."""

    CASES = {
        "write_ack": (WriteOp(ack_reg(1), TaggedValue(1, b"a")), AccessViolation),
        "read_init": (ReadOp(init_reg(1)), AccessViolation),
        "write_outside_bank": (WriteOp(init_reg(3), TaggedValue(1, b"a")), UnknownRegister),
        "read_outside_bank": (ReadOp(ack_reg(3)), UnknownRegister),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_trespass_raises(self, name):
        op, error = self.CASES[name]
        cfg = Config(2, 0, writer_byzantine=True)  # a bank of readers 1 and 2
        strategies = StrategyAssignment(writer=Trespass(op))
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        with pytest.raises(error):
            run(cfg, strategies, wl, RoundRobin(), 100)
        with pytest.raises(error):
            list(enumerate_schedules(cfg, wl, 10, strategies=strategies))


class TestSchedulerContract:
    """The simulation tracks the enabled processes and the unfinished ones
    incrementally, re-evaluating only the process that stepped.  At every
    step both views must equal a full rescan, for every machine kind
    build_machines makes, and a clone's views must not leak into its
    origin."""

    CASES = {
        "correct": (CFG41, StrategyAssignment()),
        "silent_fake_stamp": (
            Config(7, 2),
            StrategyAssignment(readers={1: Silent(), 2: FakeWitnessStamp(offset=3)}),
        ),
        "out_of_order_equivocate": (
            Config(7, 2),
            StrategyAssignment(readers={3: OutOfOrderWitness(), 4: Equivocate.make({1: b"zz"})}),
        ),
        "forge_collaborate": (
            Config(7, 2),
            StrategyAssignment(readers={5: ForgeInformSet(), 6: CollaborateStabilize()}),
        ),
        **{
            f"writer_{type(w).__name__}": (
                Config(4, 1, writer_byzantine=True),
                StrategyAssignment(writer=w),
            )
            for w in (
                SplitValue.make({1: b"a", 2: b"a", 3: b"b", 4: b"b"}),
                PartialQuorum.make({1, 2}, {3}),
                MultiValueBurst((b"p", b"q")),
                OverwriteEarly(delay=2),
                StaleCounter(k=1),
            )
        },
    }

    @staticmethod
    def snapshot(machine):
        """The machine's attributes, with a shallow copy of every list,
        dict and set, so an in-place change to one shows against it."""
        return {
            k: copy.copy(v) if isinstance(v, (list, dict, set)) else v
            for k, v in vars(machine).items()
        }

    @staticmethod
    def assert_views_match_rescan(sim):
        # every reader may step, and the writer while it is not done
        rule = [p for p in sim.order if p != WRITER or not sim.machines[p].done()]
        assert sim.enabled_pids() == rule
        assert sim.workload_complete() == all(m.done() for m in sim.machines.values())

    def drive(self, cfg, strategies, wl, steps, seed):
        """Step uniformly chosen enabled processes, checking the views
        before every step and, every 97 steps, on a clone stepped apart;
        returns the simulation."""
        ring = make_keyring(cfg, "keyed", seed)
        machines = build_machines(cfg, strategies, wl, ring, b"init")
        sim = Simulation(cfg, machines, bank_init(cfg, b"init", ring))
        rng = random.Random(seed)
        for step in range(steps):
            self.assert_views_match_rescan(sim)
            enabled = sim.enabled_pids()
            if not enabled or sim.status is not None:
                break
            if step % 97 == 0:
                before = reference_key(sim)
                logs = (sim.sched_log, sim.bank.trace)
                origin = dict(sim.machines)
                keys = {pid: m.state_key() for pid, m in origin.items()}
                snaps = {pid: self.snapshot(m) for pid, m in origin.items()}
                twin = reference_clone(sim)
                for _ in range(40):
                    if twin.enabled_pids():
                        twin.step_process(rng.choice(twin.enabled_pids()))
                self.assert_views_match_rescan(twin)
                self.assert_views_match_rescan(sim)
                # the reference clone copies every machine shallowly, as
                # a tabled step's first take copies its machine: the twin
                # holds none of its origin's machines, and stepping it in
                # place left every machine and container its origin holds
                # untouched
                for pid, m in origin.items():
                    assert sim.machines[pid] is m
                    assert twin.machines[pid] is not m
                    assert m.state_key() == keys[pid]
                    assert self.snapshot(m) == snaps[pid], f"{pid} at step {step}"
                assert reference_key(sim) == before
                # and appended nothing to the logs its origin keeps
                assert (sim.sched_log, sim.bank.trace) == logs
            sim.step_process(rng.choice(enabled))
        return sim

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_views_match_rescan(self, name):
        cfg, strategies = self.CASES[name]
        wl = Workload.make(writes=[b"a", b"b"], reads={cfg.n: 2}, read_gap=1)
        sim = self.drive(cfg, strategies, wl, 3000, seed=3)
        # the writer went idle and the reads finished, so both views moved
        assert sim.workload_complete() and WRITER not in sim.enabled_pids()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_next_op_only_reads(self, name):
        # the enumerator asks shared canonical machines for their ops
        cfg, strategies = self.CASES[name]
        wl = Workload.make(writes=[b"a", b"b"], reads={cfg.n: 2}, read_gap=1)
        ring = make_keyring(cfg, "keyed", 3)
        machines = build_machines(cfg, strategies, wl, ring, b"init")
        sim = Simulation(cfg, machines, bank_init(cfg, b"init", ring))
        rng = random.Random(3)
        while sim.enabled_pids() and sim.status is None and sim.steps < 3000:
            pid = rng.choice(sim.enabled_pids())
            machine = sim.machines[pid]
            before = self.snapshot(machine)
            machine.next_op()
            assert self.snapshot(machine) == before, f"{pid} at step {sim.steps}"
            sim.step_process(pid)
        assert sim.steps == 3000

    @pytest.mark.parametrize(
        "factory", [scenario_pseudo_correct, scenario_alternation, scenario_forged_quorum]
    )
    def test_views_match_rescan_scripted_scenarios(self, factory):
        s = factory()
        sim = self.drive(s.cfg, s.strategies, s.workload, 3000, seed=5)
        assert sim.steps >= 50

    def test_disabled_from_the_start(self):
        sim = self.drive(CFG40, StrategyAssignment(), Workload.make(), 50, seed=1)
        assert WRITER not in sim.enabled_pids()
        assert sim.workload_complete()
