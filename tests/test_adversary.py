"""Byzantine strategies: access-control discipline, the strategy-pattern
equivalence with the plain protocol, per-strategy effects, and the four
scripted attack scenarios."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from byzreg import checker
from byzreg.adversary import (
    ByzWriterMachine,
    CollaborateStabilize,
    CorrectReader,
    CorrectWriter,
    Equivocate,
    FakeWitnessStamp,
    ForgeInformSet,
    HookedReader,
    MultiValueBurst,
    OutOfOrderWitness,
    OverwriteEarly,
    PartialQuorum,
    QuorumForger,
    RogueReader,
    SCENARIO_SCRIPTS,
    ScriptedWriter,
    Silent,
    SplitValue,
    StaleCounter,
    StrategyAssignment,
    build_machines,
    scenario_alternation,
    scenario_forged_quorum,
    scenario_pseudo_correct,
    scenario_pseudo_correct_overwrite,
)
from byzreg.checker import Analysis, Kind
from byzreg.core import WRITER, Config, TaggedValue
from byzreg.crypto import make_keyring
from byzreg.engine import (
    RoundRobin,
    SeededRandom,
    Simulation,
    Workload,
    run,
)
from byzreg.protocol import ProcessMachine
from byzreg.registers import (
    FAMILY,
    READER_END,
    WRITER_END,
    Family,
    LocalOp,
    RegisterBank,
    bank_init,
    init_reg,
)

from test_acceptance import READER_STRATEGIES as READERS, WRITER_STRATEGIES as WRITERS
from test_registers import cell

CFG_BW = Config(4, 1, writer_byzantine=True)


def run_scripted(s):
    return run(
        s.cfg,
        s.strategies,
        s.workload,
        s.schedule,
        s.step_limit,
        u0=s.u0,
        settle_steps=s.settle_steps,
        raise_on_limit=False,
    )


def returned_reads(history):
    return [
        (str(e.process), e.value)
        for e in history.hli_events
        if e.kind == "response" and e.op == "read"
    ]


class TestStrategyEquivalence:
    def test_all_correct_assignment_is_bit_identical_to_protocol(self):
        cfg = Config(4, 0)
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 3: 2}, read_gap=1)
        explicit = StrategyAssignment(
            writer=CorrectWriter(), readers={i: CorrectReader() for i in cfg.reader_indices()}
        )
        h1 = run(cfg, StrategyAssignment(), wl, SeededRandom(seed=5), 30000, key_seed=5)
        h2 = run(cfg, explicit, wl, SeededRandom(seed=5), 30000, key_seed=5)
        assert h1.digest() == h2.digest()


class TestAccessDiscipline:
    @pytest.mark.parametrize(
        "strategy",
        [
            SplitValue.make({1: b"a", 2: b"b"}),
            PartialQuorum.make({1, 2, 3}),
            MultiValueBurst(values=(b"p", b"q")),
            OverwriteEarly(delay=1),
            StaleCounter(k=2),
            ScriptedWriter(scripts=(((1, TaggedValue(1, b"x")), 2),)),
        ],
    )
    def test_writer_strategies_touch_only_owned_registers(self, strategy):
        # AccessViolation from the substrate would mean a scripting bug
        wl = Workload.make(writes=[b"z"])
        strategies = StrategyAssignment(writer=strategy)
        history = run(CFG_BW, strategies, wl, RoundRobin(), 4000,
                      settle_steps=200, raise_on_limit=False)
        for ev in history.trace:
            if ev.op == "write":
                assert ev.caller == WRITER_END[ev.reg]

    @pytest.mark.parametrize(
        "strategy",
        [
            Silent(),
            FakeWitnessStamp(offset=5),
            OutOfOrderWitness(),
            ForgeInformSet(),
            Equivocate.make({1: b"zz"}),
            CollaborateStabilize(),
        ],
    )
    def test_reader_strategies_touch_only_owned_registers(self, strategy):
        cfg = Config(4, 1)
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        strategies = StrategyAssignment(readers={4: strategy})
        history = run(cfg, strategies, wl, RoundRobin(), 6000,
                      settle_steps=200, raise_on_limit=False)
        for ev in history.trace:
            if ev.op == "write":
                assert ev.caller == WRITER_END[ev.reg]
            else:
                assert ev.caller == READER_END[ev.reg]


class TestDerivedCaller:
    """A trace event's caller is derived from its op and register
    (``TraceEvent.caller``).  It must be the caller the bank admitted,
    event by event, under every registered strategy (the acceptance
    suite's tables, which cover the registries) and the forged quorum
    attack: that keeps the ``ev.caller == WRITER_END[ev.reg]``
    asserts above from reading true by construction alone."""

    @staticmethod
    def bank_callers(monkeypatch) -> list:
        """The caller of every bank op from now on, in order."""
        callers = []
        read, write = RegisterBank.read, RegisterBank.write

        def reading(bank, reg, caller):
            callers.append(caller)
            return read(bank, reg, caller)

        def writing(bank, reg, value, caller):
            callers.append(caller)
            write(bank, reg, value, caller)

        monkeypatch.setattr(RegisterBank, "read", reading)
        monkeypatch.setattr(RegisterBank, "write", writing)
        return callers

    def check(self, monkeypatch, cfg, strategies, wl, schedule=RoundRobin(), **kw):
        callers = self.bank_callers(monkeypatch)
        history = run(cfg, strategies, wl, schedule, 6000, settle_steps=200,
                      raise_on_limit=False, **kw)
        assert {ev.op for ev in history.trace} == {"read", "write"}
        assert [ev.caller for ev in history.trace] == callers

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_reader_strategy(self, monkeypatch, name):
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        strategies = StrategyAssignment(readers={4: READERS[name]})
        self.check(monkeypatch, Config(4, 1), strategies, wl)

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_writer_strategy(self, monkeypatch, name):
        wl = Workload.make(writes=[b"z"], reads={1: 1})
        self.check(monkeypatch, CFG_BW, StrategyAssignment(writer=WRITERS[name]), wl)

    def test_forged_quorum(self, monkeypatch):
        s = scenario_forged_quorum()
        self.check(monkeypatch, s.cfg, s.strategies, s.workload, s.schedule, u0=s.u0)


def machine_classes() -> set[type]:
    """Every ProcessMachine subclass that protocol and adversary define."""
    found, todo = set(), [ProcessMachine]
    while todo:
        cls = todo.pop()
        if cls.__module__ in ("byzreg.protocol", "byzreg.adversary"):
            found.add(cls)
        todo.extend(cls.__subclasses__())
    return found


class TestMachineContract:
    """What the enumerator assumes of every machine class: it asks a
    shared canonical machine for its op once, and keys the bank only for
    the processes whose class overrides ``bank_key`` and only after a
    write to a register their ``bank_regs`` name."""

    # classes that only lend code to their subclasses: no strategy builds one
    BASES = {ProcessMachine, RogueReader, HookedReader}

    @staticmethod
    def built_machines() -> list:
        """A machine of every registered strategy (the acceptance suite's
        tables) and of every scripted scenario."""
        wl = Workload.make(writes=[b"a"], reads={1: 1})
        assignments = [(Config(4, 1), StrategyAssignment(readers={4: s}), wl)
                       for s in READERS.values()]
        assignments += [(CFG_BW, StrategyAssignment(writer=s), wl) for s in WRITERS.values()]
        for factory in SCENARIO_SCRIPTS.values():
            s = factory()
            assignments.append((s.cfg, s.strategies, s.workload))
        machines = []
        for cfg, strategies, workload in assignments:
            ring = make_keyring(cfg, "keyed", 0)
            machines += build_machines(cfg, strategies, workload, ring, b"init").values()
        return machines

    def test_next_op_reads_only_the_machine(self):
        for cls in machine_classes():
            params = list(inspect.signature(cls.next_op).parameters)
            assert params == ["self"], f"{cls.__name__}.next_op{params}"

    def test_bank_key_exactly_with_bank_regs(self):
        machines = self.built_machines()
        assert {type(m) for m in machines} == machine_classes() - self.BASES
        for m in machines:
            overrides = type(m).bank_key is not ProcessMachine.bank_key
            assert overrides == bool(m.bank_regs()), type(m).__name__


def everyone(k, u):
    """A broadcast to the four readers of CFG_BW, as plan_literal shows it."""
    return [(i, k, u) for i in (1, 2, 3, 4)]


def plan_literal(spec, writes):
    """The spec's plan with each write op shown as (reader, k, u) and each
    idle count as that many notes of the spec's idle op."""
    out = []
    for items, value in spec.plan(CFG_BW, writes):
        shown = []
        for item in items:
            if isinstance(item, int):
                shown += [spec.idle_op.note] * item
            else:
                shown.append((READER_END[item.reg].index, item.value.k, item.value.u))
        out.append((shown, value))
    return out


class TestWriterPlans:
    """Each spec's plan for writes a, b, a, pinned as literals: which
    counter each write carries is the strategy's behaviour."""

    WRITES = [b"a", b"b", b"a"]

    def test_split_value(self):
        spec = SplitValue.make({1: b"a", 2: b"a", 3: b"b", 4: b"b"})
        assert plan_literal(spec, self.WRITES) == [
            ([(1, c, b"a"), (2, c, b"a"), (3, c, b"b"), (4, c, b"b")], None) for c in (1, 2, 3)
        ]

    def test_partial_quorum_reuses_a_payloads_counter(self):
        spec = PartialQuorum.make({1, 2}, {3})
        a, b = TaggedValue(1, b"a"), TaggedValue(2, b"b")
        assert plan_literal(spec, self.WRITES) == [
            ([(1, 1, b"a"), (2, 1, b"a")], a),
            ([(3, 2, b"b")], b),
            ([(1, 1, b"a"), (2, 1, b"a")], a),
        ]

    def test_multi_value_burst_continues_its_counter(self):
        spec = MultiValueBurst((b"p", b"q"))
        assert plan_literal(spec, self.WRITES) == [
            (everyone(1, b"p") + everyone(2, b"q"), None),
            (everyone(3, b"p") + everyone(4, b"q"), None),
            (everyone(5, b"p") + everyone(6, b"q"), None),
        ]

    def test_overwrite_early(self):
        delay = ["overwrite-delay"] * 2
        assert plan_literal(OverwriteEarly(delay=2), self.WRITES) == [
            (everyone(1, b"a") + delay, TaggedValue(1, b"a")),
            (everyone(2, b"b") + delay, TaggedValue(2, b"b")),
            (everyone(3, b"a") + delay, TaggedValue(3, b"a")),
        ]

    def test_stale_counter_keeps_k(self):
        assert plan_literal(StaleCounter(k=5), self.WRITES) == [
            (everyone(5, b"a"), TaggedValue(5, b"a")),
            (everyone(5, b"b"), TaggedValue(5, b"b")),
            (everyone(5, b"a"), TaggedValue(5, b"a")),
        ]

    def test_scripted_writer_cycles_its_scripts(self):
        x, y = TaggedValue(1, b"x"), TaggedValue(2, b"y")
        spec = ScriptedWriter(scripts=(((1, x), 2), ((2, y),)))
        idle = ["scripted-idle"] * 2
        assert plan_literal(spec, self.WRITES) == [
            ([(1, 1, b"x")] + idle, None),
            ([(2, 2, b"y")], None),
            ([(1, 1, b"x")] + idle, None),
        ]

    def test_machine_plays_idle_counts_as_idle_ops(self):
        # one step per op and per idle step, a zero count taking none; the
        # invoke comes with a write's first step and the response with its
        # last, an idle one included
        x = TaggedValue(1, b"x")
        spec = ScriptedWriter(scripts=((2, (1, x), 0, 1),))
        machine = ByzWriterMachine(CFG_BW, spec, [b"a", b"b"])
        played, calls = [], []

        class Log:
            def invoke(self, pid, op, value):
                calls.append(("invoke", len(played)))

            def response(self, pid, op, value):
                calls.append(("response", len(played)))

        while not machine.done():
            op = machine.next_op()
            machine.apply(None, op, None, Log())
            played.append(op.note if isinstance(op, LocalOp) else READER_END[op.reg].index)
        idle = "scripted-idle"
        assert played == [idle, idle, 1, idle] * 2
        assert calls == [("invoke", 0), ("response", 3), ("invoke", 4), ("response", 7)]

    def test_idle_counts_stay_unexpanded(self):
        # a plan holds a delay as one count, so building the machine for
        # the largest delay allowed, over 8 writes, allocates little
        spec = OverwriteEarly(delay=OverwriteEarly.MAX_DELAY)
        tracemalloc.start()
        try:
            ByzWriterMachine(CFG_BW, spec, [b"w%d" % i for i in range(8)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestWriterStrategies:
    def test_split_value_quorums_per_classification(self):
        # neither split half reaches the n-t init quorum
        wl = Workload.make(writes=[b"z"], reads={1: 1}, read_gap=1)
        strategies = StrategyAssignment(
            writer=SplitValue.make({1: b"a", 2: b"a", 3: b"b", 4: b"b"})
        )
        history = run(CFG_BW, strategies, wl, SeededRandom(seed=1), 30000,
                      settle_steps=600, raise_on_limit=False)
        cls = Analysis(history).classification
        assert cls.kind_of(TaggedValue(1, b"a")) is Kind.NEITHER
        assert cls.kind_of(TaggedValue(1, b"b")) is Kind.NEITHER

    def test_partial_quorum_value_is_potential_pseudo_correct(self):
        wl = Workload.make(writes=[b"x"])
        strategies = StrategyAssignment(writer=PartialQuorum.make({1, 2, 3}))
        history = run(CFG_BW, strategies, wl, SeededRandom(seed=2), 30000,
                      settle_steps=600, raise_on_limit=False)
        cls = Analysis(history).classification
        assert cls.kind_of(TaggedValue(1, b"x")) in (
            Kind.POTENTIAL_PSEUDO_CORRECT,
            Kind.PSEUDO_CORRECT,  # three correct readers suffice to stabilize it
        )

    def test_overwrite_early_nothing_stabilizes(self):
        wl = Workload.make(writes=[b"v1", b"v2", b"v3"])
        strategies = StrategyAssignment(writer=OverwriteEarly(delay=1))
        # writer-only prefix so every value is overwritten before helpers run
        from byzreg.engine import Scripted

        history = run(CFG_BW, strategies, wl, Scripted(steps=("w",) * 18, then="stop"),
                      1000, raise_on_limit=False)
        stabs = Analysis(history).stabilizations
        assert [s.value for s in stabs] == [TaggedValue(0, b"init")]

    def test_stale_counter_reuses_k(self):
        wl = Workload.make(writes=[b"p", b"q"])
        strategies = StrategyAssignment(writer=StaleCounter(k=7))
        history = run(CFG_BW, strategies, wl, RoundRobin(), 6000,
                      settle_steps=400, raise_on_limit=False)
        init_values = {
            ev.value
            for ev in history.trace
            if ev.op == "write" and FAMILY[ev.reg] is Family.INIT
        }
        assert init_values == {TaggedValue(7, b"p"), TaggedValue(7, b"q")}

    def test_byz_writer_step_driver(self):
        cfg = CFG_BW
        ring = make_keyring(cfg, "keyed", 0)
        bank = bank_init(cfg, b"init", ring)
        machine = ByzWriterMachine(cfg, PartialQuorum.make({1, 2, 3}), [b"x"])
        sim = Simulation(cfg, {WRITER: machine}, bank)
        while not machine.done():
            sim.step_process(WRITER)
        kinds = [e.kind for e in sim.recorder.events]
        assert kinds == ["invoke", "response"]
        assert cell(bank, init_reg(1)) == TaggedValue(1, b"x")
        assert cell(bank, init_reg(4)) == TaggedValue(0, b"init")


class TestReaderStrategies:
    def test_fake_stamp_accepted_and_checks_still_pass(self):
        cfg = Config(4, 1)
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 2}, read_gap=1)
        strategies = StrategyAssignment(readers={4: FakeWitnessStamp(offset=10)})
        history = run(cfg, strategies, wl, SeededRandom(seed=6), 40000, key_seed=6,
                      settle_steps=300, raise_on_limit=False)
        report = checker.run_all_checks(history, strategies.byzantine_readers())
        assert not report.violations()
        # the inflated stamp really entered some stabilized core
        inflated = [
            s for s in report.stabilizations
            if s.pt.mapping().get(4) is not None and s.pt.mapping().get(4) > 5
        ]
        assert inflated

    def test_forged_inform_sets_ignored(self):
        cfg = Config(4, 1)
        wl = Workload.make(writes=[b"a"], reads={1: 2}, read_gap=1)
        strategies = StrategyAssignment(readers={4: ForgeInformSet()})
        history = run(cfg, strategies, wl, SeededRandom(seed=3), 40000, key_seed=3,
                      settle_steps=300, raise_on_limit=False)
        report = checker.run_all_checks(history, strategies.byzantine_readers())
        assert not report.violations()
        assert all(s.value.u != b"forged-0" for s in report.stabilizations)

    def test_forged_run_digest_independent_of_hash_seed(self):
        script = (
            "from byzreg.adversary import ForgeInformSet, StrategyAssignment\n"
            "from byzreg.core import Config\n"
            "from byzreg.engine import SeededRandom, Workload, run\n"
            "wl = Workload.make(writes=[b'a'], reads={1: 2}, read_gap=1)\n"
            "strategies = StrategyAssignment(readers={4: ForgeInformSet()})\n"
            "history = run(Config(4, 1), strategies, wl, SeededRandom(seed=3), 40000,\n"
            "              key_seed=3, settle_steps=300, raise_on_limit=False)\n"
            "print(history.digest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for hash_seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_collaborator_completes_partial_write(self):
        # the value goes to two correct readers only; the collaborator's
        # dated claim is the third leg of the quorum
        cfg = Config(4, 1, writer_byzantine=True)
        wl = Workload.make(writes=[b"x"], reads={1: 3, 2: 3}, read_gap=2)
        strategies = StrategyAssignment(
            writer=PartialQuorum.make({1, 2}),
            readers={4: CollaborateStabilize()},
        )
        history = run(cfg, strategies, wl, RoundRobin(), 30000,
                      settle_steps=800, raise_on_limit=False)
        report = checker.run_all_checks(history, strategies.byzantine_readers())
        x = TaggedValue(1, b"x")
        assert report.classification.kind_of(x) is Kind.PSEUDO_CORRECT
        assert not report.violations()
        assert any(v == x for _, v in returned_reads(history))

    def test_without_collaborator_partial_two_writer_never_stabilizes(self):
        cfg = Config(4, 1, writer_byzantine=True)
        wl = Workload.make(writes=[b"x"], reads={1: 2}, read_gap=1)
        strategies = StrategyAssignment(writer=PartialQuorum.make({1, 2}))
        history = run(cfg, strategies, wl, RoundRobin(), 20000,
                      settle_steps=800, raise_on_limit=False)
        stabs = Analysis(history).stabilizations
        assert all(s.value != TaggedValue(1, b"x") for s in stabs)


class TestScriptedScenarios:
    def test_pseudo_correct_script(self):
        s = scenario_pseudo_correct()
        history = run_scripted(s)
        assert history.status == s.expected_status
        report = checker.run_all_checks(history, s.strategies.byzantine_readers())
        assert sorted(report.violations()) == sorted(s.expected_violations)
        x = TaggedValue(1, b"x")
        assert report.classification.kind_of(x) is Kind.PSEUDO_CORRECT
        assert any(v == x for _, v in returned_reads(history))

    def test_pseudo_correct_overwrite_script(self):
        s = scenario_pseudo_correct_overwrite()
        history = run_scripted(s)
        assert history.status == "completed"
        report = checker.run_all_checks(history, s.strategies.byzantine_readers())
        x = TaggedValue(1, b"x")
        assert all(v != x for _, v in returned_reads(history))
        assert all(ev.value != x for ev in report.stabilizations)
        assert not report.violations()

    def test_alternation_script(self):
        s = scenario_alternation()
        history = run_scripted(s)
        assert history.status == "completed"
        report = checker.run_all_checks(history, s.strategies.byzantine_readers())
        assert set(report.violations()) == set(s.expected_violations)
        assert "genuine_advance" in report.violations()
        a, b = TaggedValue(1, b"va"), TaggedValue(2, b"vb")
        seq = [v for _, v in returned_reads(history) if v in (a, b)]
        dedup = [seq[0]] + [v for i, v in enumerate(seq[1:], 1) if v != seq[i - 1]]
        assert len(dedup) - 1 >= 3  # at least three alternating returns

    def test_alternation_replayable(self):
        s = scenario_alternation()
        assert run_scripted(s).digest() == run_scripted(s).digest()

    def test_forged_quorum_script(self):
        s = scenario_forged_quorum()
        history = run_scripted(s)
        assert history.status == "protocol_violation"
        assert "concurrent_final_sets" in history.violation
        report = checker.run_all_checks(history, s.strategies.byzantine_readers())
        assert "total_order" in report.violations()
        values = {str(ev.value) for ev in report.stabilizations}
        assert "<1,qa>" in values and "<2,qb>" in values

    def test_scenario_registry_complete(self):
        assert set(SCENARIO_SCRIPTS) == {
            "pseudo_correct",
            "pseudo_correct_overwrite",
            "alternation_n3t1",
            "forged_quorum_n4t2",
        }

    def test_rewriting_same_value_never_restabilizes(self):
        # the same <k,u> written twice is not "newly written" the second
        # time: no re-witnessing, no duplicate stabilization, in any
        # interleaving of a micro instance
        from byzreg.engine import enumerate_schedules

        cfg = Config(2, 0, writer_byzantine=True)
        wl = Workload.make(writes=[b"x", b"x"])
        strategies = StrategyAssignment(writer=StaleCounter(k=1))
        x = TaggedValue(1, b"x")
        total = 0
        for history in enumerate_schedules(
            cfg, wl, depth_bound=80, strategies=strategies, node_cap=400_000
        ):
            total += 1
            stabs = Analysis(history).stabilizations
            assert sum(1 for s in stabs if s.value == x) <= 1
            for i in cfg.reader_indices():
                stamps = {
                    ev.value.s
                    for ev in history.trace
                    if ev.op == "write"
                    and FAMILY[ev.reg] is Family.WITNESS
                    and ev.caller.index == i
                }
                assert stamps <= {1}, f"reader {i} re-witnessed: {stamps}"
        assert total > 0

    def test_equal_stamps_different_values_surfaced(self):
        # forged quorums whose stamps coincide: the elimination cannot
        # order them and the run stops with the protocol-breaking marker
        cfg = Config(4, 2)
        a, b = TaggedValue(1, b"qa"), TaggedValue(2, b"qb")
        same = ((3, 1), (4, 1))
        strategies = StrategyAssignment(
            readers={
                3: QuorumForger(partner=4, lead_value=a, lead_stamps=same,
                                other_value=b, other_stamps=same),
                4: QuorumForger(partner=3, lead_value=b, lead_stamps=same,
                                other_value=a, other_stamps=same),
            }
        )
        wl = Workload.make(writes=[], reads={1: 1})
        history = run(cfg, strategies, wl, RoundRobin(), 10000, raise_on_limit=False)
        assert history.status == "protocol_violation"
        assert "equal_stamps_different_value" in history.violation
