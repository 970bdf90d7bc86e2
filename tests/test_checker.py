"""Checker: stabilization detection, classification, ordering, timestamp
reconstruction, read-facing properties and the linearization builder.

Positive paths come from real engine runs; violation paths come from
hand-crafted traces and histories the protocol itself would never
produce.
"""

from __future__ import annotations

import functools
import json
import sys

import pytest

from byzreg import checker, registers
from byzreg.adversary import SplitValue, StrategyAssignment
from byzreg.checker import (
    Analysis,
    InvariantBroken,
    Kind,
    StabilizationEvent,
    Verdict,
    brute_force_linearizable,
    build_byzantine_linearization,
    build_full_timestamps,
    check_genuine_advance,
    check_total_order,
    check_total_ordering_reads,
    check_view_consistency,
    detect_stabilizations,
    run_all_checks,
    sort_stabilizations,
)
from byzreg.core import (
    Config,
    InformSet,
    PartialTimestamp,
    ProcessId,
    TaggedValue,
    WitnessEntry,
    WRITER,
)
from byzreg.crypto import make_keyring, sign_entries
from byzreg.engine import (
    ExecutionHistory,
    HliEvent,
    SeededRandom,
    Workload,
    enumerate_schedules,
    run,
)
from byzreg.registers import (
    Raw,
    TraceEvent,
    final_reg,
    init_reg,
)

CFG = Config(4, 1)
U0 = b"init"


def make_stab(value, stamps, step, owner=1, n=4):
    entries = frozenset(WitnessEntry(value, s, p) for p, s in stamps.items())
    return StabilizationEvent(
        value=value,
        ws=entries,
        pt=PartialTimestamp.from_mapping(n, dict(stamps)),
        step=step,
        row_owner=owner,
    )


def fault_free_history(seed=0, writes=(b"a", b"b"), reads=None):
    cfg = Config(4, 0)
    if reads is None:
        reads = {1: 2, 2: 2}
    wl = Workload.make(writes=list(writes), reads=reads, read_gap=1)
    return run(
        cfg, StrategyAssignment(), wl, SeededRandom(seed=seed), 40000, key_seed=seed
    )


class TestDetectStabilizations:
    def test_initial_value_stabilizes_at_step_zero(self):
        history = fault_free_history(writes=(), reads={1: 1})
        stabs = Analysis(history).stabilizations
        assert stabs[0].value == TaggedValue(0, U0)
        assert stabs[0].step == 0

    def test_single_write_yields_one_new_stabilization(self):
        history = fault_free_history(writes=(b"a",), reads={1: 1})
        stabs = Analysis(history).stabilizations
        values = [s.value for s in stabs]
        assert values[0] == TaggedValue(0, U0)
        assert TaggedValue(1, b"a") in values
        non_initial = {s.value for s in stabs if s.value != TaggedValue(0, U0)}
        assert non_initial == {TaggedValue(1, b"a")}

    def test_forged_rows_never_qualify(self):
        cfg = Config(4, 1)
        ring = make_keyring(cfg, "keyed", 0)
        v = TaggedValue(5, b"fake")
        entries = [WitnessEntry(v, 9, p) for p in (1, 2, 3)]
        honest = sign_entries(ring, 1, entries)
        forged = type(honest)(
            entries=frozenset(entries), signer=2, signature=b"nonsense"
        )
        iset = InformSet(frozenset({honest, forged, sign_entries(ring, 3, entries)}))
        trace = [
            TraceEvent(step, "write", final_reg(2, j), iset)
            for step, j in enumerate(cfg.reader_indices(), start=1)
        ]
        stabs = detect_stabilizations(trace, cfg, ring, U0)
        assert [s.value for s in stabs] == [TaggedValue(0, U0)]

    def test_memberless_inform_set_row_at_quorum_zero(self):
        # at t = n the quorum is 0, so an inform set with no members passes
        # the size check; it has no common core and must not stabilize
        cfg = Config(2, 2)
        ring = make_keyring(cfg, "keyed", 0)
        trace = [
            TraceEvent(step, "write", final_reg(1, j), InformSet(frozenset()))
            for step, j in enumerate(cfg.reader_indices(), start=1)
        ]
        stabs = detect_stabilizations(trace, cfg, ring, U0)
        assert [s.value for s in stabs] == [TaggedValue(0, U0)]


class TestClassifyWrites:
    def test_correct_writer_all_correct(self):
        history = fault_free_history()
        classification = Analysis(history).classification
        for v, kind in classification.kinds.items():
            assert kind is Kind.CORRECT, (v, kind)

    def test_two_of_four_split_is_neither_and_never_stabilizes(self):
        cfg = Config(4, 1, writer_byzantine=True)
        wl = Workload.make(writes=[b"x"], reads={1: 2}, read_gap=2)
        strategies = StrategyAssignment(
            writer=SplitValue.make({1: b"a", 2: b"a", 3: b"b", 4: b"b"})
        )
        history = run(
            cfg, strategies, wl, SeededRandom(seed=3), 40000, settle_steps=800,
            raise_on_limit=False,
        )
        analysis = Analysis(history)
        stabs, classification = analysis.stabilizations, analysis.classification
        assert classification.kind_of(TaggedValue(1, b"a")) is Kind.NEITHER
        assert classification.kind_of(TaggedValue(1, b"b")) is Kind.NEITHER
        stab_values = {s.value for s in stabs}
        assert TaggedValue(1, b"a") not in stab_values
        assert TaggedValue(1, b"b") not in stab_values


class TestTotalOrder:
    def test_vacuous_single_stabilization(self):
        stabs = [make_stab(TaggedValue(0, U0), {1: 0, 2: 0, 3: 0, 4: 0}, 0)]
        assert check_total_order(stabs, CFG).passed

    def test_ordered_pair_passes(self):
        stabs = [
            make_stab(TaggedValue(1, b"a"), {1: 1, 2: 1, 3: 1}, 10),
            make_stab(TaggedValue(2, b"b"), {1: 2, 2: 2, 3: 2}, 20),
        ]
        assert check_total_order(stabs, CFG).passed

    def test_concurrent_pair_flagged(self):
        stabs = [
            make_stab(TaggedValue(1, b"a"), {1: 2, 2: 1, 3: 1}, 10),
            make_stab(TaggedValue(2, b"b"), {1: 1, 2: 2, 3: 1}, 20),
        ]
        verdict = check_total_order(stabs, CFG)
        assert verdict.status == "violation"
        assert "concurrent" in verdict.detail


class TestFullTimestamps:
    def test_plain_chain(self):
        # hand-executed reconstruction: copy present components, zero-fill
        stabs = [
            make_stab(TaggedValue(0, U0), {1: 0, 2: 0, 3: 0, 4: 0}, 0),
            make_stab(TaggedValue(1, b"a"), {1: 1, 2: 1, 3: 1}, 10),
            make_stab(TaggedValue(2, b"b"), {1: 2, 2: 2, 3: 2}, 20),
        ]
        chain, _ = build_full_timestamps(stabs, CFG)
        assert [c.vec for c in chain] == [(0, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0)]

    def test_inheritance_of_absent_components(self):
        # absent reader 1 inherits its previous component
        stabs = [
            make_stab(TaggedValue(1, b"a"), {1: 1, 2: 1, 3: 1}, 10),
            make_stab(TaggedValue(2, b"b"), {2: 2, 3: 2, 4: 2}, 20),
        ]
        chain, _ = build_full_timestamps(stabs, CFG)
        assert [c.vec for c in chain] == [(1, 1, 1, 0), (1, 2, 2, 2)]

    def test_empty_chain(self):
        chain, events = build_full_timestamps([], CFG)
        assert chain == [] and events == []

    def test_incomparable_stabs_break_the_invariant(self):
        # the reachable failure mode: a concurrent pair (sub-threshold
        # forgeries) cannot be arranged into a strictly increasing chain
        stabs = [
            make_stab(TaggedValue(1, b"a"), {1: 2, 2: 1, 3: 1}, 10),
            make_stab(TaggedValue(2, b"b"), {1: 1, 2: 2, 3: 1}, 20),
        ]
        with pytest.raises(InvariantBroken):
            build_full_timestamps(stabs, CFG)


class TestTimestampIsomorphism:
    """The chain is checked as it is built (build_full_timestamps): the
    report's verdict is that build's outcome."""

    def test_pass_counts_the_chain(self):
        report = run_all_checks(fault_free_history(seed=3))
        assert all(v.passed for v in report.verdicts.values())
        assert len(report.chain) >= 3
        verdict = report.verdicts["timestamp_isomorphism"]
        assert verdict.detail == f"chain of {len(report.chain)} strictly increasing vectors"

    def test_broken_chain_is_a_violation(self, monkeypatch):
        exc = InvariantBroken("chain not strictly increasing: (1, 2) -> (2, 1) (<1,a>)")

        def broken(ordered, cfg):
            raise exc

        monkeypatch.setattr(checker, "build_full_timestamps", broken)
        report = run_all_checks(fault_free_history(seed=3))
        verdicts = report.verdicts
        assert verdicts["total_order"].passed
        assert verdicts["timestamp_isomorphism"] == Verdict("violation", str(exc))
        assert verdicts["genuine_advance"] == Verdict("violation", f"no chain: {exc}")
        assert verdicts["register_linearizability"].passed
        assert verdicts["byzantine_linearization"].status == "skipped"
        assert report.chain == []


def genuine_advance(stabs, byz_readers, cfg):
    chain, contributing = build_full_timestamps(sort_stabilizations(stabs, cfg), cfg)
    return check_genuine_advance(chain, contributing, byz_readers, cfg)


class TestGenuineAdvance:
    def test_correct_advance_passes(self):
        stabs = [
            make_stab(TaggedValue(1, b"a"), {1: 1, 2: 1, 3: 1}, 10),
            make_stab(TaggedValue(2, b"b"), {1: 2, 2: 2, 3: 2}, 20),
        ]
        assert genuine_advance(stabs, frozenset({4}), CFG).passed

    def test_byzantine_only_advance_flagged(self):
        cfg31 = Config(3, 1)
        stabs = [
            make_stab(TaggedValue(1, b"a"), {1: 1, 3: 1}, 10, n=3),
            make_stab(TaggedValue(2, b"b"), {2: 1, 3: 2}, 20, n=3),
            make_stab(TaggedValue(1, b"a"), {1: 1, 3: 3}, 30, n=3),
        ]
        verdict = genuine_advance(stabs, frozenset({3}), cfg31)
        assert verdict.status == "violation"
        assert "Byzantine" in verdict.detail

    def test_same_value_refresh_is_not_a_link(self):
        stabs = [
            make_stab(TaggedValue(1, b"a"), {1: 1, 2: 1, 3: 1}, 10),
            make_stab(TaggedValue(1, b"a"), {1: 1, 2: 1, 3: 1, 4: 9}, 20),
        ]
        assert genuine_advance(stabs, frozenset({4}), CFG).passed

    def test_vacuous_single(self):
        stabs = [make_stab(TaggedValue(0, U0), {1: 0, 2: 0, 3: 0, 4: 0}, 0)]
        assert genuine_advance(stabs, frozenset(), CFG).passed


def synthetic_history(cfg, events, trace, u0=U0, seed=0):
    return ExecutionHistory(
        cfg=cfg,
        u0=u0,
        hli_events=events,
        register_events=trace,
        status="completed",
        steps=(trace[-1].step + 1) if trace else 0,
        key_seed=seed,
    )


def stab_row_trace(ring, cfg, owner, value, stamps, start_step, signers=(1, 2, 3)):
    entries = [WitnessEntry(value, s, p) for p, s in stamps.items()]
    iset = InformSet(frozenset(sign_entries(ring, i, entries) for i in signers))
    return [
        TraceEvent(start_step + j - 1, "write", final_reg(owner, j), iset)
        for j in cfg.reader_indices()
    ]


class TestRegisterLinearizability:
    def test_read_before_any_write_passes(self):
        history = fault_free_history(writes=(), reads={1: 1, 2: 1})
        report = run_all_checks(history)
        assert report.verdicts["register_linearizability"].passed

    def test_new_old_inversion_detected(self):
        # r1 returns b (later), then r2 returns a (earlier): forbidden
        cfg = Config(4, 1)
        ring = make_keyring(cfg, "keyed", 0)
        a, b = TaggedValue(1, b"a"), TaggedValue(2, b"b")
        trace = []
        trace += stab_row_trace(ring, cfg, 2, a, {1: 1, 2: 1, 3: 1}, 1)
        trace += stab_row_trace(ring, cfg, 1, b, {1: 2, 2: 2, 3: 2}, 10)
        r1, r2 = ProcessId.reader(1), ProcessId.reader(2)
        events = [
            HliEvent(r1, "invoke", "read", None, 15),
            HliEvent(r1, "response", "read", b, 16),
            HliEvent(r2, "invoke", "read", None, 20),
            HliEvent(r2, "response", "read", a, 21),
        ]
        verdict = Analysis(synthetic_history(cfg, events, trace)).register_linearizability()
        assert verdict.status == "violation"
        assert "inversion" in verdict.detail

    def test_initial_after_stabilization_detected(self):
        cfg = Config(4, 1)
        ring = make_keyring(cfg, "keyed", 0)
        a = TaggedValue(1, b"a")
        trace = stab_row_trace(ring, cfg, 1, a, {1: 1, 2: 1, 3: 1}, 1)
        r2 = ProcessId.reader(2)
        events = [
            HliEvent(r2, "invoke", "read", None, 30),
            HliEvent(r2, "response", "read", TaggedValue(0, U0), 40),
        ]
        verdict = Analysis(synthetic_history(cfg, events, trace)).register_linearizability()
        assert verdict.status == "violation"
        assert "initial" in verdict.detail


class TestViewConsistency:
    def test_quiescent_tail_pass(self):
        history = fault_free_history(writes=(b"a",), reads={1: 2, 2: 2})
        assert check_view_consistency(history).passed

    def test_divergence_after_final_value_detected(self):
        cfg = Config(4, 1)
        a, b = TaggedValue(1, b"a"), TaggedValue(2, b"b")
        trace = [
            TraceEvent(0, "write", init_reg(1), b),
        ]
        r1, r2 = ProcessId.reader(1), ProcessId.reader(2)
        events = [
            HliEvent(r1, "invoke", "read", None, 5),
            HliEvent(r1, "response", "read", b, 6),
            HliEvent(r2, "invoke", "read", None, 10),
            HliEvent(r2, "response", "read", a, 11),
        ]
        history = synthetic_history(cfg, events, trace)
        verdict = check_view_consistency(history)
        assert verdict.status == "violation"

    def test_only_the_last_init_write_decides(self):
        # an undecodable init write before the last one does not waive the
        # check; an undecodable last one does
        cfg = Config(2, 0)
        v = TaggedValue(1, b"v")
        garbage = TraceEvent(0, "write", init_reg(1), Raw(b"\xffgarbage"))
        valid = TraceEvent(1, "write", init_reg(2), v)
        r1, r2 = ProcessId.reader(1), ProcessId.reader(2)
        events = [
            HliEvent(r1, "invoke", "read", None, 5),
            HliEvent(r1, "response", "read", v, 6),
            HliEvent(r2, "invoke", "read", None, 10),
            HliEvent(r2, "response", "read", TaggedValue(0, U0), 11),
        ]
        history = synthetic_history(cfg, events, [garbage, valid])
        assert check_view_consistency(history).status == "violation"
        garbage_last = TraceEvent(2, "write", init_reg(1), Raw(b"\xffgarbage"))
        history = synthetic_history(cfg, events, [valid, garbage_last])
        verdict = check_view_consistency(history)
        assert verdict.passed and "undecodable" in verdict.detail

    def test_no_qualifying_read_vacuous(self):
        cfg = Config(4, 1)
        trace = [
            TraceEvent(0, "write", init_reg(1), TaggedValue(1, b"a")),
        ]
        history = synthetic_history(cfg, [], trace)
        verdict = check_view_consistency(history)
        assert verdict.passed


class TestTotalOrderingReads:
    def test_opposite_orders_detected(self):
        cfg = Config(4, 1)
        a, b = TaggedValue(1, b"a"), TaggedValue(2, b"b")
        r1, r2 = ProcessId.reader(1), ProcessId.reader(2)
        events = [
            HliEvent(r1, "invoke", "read", None, 1),
            HliEvent(r1, "response", "read", a, 2),
            HliEvent(r1, "invoke", "read", None, 3),
            HliEvent(r1, "response", "read", b, 4),
            HliEvent(r2, "invoke", "read", None, 1),
            HliEvent(r2, "response", "read", b, 5),
            HliEvent(r2, "invoke", "read", None, 6),
            HliEvent(r2, "response", "read", a, 7),
        ]
        history = synthetic_history(cfg, events, [])
        verdict = check_total_ordering_reads(history)
        assert verdict.status == "violation"

    def test_single_reader_vacuous(self):
        cfg = Config(4, 1)
        r1 = ProcessId.reader(1)
        events = [
            HliEvent(r1, "invoke", "read", None, 1),
            HliEvent(r1, "response", "read", TaggedValue(1, b"a"), 2),
        ]
        assert check_total_ordering_reads(synthetic_history(cfg, events, [])).passed


class TestByzantineLinearization:
    def test_fault_free_matches_real_time_order(self):
        history = fault_free_history(seed=7)
        report = run_all_checks(history)
        assert report.verdicts["byzantine_linearization"].passed
        stabs = Analysis(history).stabilizations
        ops = build_byzantine_linearization(
            history, sort_stabilizations(stabs, history.cfg), history.cfg
        )
        writes = [o for o in ops if o.kind == "write"]
        assert [o.value.k for o in writes] == sorted(o.value.k for o in writes)
        assert all(not o.inserted for o in writes)  # correct writer: real ops
        # cross-check with the independent sequential-extension oracle
        assert brute_force_linearizable(history)

    def test_empty_workload_empty_linearization(self):
        history = fault_free_history(writes=(), reads={})
        stabs = Analysis(history).stabilizations
        ops = build_byzantine_linearization(
            history, sort_stabilizations(stabs, history.cfg), history.cfg
        )
        assert ops == []


class TestBruteForceOracle:
    def _history(self, events):
        return synthetic_history(Config(2, 0), events, [])

    def test_sequential_read_of_written_value(self):
        r1 = ProcessId.reader(1)
        events = [
            HliEvent(WRITER, "invoke", "write", TaggedValue(1, b"a"), 0),
            HliEvent(WRITER, "response", "write", TaggedValue(1, b"a"), 5),
            HliEvent(r1, "invoke", "read", None, 6),
            HliEvent(r1, "response", "read", TaggedValue(1, b"a"), 7),
        ]
        assert brute_force_linearizable(self._history(events))

    def test_stale_read_after_write_rejected(self):
        r1 = ProcessId.reader(1)
        events = [
            HliEvent(WRITER, "invoke", "write", TaggedValue(1, b"a"), 0),
            HliEvent(WRITER, "response", "write", TaggedValue(1, b"a"), 5),
            HliEvent(r1, "invoke", "read", None, 6),
            HliEvent(r1, "response", "read", TaggedValue(0, U0), 7),
        ]
        assert not brute_force_linearizable(self._history(events))

    def test_concurrent_read_may_return_either(self):
        r1 = ProcessId.reader(1)
        for returned in (TaggedValue(0, U0), TaggedValue(1, b"a")):
            events = [
                HliEvent(WRITER, "invoke", "write", TaggedValue(1, b"a"), 0),
                HliEvent(r1, "invoke", "read", None, 1),
                HliEvent(r1, "response", "read", returned, 2),
                HliEvent(WRITER, "response", "write", TaggedValue(1, b"a"), 5),
            ]
            assert brute_force_linearizable(self._history(events))


class TestReportShape:
    def test_records_and_digest_stable(self):
        history = fault_free_history(seed=11)
        r1 = run_all_checks(history)
        r2 = run_all_checks(history)
        assert r1.digest() == r2.digest()
        lines = list(r1.records())
        assert any('"property": "total_order"' in ln for ln in lines)
        # 3n^2+2n registers at n=4
        assert json.loads(lines[0])["report"]["registers"] == 56

    def test_all_properties_reported(self):
        history = fault_free_history(seed=12)
        report = run_all_checks(history)
        assert set(report.verdicts) == set(checker.PROPERTIES)


def count_views(monkeypatch) -> dict[str, int]:
    """Count, from now on, every call of the final-register scan, the
    sort and the chain builder, and every build of a history's cached
    views."""
    counts: dict[str, int] = {}

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_scan_finals", "sort_stabilizations", "build_full_timestamps"):
        monkeypatch.setattr(checker, name, counted(name, getattr(checker, name)))
    for name in ("ops", "completed_reads", "writes", "family_writes"):
        view = getattr(ExecutionHistory, name)
        prop = type(view)(counted(name, view.func))
        prop.__set_name__(ExecutionHistory, name)
        monkeypatch.setattr(ExecutionHistory, name, prop)
    return counts


def test_each_view_derived_once_per_report(monkeypatch):
    history = fault_free_history(seed=3)
    counts = count_views(monkeypatch)
    report = run_all_checks(history)
    assert all(v.passed for v in report.verdicts.values())
    assert counts == {
        "ops": 1,
        "completed_reads": 1,
        "writes": 1,
        "family_writes": 1,
        "_scan_finals": 1,
        "sort_stabilizations": 1,
        "build_full_timestamps": 1,
    }


class TestStaleReads:
    """The substrate check's violation branch: a read whose recorded
    content is not the cell's latest write, whether the run logged it in
    its read log (stepped in place) or as an event of a full trace."""

    @staticmethod
    def stale_read(history):
        """The first read that returned a value written in the run, and
        the initial content of its register, which that write replaced."""
        initial = history.initial.cells
        for ev in history.trace:
            if ev.op == "read" and ev.value != initial[ev.reg]:
                return ev, initial[ev.reg]
        raise AssertionError("no read returned a written value")

    @staticmethod
    def assert_one_stale_read(history, stale):
        got = registers.atomicity_violations(
            history.cfg, history.u0, history.keyring(), history.register_events, history.read_log
        )
        assert got == [stale]
        verdict = run_all_checks(history).verdicts["substrate_atomicity"]
        assert verdict.status == "violation"
        assert verdict.detail == f"1 stale reads, first at step {stale.step}"

    def test_doctored_read_log_entry_is_reported(self):
        history = fault_free_history(seed=5)
        assert history.read_log and run_all_checks(history).verdicts["substrate_atomicity"].passed
        read, old = self.stale_read(history)
        fields = registers.READ_FIELDS
        entries = list(registers.log_reads(history.read_log))
        index = next(
            i for i, (step, reg, _, _) in enumerate(entries) if (step, reg) == (read.step, read.reg)
        )
        history.read_log[index * fields + 2] = old
        del history.trace  # derived before the doctoring
        stale = TraceEvent(read.step, "read", read.reg, old)
        assert stale in history.trace
        self.assert_one_stale_read(history, stale)

    def test_doctored_full_trace_event_is_reported(self):
        history = fault_free_history(seed=5)
        read, old = self.stale_read(history)
        stale = TraceEvent(read.step, "read", read.reg, old)
        full = ExecutionHistory(
            history.cfg, history.u0, history.hli_events,
            [stale if ev is read else ev for ev in history.trace],
            status=history.status, steps=history.steps, key_seed=history.key_seed,
        )
        assert not full.read_log
        self.assert_one_stale_read(full, stale)


# criterion 2's first case: every interleaving of one write and one read at n=1
MICRO = (Config(1, 0), Workload.make(writes=[b"a"], reads={1: 1}), 200)


def test_register_linearizability_scans_the_finals_once(monkeypatch):
    # criterion 2 judges each enumerated history by this verdict alone
    cfg, wl, bound = MICRO
    histories = list(enumerate_schedules(cfg, wl, depth_bound=bound))
    counts = count_views(monkeypatch)
    for history in histories:
        assert Analysis(history).register_linearizability().passed
    assert len(histories) > 1
    assert counts["_scan_finals"] == len(histories)


def test_benchmark_checker_calls_agree_with_analysis():
    # the enumerate_n2 benchmark workload checks each history with these
    # three calls, so a changed signature or result fails it; they must
    # give what Analysis gives
    cfg, wl, bound = MICRO
    total = 0
    for history in enumerate_schedules(cfg, wl, depth_bound=bound):
        total += 1
        ring = history.keyring()
        stabs = checker.detect_stabilizations(history.trace, cfg, ring, history.u0)
        classes = checker.classify_writes(history, stabs, cfg)
        verdict = checker.check_register_linearizability(history, stabs, classes, cfg, ring)
        analysis = Analysis(history)
        assert stabs == analysis.stabilizations
        assert classes == analysis.classification
        assert verdict == analysis.register_linearizability()
    assert total > 1


def count_setup(monkeypatch, u0: bytes) -> dict[str, int]:
    """Count, from now on, every call of registers.final_reg (under each
    name a byzreg module binds it to), every PartialTimestamp.from_mapping
    call and every build of the initial value TaggedValue(0, u0)."""
    counts = {"final_reg": 0, "from_mapping": 0, "initial_value": 0}
    final_reg = registers.final_reg

    @functools.wraps(final_reg)
    def counted_final_reg(*args):
        counts["final_reg"] += 1
        return final_reg(*args)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("byzreg") and getattr(module, "final_reg", None) is final_reg:
            monkeypatch.setattr(module, "final_reg", counted_final_reg)

    from_mapping = PartialTimestamp.from_mapping.__func__

    def counted_from_mapping(cls, n, mapping):
        counts["from_mapping"] += 1
        return from_mapping(cls, n, mapping)

    monkeypatch.setattr(PartialTimestamp, "from_mapping", classmethod(counted_from_mapping))

    post_init = TaggedValue.__post_init__

    def counted_post_init(self):
        post_init(self)
        if self.k == 0 and self.u == u0:
            counts["initial_value"] += 1

    monkeypatch.setattr(TaggedValue, "__post_init__", counted_post_init)
    return counts


def test_report_setup_derived_once_per_ring(monkeypatch):
    # what depends only on (key ring, cfg, u0) is derived with the ring's
    # initial state, so a report on a second history of one ring derives
    # none of it: no final-row layout, one timestamp per new
    # stabilization and at most one initial value
    cfg = Config(4, 0)
    wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 3: 1}, read_gap=1)
    first, second = (
        run(cfg, StrategyAssignment(), wl, SeededRandom(seed=s), 40000, key_seed=9)
        for s in (1, 2)
    )
    assert first.keyring() is second.keyring()
    run_all_checks(first)

    counts = count_setup(monkeypatch, second.u0)
    report = run_all_checks(second)
    assert all(v.passed for v in report.verdicts.values())
    new_stabilizations = len(report.stabilizations) - 1
    assert new_stabilizations >= 2
    assert counts["final_reg"] == 0
    assert counts["from_mapping"] <= new_stabilizations
    assert counts["initial_value"] <= 1


def test_benchmark_checker_calls_derive_no_setup(monkeypatch):
    # the enumerate_n2 benchmark workload's calls on a second history of
    # one ring; each of its two scans of the final registers builds one
    # timestamp per new stabilization at most
    cfg, wl, bound = Config(2, 0), Workload.make(writes=[b"a"], reads={1: 1}), 60
    histories = enumerate_schedules(cfg, wl, depth_bound=bound)
    first, second = next(histories), next(histories)
    assert first.keyring() is second.keyring()

    def bench_calls(history):
        ring = history.keyring()
        stabs = checker.detect_stabilizations(history.trace, cfg, ring, history.u0)
        scanned = counts["from_mapping"]
        classes = checker.classify_writes(history, stabs, cfg)
        verdict = checker.check_register_linearizability(history, stabs, classes, cfg, ring)
        rescanned = counts["from_mapping"] - scanned
        assert verdict.passed and brute_force_linearizable(history)
        return len(stabs) - 1, scanned, rescanned

    counts = {"from_mapping": 0}
    bench_calls(first)
    counts = count_setup(monkeypatch, second.u0)
    new_stabilizations, scanned, rescanned = bench_calls(second)
    assert new_stabilizations >= 1
    assert counts["final_reg"] == 0
    assert scanned <= new_stabilizations and rescanned <= new_stabilizations
    assert counts["initial_value"] <= 1
