"""Writer and reader machines driven step by step against a bank, plus
find_latest behavior."""

from __future__ import annotations

import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from byzreg.core import (
    Config,
    InformSet,
    InvalidInformSet,
    ProcessId,
    TaggedValue,
    WitnessEntry,
    WitnessSet,
    WRITER,
    common_value,
    ws_of,
)
from byzreg.adversary import Equivocate, FakeWitnessStamp, StrategyAssignment
from byzreg.checker import Analysis
from byzreg.crypto import (
    RING_CACHE_SIZE,
    KeyRing,
    make_keyring,
    sign_entries,
    verify_witness_set,
)
from byzreg.engine import HistoryRecorder, SeededRandom, Simulation, Workload, run
from byzreg.protocol import (
    R_ACK1,
    R_ACK2,
    R_CWIT,
    R_RFIN,
    R_RINF,
    R_WFIN,
    R_WINF,
    R_WWIT,
    W_POLL,
    ConcurrentFinalSets,
    ReaderMachine,
    WriterMachine,
    find_latest,
    form_inform_set,
    latest_quorum_group,
)
from byzreg.registers import (
    ack_reg,
    bank_init,
    Raw,
    final_reg,
    init_reg,
    inform_reg,
    witness_reg,
)

from test_registers import cell

CFG = Config(4, 1)
U0 = b"init"


@pytest.fixture
def world():
    ring = make_keyring(CFG, "keyed", 0)
    bank = bank_init(CFG, U0, ring)
    return CFG, ring, bank


def drive(machine, bank, recorder, steps=1):
    """Step the machine in place, through the engine's own op dispatch,
    recording into ``recorder``."""
    sim = Simulation(machine.cfg, {machine.pid: machine}, bank)
    sim.recorder = recorder
    for _ in range(steps):
        sim.step_process(machine.pid)


def run_full_iteration(reader, bank, recorder, max_steps=60):
    """Advance a reader machine through exactly one helper iteration."""
    from byzreg.protocol import R_INIT

    drive(reader, bank, recorder)  # leave the R_INIT state
    steps = 1
    while reader.phase != R_INIT:
        drive(reader, bank, recorder)
        steps += 1
        assert steps < max_steps
    return steps


def ack_of(bank, i):
    return cell(bank, ack_reg(i))


class TestWriter:
    def test_counter_starts_at_one_and_increases(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        w = WriterMachine(cfg, ring, [b"a", b"b", b"c"])
        drive(w, bank, rec)  # first init write of WRITE("a")
        assert w.pending == TaggedValue(1, b"a")
        assert cell(bank, init_reg(1)) == TaggedValue(1, b"a")
        # complete by faking fresh acks from three readers
        for i in (1, 2, 3):
            drive(w, bank, rec, steps=3)  # remaining init writes then polls
            bank.write(ack_reg(i), TaggedValue(1, b"a"), ProcessId.reader(i))
        while w.pending is not None:
            drive(w, bank, rec)
        drive(w, bank, rec)  # begins WRITE("b")
        assert w.pending == TaggedValue(2, b"b")

    def test_needs_quorum_of_fresh_acks(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        w = WriterMachine(cfg, ring, [b"a"])
        drive(w, bank, rec, steps=4)  # all four init writes
        kv = TaggedValue(1, b"a")
        # stale cells: rewrite nothing; polling must not complete
        for _ in range(12):
            drive(w, bank, rec)
        assert w.pending == kv
        # two fresh acks are not enough
        for i in (1, 2):
            bank.write(ack_reg(i), kv, ProcessId.reader(i))
        for _ in range(12):
            drive(w, bank, rec)
        assert w.pending == kv and len(w.acked) == 2
        # the third fresh ack completes the write
        bank.write(ack_reg(3), kv, ProcessId.reader(3))
        for _ in range(4):
            if w.pending is None:
                break
            drive(w, bank, rec)
        assert w.pending is None
        events = rec.events
        assert [e.kind for e in events] == ["invoke", "response"]

    def test_stale_identical_ack_not_counted(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        # pre-seed an ack cell with the exact value the writer will write
        bank.write(ack_reg(1), TaggedValue(1, b"a"), ProcessId.reader(1))
        w = WriterMachine(cfg, ring, [b"a"])
        drive(w, bank, rec, steps=4)
        for _ in range(12):
            drive(w, bank, rec)
        # reader 1's cell matches but was written before this W began
        assert 1 not in w.acked
        assert w.pending is not None

    def test_poll_target_found_once_per_poll(self, monkeypatch):
        # next_op picks the ack register to poll; apply reads the reader
        # from the op instead of searching again
        poll_target = WriterMachine._poll_target
        calls = []

        def counting(self):
            calls.append(None)
            return poll_target(self)

        monkeypatch.setattr(WriterMachine, "_poll_target", counting)
        wl = Workload.make(writes=[b"a", b"b", b"c"], reads={1: 2, 3: 1}, read_gap=1)
        history = run(Config(4, 0), None, wl, SeededRandom(seed=2), 100_000)
        polls = sum(1 for ev in history.trace if ev.op == "read" and ev.caller == WRITER)
        assert polls > 3
        assert len(calls) == polls


class TestInitialState:
    def test_bank_readers_and_checker_start_from_one_state(self, world):
        # every reader's local variables are the bank's very initial
        # cells, and so is the checker's initial stabilization
        cfg, ring, bank = world
        cells = bank.cells
        for i in cfg.reader_indices():
            r = ReaderMachine(cfg, ring, U0, i)
            assert r.last_init is cells[init_reg(i)]
            assert r.last_ack is cells[init_reg(i)]
            for j in cfg.reader_indices():
                assert r.t_witness[j] is cells[witness_reg(j, i)]
                assert r.t_inform[j] is cells[inform_reg(j, i)]
                assert r.inform_set is cells[final_reg(j, i)]
        history = run(cfg, None, Workload.make(writes=[b"a"], reads={1: 1}),
                      SeededRandom(seed=1), 20000, u0=U0)
        assert history.keyring() is ring
        assert Analysis(history).stabilizations[0].value is cells[init_reg(1)]


class TestReaderIteration:
    def test_quiescent_iteration_changes_no_register_value(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 1)
        before = {reg: cell(bank, reg) for reg in range(len(bank.cells))}
        run_full_iteration(r, bank, rec)
        after = {reg: cell(bank, reg) for reg in range(len(bank.cells))}
        assert before == after

    def test_new_init_bumps_s_once_and_broadcasts(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 2)
        kv = TaggedValue(1, b"a")
        bank.write(init_reg(2), kv, WRITER)
        run_full_iteration(r, bank, rec)
        assert r.s == 1
        assert r.last_init == kv
        entry = WitnessEntry(kv, 1, 2)
        for j in cfg.reader_indices():
            assert cell(bank, witness_reg(2, j)) == entry
        # a second iteration with an unchanged cell does not bump s
        run_full_iteration(r, bank, rec)
        assert r.s == 1

    def test_value_flap_bumps_twice(self, world):
        # A then B then A again: each overwrite of a different value counts,
        # per a step-through of the change-detection rule
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 1)
        a = TaggedValue(1, b"a")
        b = TaggedValue(2, b"b")
        bank.write(init_reg(1), a, WRITER)
        run_full_iteration(r, bank, rec)
        bank.write(init_reg(1), b, WRITER)
        run_full_iteration(r, bank, rec)
        bank.write(init_reg(1), a, WRITER)
        run_full_iteration(r, bank, rec)
        assert r.s == 3
        assert r.t_witness[1] == WitnessEntry(a, 3, 1)

    def test_collect_accepts_fresh_rejects_regressed(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 1)
        fresh = WitnessEntry(TaggedValue(1, b"a"), 2, 3)
        bank.write(witness_reg(3, 1), fresh, ProcessId.reader(3))
        run_full_iteration(r, bank, rec)
        assert r.t_witness[3] == fresh
        # regression: lower stamp from the same source
        stale = WitnessEntry(TaggedValue(1, b"a"), 1, 3)
        bank.write(witness_reg(3, 1), stale, ProcessId.reader(3))
        run_full_iteration(r, bank, rec)
        assert r.t_witness[3] == fresh
        assert 3 in r.suspected

    def test_equal_stamp_same_tuple_not_suspected(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 1)
        run_full_iteration(r, bank, rec)  # sees the initial entries again
        assert r.suspected == set()

    def test_equal_stamp_different_tuple_suspected(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 1)
        fresh = WitnessEntry(TaggedValue(1, b"a"), 2, 3)
        bank.write(witness_reg(3, 1), fresh, ProcessId.reader(3))
        run_full_iteration(r, bank, rec)
        twin = WitnessEntry(TaggedValue(9, b"zz"), 2, 3)
        bank.write(witness_reg(3, 1), twin, ProcessId.reader(3))
        run_full_iteration(r, bank, rec)
        assert r.t_witness[3] == fresh
        assert 3 in r.suspected

    def test_malformed_witness_cell_suspected(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 1)
        bank.write(witness_reg(3, 1), Raw(b"garbage bytes"), ProcessId.reader(3))
        run_full_iteration(r, bank, rec)
        assert 3 in r.suspected


class TestFormation:
    def test_quorum_group_detection(self):
        v = TaggedValue(1, b"a")
        t_witness = {
            1: WitnessEntry(v, 1, 1),
            2: WitnessEntry(v, 1, 2),
            3: WitnessEntry(v, 1, 3),
            4: WitnessEntry(TaggedValue(0, U0), 0, 4),
        }
        got = latest_quorum_group(t_witness, CFG)
        assert got is not None
        value, entries = got
        assert value == v and len(entries) == 3

    def test_split_two_two_no_group(self):
        a = TaggedValue(1, b"a")
        b = TaggedValue(2, b"b")
        t_witness = {
            1: WitnessEntry(a, 1, 1),
            2: WitnessEntry(a, 1, 2),
            3: WitnessEntry(b, 1, 3),
            4: WitnessEntry(b, 1, 4),
        }
        assert latest_quorum_group(t_witness, CFG) is None

    def test_form_inform_needs_quorum_of_members(self):
        ring = make_keyring(CFG, "keyed", 0)
        v = TaggedValue(1, b"a")
        entries = [WitnessEntry(v, 1, p) for p in (1, 2, 3)]
        two = [sign_entries(ring, i, entries) for i in (1, 2)]
        assert form_inform_set(two, CFG) is None
        three = two + [sign_entries(ring, 3, entries)]
        formed = form_inform_set(three, CFG)
        assert formed is not None
        iset, value = formed
        assert value == v and len(iset.members) == 3

    def test_form_inform_takes_maximal_member_set(self):
        ring = make_keyring(CFG, "keyed", 0)
        v = TaggedValue(1, b"a")
        entries = [WitnessEntry(v, 1, p) for p in (1, 2, 3)]
        members = [sign_entries(ring, i, entries) for i in (1, 2, 3, 4)]
        formed = form_inform_set(members, CFG)
        assert formed is not None and len(formed[0].members) == 4

    def test_fault_free_n13_returns_every_member(self):
        cfg = Config(13, 4)
        ring = make_keyring(cfg, "keyed", 0)
        v = TaggedValue(1, b"a")
        entries = [WitnessEntry(v, 1, p) for p in cfg.reader_indices()]
        members = [sign_entries(ring, i, entries) for i in cfg.reader_indices()]
        formed = form_inform_set(members, cfg)
        assert formed == formed_by_combinations(members, cfg)
        assert formed[0].members == frozenset(members) and formed[1] == v

    def test_conflicting_member_left_out(self):
        cfg = Config(13, 4)
        ring = make_keyring(cfg, "keyed", 0)
        v, w = TaggedValue(1, b"a"), TaggedValue(2, b"b")
        entries = [WitnessEntry(v, 1, p) for p in range(1, 10)]
        members = [sign_entries(ring, i, entries) for i in range(1, 10) if i != 5]
        members.append(sign_entries(ring, 5, [WitnessEntry(w, 2, p) for p in range(1, 10)]))
        members.append(sign_entries(ring, 10, entries))
        with pytest.raises(InvalidInformSet):
            ws_of(InformSet(frozenset(members)), cfg)
        formed = form_inform_set(members, cfg)
        assert formed == formed_by_combinations(members, cfg)
        iset, value = formed
        assert value == v and len(iset.members) == 9
        assert {m.signer for m in iset.members} == set(range(1, 11)) - {5}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_search(self, data):
        cfg, members = data.draw(member_sets())
        assert form_inform_set(members, cfg) == formed_by_combinations(members, cfg)


def formed_by_combinations(members, cfg):
    """The exhaustive search form_inform_set must agree with: every
    quorum-sized subset in combinations() order, each valid one grown
    greedily in signer order, the first largest key winning."""
    members = sorted(frozenset(members), key=lambda m: m.signer)
    if len(members) < cfg.quorum:
        return None
    best = None
    for subset in combinations(members, cfg.quorum):
        try:
            ws_of(InformSet(frozenset(subset)), cfg)
        except InvalidInformSet:
            continue
        chosen = list(subset)
        chosen_signers = {m.signer for m in chosen}
        for m in members:
            if m.signer in chosen_signers:
                continue
            try:
                ws_of(InformSet(frozenset(chosen + [m])), cfg)
            except InvalidInformSet:
                continue
            chosen.append(m)
            chosen_signers.add(m.signer)
        iset = InformSet(frozenset(chosen))
        core = ws_of(iset, cfg)
        v = common_value(core)
        key = (len(chosen), len(core), v.k, v.u)
        if best is None or key > best[0]:
            best = (key, iset, v)
    if best is None:
        return None
    return best[1], best[2]


@st.composite
def member_sets(draw):
    """Witness sets over a core of n entries, a few of them with another
    value or stamp (negative too).  Each member drops a few core entries
    and adds stray entries (any value and stamp, witness indices repeated
    or outside 1..n), some of them shared by every member.  Signers may
    repeat.  Signatures are not checked by formation."""
    n = draw(st.integers(1, 13))
    cfg = Config(n, draw(st.integers(0, n - 1)))
    values = [TaggedValue(1, b"a"), TaggedValue(2, b"b")]
    odd = draw(st.dictionaries(
        st.integers(1, n), st.tuples(st.sampled_from(values), st.integers(-1, 2)), max_size=2
    ))
    core = [WitnessEntry(*odd.get(p, (values[0], 1)), p) for p in range(1, n + 1)]
    strays = draw(st.lists(
        st.builds(
            WitnessEntry, st.sampled_from(values), st.integers(-1, 2), st.integers(0, n + 1)
        ),
        max_size=3,
    ))
    shared = draw(st.sets(st.sampled_from(strays))) if strays else set()
    members = []
    for _ in range(draw(st.integers(0, n + 2))):
        dropped = draw(st.sets(st.integers(0, n - 1), max_size=2))
        entries = {e for p, e in enumerate(core) if p not in dropped} | shared
        if strays:
            entries |= draw(st.sets(st.sampled_from(strays), max_size=1))
        signer = draw(st.integers(1, n))
        signature = draw(st.sampled_from([b"x", b"y"]))
        members.append(WitnessSet(frozenset(entries), signer, signature))
    return cfg, members


def cold(ring):
    """A ring with the same keys and empty memos."""
    return KeyRing(ring.scheme_name, ring._scheme, ring._private, ring._public)


COLLECT_VALUES = [TaggedValue(1, b"a"), TaggedValue(1, b"zz"), TaggedValue(2, b"b")]


@st.composite
def witness_rounds(draw, n):
    """Witness collects: per round and peer, the stored entry itself, an
    undecodable cell, an entry of the round's value or another (an
    equivocation when it shares the counter), or one naming any witness,
    each with a stale, equal or newer stamp."""
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        value = draw(st.sampled_from(COLLECT_VALUES))
        kinds = st.sampled_from(["same", "none", "round", "round", "round", "other", "wrong"])
        rounds.append((value, [
            (draw(kinds), draw(st.sampled_from(COLLECT_VALUES)), draw(st.integers(0, 3)),
             draw(st.integers(1, n)))
            for _ in range(n)
        ]))
        if draw(st.booleans()):
            rounds.append(rounds[-1])  # the same view again: a memo hit
    return rounds


@st.composite
def inform_rounds(draw, n):
    """Inform collects: per round and peer, the stored set itself, an
    undecodable cell, a set signed by the peer over the round's core less
    at most one entry, one signed by another reader, one with a bad
    signature, or one signed on another ring."""
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        value = draw(st.sampled_from(COLLECT_VALUES))
        kinds = st.sampled_from(["same", "none", *["valid"] * 6, "foreign", "badsig", "otherring"])
        drops = st.one_of(st.just(0), st.integers(1, n))  # 0 drops no entry
        rounds.append((value, [(draw(kinds), draw(drops)) for _ in range(n)]))
        if draw(st.booleans()):
            rounds.append(rounds[-1])
    return rounds


class TestCollectEnds:
    """A collect's end is looked up on the ring per view; it must equal
    the direct derivation from that view on a ring with cold memos."""

    CONFIGS = [Config(4, 1), Config(7, 2)]

    def reader(self, cfg, index):
        # one ring for every example, so later examples hit its memos
        ring = make_keyring(cfg, "keyed", 4242)
        return ring, ReaderMachine(cfg, ring, U0, index)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"n{c.n}t{c.t}")
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_witness_collect_end(self, cfg, data):
        index = data.draw(st.integers(1, cfg.n))
        ring, r = self.reader(cfg, index)
        n, direct = cfg.n, cold(ring)
        view, suspected = dict(r.t_witness), set()
        for value, round_ in data.draw(witness_rounds(n)):
            r.phase, r.idx = R_CWIT, 1
            for src, (kind, other, s, p) in enumerate(round_, start=1):
                stored = view[src]
                entry = {
                    "same": r.t_witness[src],
                    "none": None,
                    "round": WitnessEntry(value, s, src),
                    "other": WitnessEntry(other, s, src),
                    "wrong": WitnessEntry(other, s, p),
                }[kind]
                r.apply(None, r.next_op(), entry, None)
                # the collect rule, with no identity shortcut
                if entry is None or entry.p != src:
                    suspected.add(src)
                elif entry.s > stored.s:
                    view[src] = entry
                elif entry.s < stored.s or entry.value != stored.value:
                    suspected.add(src)
            assert list(r.t_witness) == list(range(1, n + 1))
            assert r.t_witness == view and r.suspected == suspected
            group = latest_quorum_group(view, cfg)
            if group is None:
                assert r.phase == R_RFIN
            else:
                assert r.phase == R_WINF
                assert r.witness_set == sign_entries(direct, index, group[1])

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"n{c.n}t{c.t}")
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_inform_collect_end(self, cfg, data):
        index = data.draw(st.integers(1, cfg.n))
        ring, r = self.reader(cfg, index)
        n, direct = cfg.n, cold(ring)
        other_ring = make_keyring(cfg, "keyed", 4243)
        view, suspected = dict(r.t_inform), set()
        for value, round_ in data.draw(inform_rounds(n)):
            r.phase, r.idx = R_RINF, 1
            core = [WitnessEntry(value, 1, p) for p in range(1, n + 1)]
            for src, (kind, drop) in enumerate(round_, start=1):
                entries = [e for e in core if e.p != drop]
                wset = {
                    "same": r.t_inform[src],
                    "none": None,
                    "valid": sign_entries(ring, src, entries),
                    "foreign": sign_entries(ring, src % n + 1, entries),
                    "badsig": WitnessSet(frozenset(entries), src, b"bad"),
                    "otherring": sign_entries(other_ring, src, entries),
                }[kind]
                r.apply(None, r.next_op(), wset, None)
                # the collect rule, verified on cold memos
                if wset is None or wset.signer != src or not verify_witness_set(direct, wset):
                    wset = None
                    suspected.add(src)
                view[src] = wset
            assert list(r.t_inform) == list(range(1, n + 1))
            assert r.t_inform == view and r.suspected == suspected
            formed = form_inform_set([w for w in view.values() if w is not None], cfg)
            if formed is None:
                assert r.phase == R_RFIN
            else:
                assert r.phase == R_WFIN
                assert (r.inform_set, r.form_value) == formed


class TestFindLatest:
    def _iset(self, ring, stamps, value):
        entries = [WitnessEntry(value, s, p) for p, s in stamps.items()]
        return InformSet(
            frozenset(sign_entries(ring, i, entries) for i in (1, 2, 3))
        )

    def test_singleton(self, world):
        cfg, ring, bank = world
        a = self._iset(ring, {1: 1, 2: 1, 3: 1}, TaggedValue(1, b"a"))
        assert find_latest([a], cfg, ring) is a

    def test_later_stamps_win(self, world):
        cfg, ring, _ = world
        a = self._iset(ring, {1: 1, 2: 1, 3: 1}, TaggedValue(1, b"a"))
        b = self._iset(ring, {1: 2, 2: 2, 3: 2}, TaggedValue(2, b"b"))
        assert find_latest([a, b], cfg, ring) is b
        assert find_latest([b, a], cfg, ring) is b

    def test_equal_keeps_first_operand(self, world):
        cfg, ring, _ = world
        v = TaggedValue(1, b"a")
        entries = [WitnessEntry(v, 1, p) for p in (1, 2, 3)]
        a = InformSet(frozenset(sign_entries(ring, i, entries) for i in (1, 2, 3)))
        b = InformSet(frozenset(sign_entries(ring, i, entries) for i in (2, 3, 4)))
        assert find_latest([a, b], cfg, ring) is a
        assert find_latest([b, a], cfg, ring) is b

    def test_concurrent_raises(self, world):
        # hand-forged pair only constructible below the n > 2t threshold
        cfg22 = Config(4, 2)
        ring = make_keyring(cfg22, "keyed", 0)
        a = InformSet(frozenset(
            sign_entries(ring, i, [WitnessEntry(TaggedValue(1, b"a"), 2, 3),
                                   WitnessEntry(TaggedValue(1, b"a"), 1, 4)])
            for i in (3, 4)
        ))
        b = InformSet(frozenset(
            sign_entries(ring, i, [WitnessEntry(TaggedValue(2, b"b"), 1, 3),
                                   WitnessEntry(TaggedValue(2, b"b"), 2, 4)])
            for i in (3, 4)
        ))
        with pytest.raises(ConcurrentFinalSets):
            find_latest([a, b], cfg22, ring)

    def test_order_insensitive_for_comparable_sets(self, world):
        import itertools

        cfg, ring, _ = world
        sets = [
            self._iset(ring, {1: s, 2: s, 3: s}, TaggedValue(s, b"v%d" % s))
            for s in (1, 2, 3)
        ]
        for perm in itertools.permutations(sets):
            assert find_latest(list(perm), cfg, ring) is sets[2]


class TestReadBookkeeping:
    def test_no_writes_read_returns_initial(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 1, reads=1)
        run_full_iteration(r, bank, rec)
        events = rec.events
        assert [e.kind for e in events] == ["invoke", "response"]
        assert events[-1].value == TaggedValue(0, U0)

    def test_read_gap_skips_iterations(self, world):
        cfg, ring, bank = world
        rec = HistoryRecorder()
        r = ReaderMachine(cfg, ring, U0, 1, reads=2, read_gap=2)
        for _ in range(5):
            run_full_iteration(r, bank, rec)
        kinds = [e.kind for e in rec.events]
        # read, two gap iterations, read
        assert kinds == ["invoke", "response", "invoke", "response"]
        assert r.done()


@pytest.mark.parametrize("tabled", [False, True], ids=["in_place", "tabled"])
class TestDeadVariables:
    """A variable that no later step reads before it sets it again holds
    its initial value from the step that ends its live range on, so
    states with equal futures have equal keys."""

    # each reset variable and the phases it is live in: its live range
    # ends when its machine leaves them
    WRITER_VARS = {"acked": {W_POLL}, "poll_from": {W_POLL}}
    READER_VARS = {
        "pending_entry": {R_WWIT},
        "form_value": {R_WFIN, R_ACK1},
        "z_list": {R_RFIN},
    }

    def test_dead_variables_hold_initial_values(self, tabled):
        ring = make_keyring(CFG, "keyed", 0)

        def machines():
            readers = {
                ProcessId.reader(i): ReaderMachine(CFG, ring, U0, i, reads=2, read_gap=1)
                for i in CFG.reader_indices()
            }
            return {WRITER: WriterMachine(CFG, ring, [b"a", b"b"]), **readers}

        initial = machines()
        sim = Simulation(CFG, machines(), bank_init(CFG, U0, ring))
        if tabled:
            sim._tabulate()
        ended = set()
        rng = random.Random(4)
        for _ in range(3000):
            pid = rng.choice(sim.enabled_pids())
            before = sim.machines[pid].phase
            sim.step_process(pid)
            machine = sim.machines[pid]
            live = self.WRITER_VARS if pid == WRITER else self.READER_VARS
            for name, phases in live.items():
                if machine.phase not in phases:
                    assert getattr(machine, name) == getattr(initial[pid], name), name
                    if before in phases:
                        ended.add(name)
            if pid == WRITER and before == W_POLL and machine.phase != W_POLL:
                assert sim.recorder.events[-1].kind == "response"
        # every live range ended at least once: the writer responded, and
        # readers left R_WWIT, R_ACK1 and R_RFIN
        assert ended == {*self.WRITER_VARS, *self.READER_VARS}
        assert sim.workload_complete()


def fresh_key_run(strategy, key_seed):
    """One seeded run at n=4, t=1 with a Byzantine reader 4, on the keys
    of ``key_seed`` (criterion 3's workload); the history is dropped."""
    wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 2, 3: 1}, read_gap=2)
    run(CFG, StrategyAssignment(readers={4: strategy}), wl, SeededRandom(seed=key_seed),
        100_000, key_seed=key_seed, settle_steps=200, raise_on_limit=False)


class TestMemoLifetime:
    """The protocol keeps no memo of its own: every memo of a signed value
    lives on its key ring and goes with it, the witness sets and inform
    sets a collect's end derives per view among them."""

    FRESH = 1 << 40  # key seeds no other test uses

    def test_memos_die_with_their_ring(self, monkeypatch):
        adoptions = []
        ack2 = ReaderMachine._APPLY[R_ACK2]
        monkeypatch.setitem(
            ReaderMachine._APPLY, R_ACK2, lambda *args: adoptions.append(1) or ack2(*args)
        )
        seed = self.FRESH + 2  # a schedule in which readers adopt
        fresh_key_run(FakeWitnessStamp(offset=10), seed)
        ring = make_keyring(CFG, "keyed", seed)
        assert ring.formed and adoptions  # formation and adoption both ran
        refs = [weakref.ref(w) for w in ring.signed.values()]
        view_refs = [weakref.ref(w) for w in ring.witnessed.values() if w is not None]
        view_refs += [weakref.ref(f[0]) for f in ring.formed.values() if f is not None]
        assert view_refs
        del ring
        for k in range(1, RING_CACHE_SIZE + 9):
            fresh_key_run(FakeWitnessStamp(offset=10), seed + k)
        gc.collect()
        alive = sum(r() is not None for r in refs)
        assert alive == 0, f"{alive} of {len(refs)} witness sets outlive their ring"
        alive = sum(r() is not None for r in view_refs)
        assert alive == 0, f"{alive} of {len(view_refs)} collect ends outlive their ring"

    def test_formation_leaves_no_reference_cycle(self):
        strategies = [FakeWitnessStamp(offset=10), Equivocate.make({1: b"zz", 2: b"qq"})]
        seed = self.FRESH + 100
        gc.collect()
        gc.disable()
        try:
            # fresh keys, so every formation misses the ring's memo
            for k, strategy in enumerate(strategies * 3):
                fresh_key_run(strategy, seed + k)
            assert gc.collect() == 0
        finally:
            gc.enable()
