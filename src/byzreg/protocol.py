"""Correct writer and reader state machines, plus find_latest.

Each machine is an explicit little program counter over register
operations: the engine asks for the next operation, performs it
atomically against the bank, and hands the result back.  All local
bookkeeping between register operations is folded into the step that
precedes it, so adversarial interleavings can split an iteration at
every point the asynchrony model allows.

Machines deal in values only: a write op carries the value to write,
and ``apply`` gets the value a read returned, or None when the cell
holds bytes that do not decode (see registers.py).

The reader machine runs the helper loop forever.  A high-level read is
one full helper iteration: its invocation is the iteration's first step
and its response the iteration's last, returning the value last written
to the reader's ack register in that iteration (or the cached last ack
when the iteration wrote none).
"""

from __future__ import annotations

import functools
from typing import Sequence

from . import crypto
from .core import (
    Config,
    InformSet,
    OrderVerdict,
    ProcessId,
    TaggedValue,
    WitnessEntry,
    WitnessSet,
    WRITER,
    common_value,
    mapsto_compare,
    ws_of,
)
from .registers import (
    WRITER_END,
    ReadOp,
    RegisterBank,
    WriteOp,
    ack_reg,
    final_reg,
    init_reg,
    inform_reg,
    initial_state,
    validated_final,
    witness_reg,
)


class ConcurrentFinalSets(Exception):
    """find_latest met two incomparable inform sets.

    Unreachable when n > 2t with verified signatures; surfacing it is a
    checker-grade protocol violation, never a silent tie-break.
    """


def find_latest(sets: Sequence[InformSet], cfg: Config, ring: crypto.KeyRing) -> InformSet:
    """Survivor of pairwise common-witness elimination over inform sets.

    The earlier set of each comparable pair is discarded (on Equal, the
    second operand goes).  Every element must pass ``validated_final``
    under the ring, whose memo holds its witness core.
    """
    if not sets:
        raise ValueError("find_latest needs at least one inform set")
    survivor = sets[0]
    for cand in sets[1:]:
        if cand is survivor or cand == survivor:
            continue
        a, b = validated_final(ring, cfg, survivor), validated_final(ring, cfg, cand)
        verdict = mapsto_compare(a, b, cfg)
        if verdict is OrderVerdict.BEFORE:
            survivor = cand
        elif verdict is OrderVerdict.CONCURRENT:
            a = sorted((e.p, e.s) for e in a)
            b = sorted((e.p, e.s) for e in b)
            raise ConcurrentFinalSets(f"stamps {a} vs {b}")
        # AFTER or EQUAL keeps the survivor
    return survivor


class ProcessMachine:
    """One process driven by the engine, one atomic step at a time.

    Who may step is fixed by the model: a reader runs its helper loop
    forever, so it is always enabled, and the writer is enabled exactly
    while it is not ``done``.  ``done`` and ``state_key`` depend only on
    the machine's own state, never on the bank or another machine, so
    they change only when this machine steps.  ``done`` changes only on
    a step that records an invocation or a response (a process is busy
    until its last high-level operation responds), so the engine
    re-evaluates it for the stepped process alone, after such a step.
    Whatever of its future reads the bank beyond its op's result goes in
    ``bank_key``, which depends only on the machine and the write order
    of the registers ``bank_regs`` names, so the enumerator re-derives it
    after a write to one of them or a step of its own process.
    ``state_key`` is derived from the attributes, so equal keys mean
    equal attributes, and a step is a function of the ``state_key``, the
    ``bank_key`` and the read result: the enumerator takes each such step
    once and shares it.  A variable that no later step reads before it
    sets it again is reset to its initial value in the step that ends its
    live range, so states with equal futures have equal keys.

    A machine's state is its attributes, and each of them holds a value:
    a container in it is replaced when it changes, never changed in
    place.  So ``copy.copy`` clones any machine, and a clone stepped
    apart leaves its origin as it was.  Only ``apply`` changes a machine:
    ``next_op`` only reads it and is passed nothing, so an op is a function
    of the machine alone: the enumerator asks each canonical machine once.
    Memos of pure functions of the keys live on the key ring, not on a machine.
    """

    pid: ProcessId

    def __copy__(self):
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def done(self) -> bool:
        """True when this process has no outstanding high-level workload."""
        raise NotImplementedError

    def next_op(self):
        raise NotImplementedError

    def apply(self, bank: RegisterBank, op, result, recorder) -> None:
        """Take the step ``op`` began; ``result`` is the value a read
        returned (None for a cell whose bytes do not decode, and for
        any other op)."""
        raise NotImplementedError

    def state_key(self):
        """The machine's class and its attribute values, in the order
        ``__init__`` sets them, a dict as its items in key order: two
        machines with equal keys have equal attributes, so they behave
        alike from here on, given equal banks.  Every attribute is
        hashable (the key ring by identity) and set in ``__init__``."""
        return (type(self), *[
            tuple(sorted(v.items())) if type(v) is dict else v
            for v in self.__dict__.values()
        ])

    def bank_key(self, bank: RegisterBank):
        """The part of the machine's future behaviour that reads the bank
        beyond its op's result (re-derived after a step of its own
        process or a write to one of its ``bank_regs``)."""
        return ()

    def bank_regs(self) -> tuple[int, ...]:
        """The registers whose write order ``bank_key`` reads: a write to
        any other register leaves every machine's bank key as it was."""
        return ()


@functools.cache
def machine_layout(n: int) -> tuple[tuple, ...]:
    """The register ids and read ops of every correct machine at n
    readers, built once per n and shared by every machine: ops are never
    changed once built, so every read of a register returns one op.

    Position 0 holds the writer's (init registers, ack registers, ack
    reads), position i reader i's (init read, witness reads, inform
    reads, final reads, ack register, witness registers, inform
    registers, final registers); peer j's item of each tuple is at
    position j - 1.
    """
    readers = range(1, n + 1)
    ack_regs = tuple(ack_reg(i) for i in readers)
    writer = (tuple(init_reg(i) for i in readers), ack_regs, tuple(map(ReadOp, ack_regs)))
    return writer, *[
        (
            ReadOp(init_reg(r)),
            tuple(ReadOp(witness_reg(i, r)) for i in readers),
            tuple(ReadOp(inform_reg(i, r)) for i in readers),
            tuple(ReadOp(final_reg(i, r)) for i in readers),
            ack_reg(r),
            tuple(witness_reg(r, i) for i in readers),
            tuple(inform_reg(r, i) for i in readers),
            tuple(final_reg(r, i) for i in readers),
        )
        for r in readers
    ]


_UNSEEN = object()  # a memo lookup's miss


# Writer phases
W_IDLE = 0
W_INIT = 1
W_POLL = 2


class WriterMachine(ProcessMachine):
    """The correct write protocol: broadcast to every init register in
    ascending order, then poll ack registers round-robin until n-t
    distinct readers have freshly acknowledged the pending value.

    An ack is fresh when it was written after the pending write began.
    The writer writes ``init[w->r1]`` only in the first step of each
    write, so an ack is fresh when its register's bank write sequence
    number is above that of ``init[w->r1]``.
    """

    def __init__(self, cfg: Config, ring: crypto.KeyRing, writes: Sequence[bytes]):
        self.cfg = cfg
        self.ring = ring
        self.pid = WRITER
        self.writes = tuple(bytes(w) for w in writes)
        # the writes begun (the last one's counter), the pending value and
        # the readers that acked it
        self.widx = 0
        self.pending: TaggedValue | None = None
        self.acked: frozenset[int] = frozenset()
        self.phase = W_IDLE
        self.wi = 1
        self.poll_from = 1
        # reader i's init and ack registers, and the op that polls its
        # ack register, at position i - 1
        self.init_regs, self.ack_regs, self.ack_reads = machine_layout(cfg.n)[0]

    def done(self):
        return self.phase == W_IDLE and self.widx >= len(self.writes)

    def _poll_target(self) -> int:
        n = self.cfg.n
        for off in range(n):
            i = (self.poll_from - 1 + off) % n + 1
            if i not in self.acked:
                return i
        return self.poll_from  # all acked; unreachable while polling

    def next_op(self):
        if self.phase == W_IDLE:
            return WriteOp(self.init_regs[0], TaggedValue(self.widx + 1, self.writes[self.widx]))
        if self.phase == W_INIT:
            return WriteOp(self.init_regs[self.wi - 1], self.pending)
        return self.ack_reads[self._poll_target() - 1]

    def apply(self, bank, op, result, recorder):
        if self.phase == W_IDLE:
            # the first init write of a fresh high-level write happened
            # during this step
            self.pending = op.value
            recorder.invoke(self.pid, "write", self.pending)
            self.widx += 1
            self.wi = 2
            self.phase = W_INIT if self.cfg.n >= 2 else W_POLL
            if self.phase == W_POLL:
                self._maybe_finish(recorder)
            return
        if self.phase == W_INIT:
            self.wi += 1
            if self.wi > self.cfg.n:
                self.phase = W_POLL
                self._maybe_finish(recorder)
            return
        # polling: the op read reader i's ack register, whose writer end
        # is reader i
        i = WRITER_END[op.reg].index
        self.poll_from = i % self.cfg.n + 1
        seq = bank.write_seq
        pending = self.pending
        if (
            (result is pending or result == pending)
            and seq[self.ack_regs[i - 1]] > seq[self.init_regs[0]]
        ):
            self.acked |= {i}
        self._maybe_finish(recorder)

    def _maybe_finish(self, recorder):
        if self.phase == W_POLL and len(self.acked) >= self.cfg.quorum:
            recorder.response(self.pid, "write", self.pending)
            self.pending = None
            self.acked = frozenset()
            self.poll_from = 1
            self.phase = W_IDLE

    def bank_key(self, bank):
        # absolute sequence numbers are behaviorally irrelevant; only each
        # ack's freshness matters, and only while polling
        if self.phase != W_POLL:
            return ()
        seq = bank.write_seq
        began = seq[self.init_regs[0]]
        return tuple([seq[reg] > began for reg in self.ack_regs])

    def bank_regs(self):
        return (self.init_regs[0], *self.ack_regs)


# Reader phases, in helper-iteration order
R_INIT = 10  # read own init register
R_WWIT = 11  # broadcast new witness entry
R_CWIT = 12  # collect peers' witness entries
R_WINF = 13  # broadcast signed witness set
R_RINF = 14  # collect peers' signed witness sets
R_WFIN = 15  # broadcast freshly formed inform set
R_ACK1 = 16  # ack the formed value
R_RFIN = 17  # collect peers' final inform sets
R_WFIN2 = 18  # broadcast adopted inform set
R_ACK2 = 19  # ack the adopted value

# the phase that follows each broadcast to every peer
_AFTER_BROADCAST = {R_WWIT: R_CWIT, R_WINF: R_RINF, R_WFIN: R_ACK1, R_WFIN2: R_ACK2}


def latest_quorum_group(
    t_witness: dict[int, WitnessEntry], cfg: Config
) -> tuple[TaggedValue, list[WitnessEntry]] | None:
    """The >= n-t latest entries sharing one tagged value, if any.

    Unique above the n > 2t threshold; below it the group with the
    highest stamp (then value) is picked so sub-threshold scenarios stay
    deterministic.
    """
    groups: dict[TaggedValue, list[WitnessEntry]] = {}
    for e in t_witness.values():
        groups.setdefault(e.value, []).append(e)
    best = None
    for v, entries in groups.items():
        if len(entries) < cfg.quorum:
            continue
        key = (len(entries), max(e.s for e in entries), v.k, v.u)
        if best is None or key > best[0]:
            best = (key, v, entries)
    if best is None:
        return None
    return best[1], best[2]


def form_inform_set(
    members: Sequence[WitnessSet], cfg: Config
) -> tuple[InformSet, TaggedValue] | None:
    """Assemble an inform set from collected witness sets, if a quorum of
    them shares a quorum of identical entries.

    With members in signer order, every quorum-sized member subset whose
    common core passes ``ws_of`` is grown greedily, in signer order, by
    each member that keeps the core valid.  The largest grown set wins,
    then the largest core, then the value; the first subset wins a tie.

    The search visits quorum subsets in ``itertools.combinations`` order
    but never enumerates them all.  Each member's entries are a bitmask
    over the distinct entries of this formation, so a subset's core is
    the AND of its members' masks, and ``ws_of``'s rules become tests on
    that mask, memoized per core.  A depth-first search drops a branch
    once its running AND holds fewer than n-t entries or it repeats a
    signer: adding members only shrinks a core and never removes a
    signer, so no subset below it is valid.  Mixed values and duplicate
    witness indices do not prune, since a smaller core can shed them.
    Search stops once a grown set holds every member: a later subset can
    grow to at most the same set, with the same key, and loses the tie.
    The result is therefore the one the exhaustive search over
    ``combinations`` gives; the winner is validated by ``ws_of`` itself.
    """
    members = sorted(frozenset(members), key=lambda m: m.signer)
    quorum = cfg.quorum
    if len(members) < quorum:
        return None
    bit: dict[WitnessEntry, int] = {}
    masks = []
    for m in members:
        mask = 0
        for e in m.entries:
            mask |= 1 << bit.setdefault(e, len(bit))
        masks.append(mask)
    entries = list(bit)
    valid = _core_test(entries, cfg)
    best = None
    full = (1 << len(entries)) - 1
    for chosen, core in _valid_subsets(members, masks, valid, quorum, 0, [], set(), full):
        grown = list(chosen)
        signers = {members[i].signer for i in chosen}
        for i, m in enumerate(members):
            if m.signer in signers:
                continue
            narrowed = core & masks[i]
            if valid(narrowed):
                grown.append(i)
                signers.add(m.signer)
                core = narrowed
        v = entries[core.bit_length() - 1].value
        key = (len(grown), core.bit_count(), v.k, v.u)
        if best is None or key > best[0]:
            best = (key, grown)
        if len(grown) == len(members):
            break
    if best is None:
        return None
    iset = InformSet(frozenset(members[i] for i in best[1]))
    return iset, common_value(ws_of(iset, cfg))


def _valid_subsets(members, masks, valid, quorum, start, chosen, signers, core):
    """(indices, core) of every valid quorum subset extending ``chosen``
    (its ``signers`` and ``core`` mask) by members from ``start`` on; not
    a closure, so a search stopped early leaves no reference cycle."""
    need = quorum - len(chosen)
    if need == 0:
        if valid(core):
            yield chosen, core
        return
    for i in range(start, len(members) - need + 1):
        signer = members[i].signer
        narrowed = core & masks[i]
        if signer in signers or narrowed.bit_count() < quorum:
            continue
        yield from _valid_subsets(
            members, masks, valid, quorum, i + 1, chosen + [i], signers | {signer}, narrowed
        )


def _core_test(entries: list[WitnessEntry], cfg: Config):
    """Memoized test of a core mask over ``entries`` against ``ws_of``'s
    rules on the core: at least n-t entries, one tagged value, witness
    indices in 1..n and distinct, stamps non-negative."""
    by_value: dict[TaggedValue, int] = {}
    by_index: dict[int, int] = {}
    well_formed = 0
    for b, e in enumerate(entries):
        by_value[e.value] = by_value.get(e.value, 0) | 1 << b
        by_index[e.p] = by_index.get(e.p, 0) | 1 << b
        if 1 <= e.p <= cfg.n and e.s >= 0:
            well_formed |= 1 << b
    shared_index = [m for m in by_index.values() if m & (m - 1)]
    memo: dict[int, bool] = {}

    def valid(core: int) -> bool:
        ok = memo.get(core)
        if ok is None:
            ok = (
                core != 0
                and core.bit_count() >= cfg.quorum
                and core & ~by_value[entries[core.bit_length() - 1].value] == 0
                and core & ~well_formed == 0
                and all((core & m).bit_count() <= 1 for m in shared_index)
            )
            memo[core] = ok
        return ok

    return valid


class ReaderMachine(ProcessMachine):
    """One reader: helper thread plus high-level read bookkeeping.

    Subclasses hook into witness stamping and publication to express
    Byzantine strategies without duplicating the phase structure.

    Most collects read the very objects the last one stored, so a read
    returning the stored object changes nothing and is neither compared
    nor verified again: the witness entry in ``t_witness``, the witness
    set in ``t_inform``, the init value, and the reader's own inform set
    in a final register.  A collect's end is a pure function of its view
    (the ``t_witness`` or ``t_inform`` values, in reader order), so the
    witness set it signs and the inform set it forms are memoized on the
    ring per view.
    """

    def __init__(
        self,
        cfg: Config,
        ring: crypto.KeyRing,
        u0: bytes,
        index: int,
        reads: int = 0,
        read_gap: int = 0,
    ):
        self.cfg = cfg
        self.ring = ring
        self.index = index
        self.pid = ProcessId.reader(index)
        # the algorithm's local variables, starting from the bank's
        # initial contents
        init = initial_state(ring, cfg, u0)
        self.s = 0
        self.last_init = init.value
        self.t_witness = init.entries
        self.t_inform: dict[int, WitnessSet | None] = init.witness_sets
        self.witness_set = init.witness_sets[index]
        self.inform_set = init.inform_set
        self.last_ack = init.value
        self.suspected: frozenset[int] = frozenset()
        self.phase = R_INIT
        self.idx = 1  # per-phase register loop counter
        self.pending_entry: WitnessEntry | None = None
        self.form_value: TaggedValue | None = None
        self.z_list: tuple[InformSet, ...] = ()
        # high-level read workload
        self.reads_remaining = reads
        self.read_gap = read_gap
        self.gap_left = 0
        self.read_active = False
        # the op of every read phase and the registers every write phase
        # writes, peer i's at position i - 1
        (
            self.init_read,
            self.witness_reads,
            self.inform_reads,
            self.final_reads,
            self.ack_reg,
            self.witness_regs,
            self.inform_regs,
            self.final_regs,
        ) = machine_layout(cfg.n)[index]

    # -- hooks for Byzantine subclasses --------------------------------

    def _stamp_bump(self) -> int:
        return 1

    def _entry_for_peer(self, peer: int, entry: WitnessEntry) -> WitnessEntry:
        return entry

    def _adopt_foreign_value(self) -> TaggedValue | None:
        """Value to treat as newly written when the init register did not
        change (collaborating strategies); None for correct readers."""
        return None

    def _after_collect(self) -> None:
        pass

    # -------------------------------------------------------------------

    def done(self):
        return self.reads_remaining == 0 and not self.read_active

    def next_op(self):
        # the read phases first: they take most of an iteration's steps
        phase = self.phase
        if phase == R_CWIT:
            return self.witness_reads[self.idx - 1]
        if phase == R_RFIN:
            return self.final_reads[self.idx - 1]
        if phase == R_RINF:
            return self.inform_reads[self.idx - 1]
        if phase == R_WINF:
            return WriteOp(self.inform_regs[self.idx - 1], self.witness_set)
        if phase == R_WFIN or phase == R_WFIN2:
            return WriteOp(self.final_regs[self.idx - 1], self.inform_set)
        if phase == R_WWIT:
            i = self.idx
            return WriteOp(self.witness_regs[i - 1], self._entry_for_peer(i, self.pending_entry))
        if phase == R_INIT:
            return self.init_read
        if phase == R_ACK1:
            return WriteOp(self.ack_reg, self.form_value)
        if phase == R_ACK2:
            core = validated_final(self.ring, self.cfg, self.inform_set)
            return WriteOp(self.ack_reg, common_value(core))
        raise AssertionError(f"unknown phase {phase}")

    def apply(self, bank, op, result, recorder):
        handler = self._APPLY[self.phase]
        handler(self, bank, op, result, recorder)

    # -- iteration bookkeeping ------------------------------------------

    def _begin_iteration(self, recorder):
        if not self.read_active and self.reads_remaining > 0:
            if self.gap_left == 0:
                self.read_active = True
                recorder.invoke(self.pid, "read", None)
            else:
                self.gap_left -= 1

    def _end_iteration(self, recorder):
        if self.read_active:
            recorder.response(self.pid, "read", self.last_ack)
            self.read_active = False
            self.reads_remaining -= 1
            self.gap_left = self.read_gap
        self.phase = R_INIT
        self.idx = 1

    # -- phase handlers ---------------------------------------------------

    def _apply_broadcast(self, bank, op, result, recorder):
        self.idx += 1
        if self.idx > self.cfg.n:
            self.phase = _AFTER_BROADCAST[self.phase]
            self.idx = 1

    def _apply_wwit(self, bank, op, result, recorder):
        self._apply_broadcast(bank, op, result, recorder)
        if self.phase != R_WWIT:
            self.pending_entry = None

    def _apply_init(self, bank, op, result, recorder):
        self._begin_iteration(recorder)
        kv = result  # an undecodable init cell (None) counts as unchanged
        if kv is None or kv is self.last_init or kv == self.last_init:
            kv = self._adopt_foreign_value()
        if kv is not None and kv != self.last_init:
            self.s += self._stamp_bump()
            self.last_init = kv
            self.pending_entry = WitnessEntry(kv, self.s, self.index)
        if self.pending_entry is not None:
            self.phase = R_WWIT
        else:
            self.phase = R_CWIT
        self.idx = 1

    def _apply_cwit(self, bank, op, result, recorder):
        src = self.idx
        entry = result
        stored = self.t_witness[src]
        if entry is not stored:
            if entry is None or entry.p != src:
                self.suspected |= {src}
            elif entry.s > stored.s:
                self.t_witness = {**self.t_witness, src: entry}
            elif entry.s < stored.s or (entry.s == stored.s and entry.value != stored.value):
                self.suspected |= {src}
        self.idx += 1
        if self.idx > self.cfg.n:
            self._after_collect()
            # the witness set this view signs (None for no quorum group),
            # memoized per reader and view
            key = (self.index, self.cfg, *self.t_witness.values())
            wset = self.ring.witnessed.get(key, _UNSEEN)
            if wset is _UNSEEN:
                group = latest_quorum_group(self.t_witness, self.cfg)
                wset = group and crypto.sign_entries(self.ring, self.index, group[1])
                self.ring.witnessed[key] = wset
            if wset is not None:
                self.witness_set = wset
                self.phase = R_WINF
            else:
                self.phase = R_RFIN
            self.idx = 1

    def _apply_rinf(self, bank, op, result, recorder):
        src = self.idx
        wset = result
        # a slot holds None only once its peer is suspected, so a read of
        # None into a None slot changes nothing either
        if wset is not self.t_inform[src]:
            if (
                wset is None
                or wset.signer != src
                or not crypto.verify_witness_set(self.ring, wset)
            ):
                wset = None
                self.suspected |= {src}
            self.t_inform = {**self.t_inform, src: wset}
        self.idx += 1
        if self.idx > self.cfg.n:
            # the inform set this view forms, memoized per view
            key = (self.cfg, *self.t_inform.values())
            formed = self.ring.formed.get(key, _UNSEEN)
            if formed is _UNSEEN:
                members = [w for w in self.t_inform.values() if w is not None]
                formed = self.ring.formed[key] = form_inform_set(members, self.cfg)
            if formed is not None:
                self.inform_set, self.form_value = formed
                self.phase = R_WFIN
            else:
                self.phase = R_RFIN
            self.idx = 1

    def _apply_ack1(self, bank, op, result, recorder):
        self.last_ack = self.form_value
        self.form_value = None
        self.phase = R_RFIN
        self.idx = 1

    def _apply_rfin(self, bank, op, result, recorder):
        src = self.idx
        # most final reads return this reader's own inform set, the very
        # object, which passed validation when it was formed or adopted
        if result is not self.inform_set and validated_final(self.ring, self.cfg, result) is None:
            self.suspected |= {src}
        else:
            self.z_list = self.z_list + (result,)
        self.idx += 1
        if self.idx > self.cfg.n:
            latest = find_latest(self.z_list + (self.inform_set,), self.cfg, self.ring)
            self.z_list = ()
            if latest is not self.inform_set and latest != self.inform_set:
                self.inform_set = latest
                self.phase = R_WFIN2
                self.idx = 1
            else:
                self._end_iteration(recorder)

    def _apply_ack2(self, bank, op, result, recorder):
        self.last_ack = op.value
        self._end_iteration(recorder)

    _APPLY = {
        R_INIT: _apply_init,
        R_WWIT: _apply_wwit,
        R_CWIT: _apply_cwit,
        R_WINF: _apply_broadcast,
        R_RINF: _apply_rinf,
        R_WFIN: _apply_broadcast,
        R_ACK1: _apply_ack1,
        R_RFIN: _apply_rfin,
        R_WFIN2: _apply_broadcast,
        R_ACK2: _apply_ack2,
    }
