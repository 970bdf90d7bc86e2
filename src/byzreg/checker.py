"""Post-hoc verification of recorded runs.

Consumes a complete history and trace, detects which values stabilized
(reached a full final-register row with verified signatures), classifies
every written value, reconstructs the stabilization order and the full
timestamp chain, and verifies each correctness property.  Violations
carry a minimal witnessing description.

Analysis derives each view of a run once and every check reads that
view: the operations are paired once (ExecutionHistory.ops), and the
completed correct reads and the writer's writes picked out once
(ExecutionHistory.completed_reads, ExecutionHistory.writes), the trace's
writes are split by register family once (ExecutionHistory.family_writes),
the final-register writes are scanned once (_scan_finals gives the
stabilizations and each reader's attribution log), the writes are
classified once, and its report sorts the stabilizations once and turns
them into one full-timestamp chain; then the checks run.  What depends
only on the key ring, the config and the initial value (the initial
value and its stabilization event) is derived once per ring, with the
ring's registers.initial_state, and every scan starts from it; a scan
makes each final row at its first write.  The public check functions
take these views, so a test can run any one of them on hand-built
inputs.  Each check is a sweep or a lookup, near-linear in run length,
and names the violation it finds (see the coverage-pattern notes below).

All functions are pure over the immutable run artifacts; nothing here is
checked online during a run.
"""

from __future__ import annotations

import bisect
import functools
import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import attrgetter, itemgetter
from typing import Iterable

from . import crypto, registers
from .core import (
    CommonQuorumTooSmall,
    Config,
    EqualStampsDifferentValue,
    FullTimestamp,
    OrderVerdict,
    PartialTimestamp,
    ProcessId,
    StabilizationEvent,
    TaggedValue,
    mapsto_compare,
    vec_compare,
)
from .engine import ExecutionHistory, HliOp, records_digest
from .registers import Family, Raw, TraceEvent, read_content


class InvariantBroken(Exception):
    """The full-timestamp chain failed its strict-increase invariant."""


class NoLinearization(Exception):
    """The linearization construction hit a conflicting constraint.

    Unreachable when all prior checks pass; reaching it is a checker
    self-test failure.
    """


class Kind(Enum):
    CORRECT = "correct"
    POTENTIAL_PSEUDO_CORRECT = "potential_pseudo_correct"
    PSEUDO_CORRECT = "pseudo_correct"
    NEITHER = "neither"


@dataclass
class WriteClassification:
    kinds: dict[TaggedValue, Kind]

    def kind_of(self, value: TaggedValue) -> Kind:
        return self.kinds.get(value, Kind.NEITHER)


@dataclass
class Verdict:
    status: str  # "pass" | "violation" | "skipped"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# --- stabilization detection -------------------------------------------------


def _scan_finals(
    final_writes: Iterable[TraceEvent],
    cfg: Config,
    ring: crypto.KeyRing,
    init: registers.InitialState,
) -> tuple[list[StabilizationEvent], dict[int, list[tuple[int, StabilizationEvent]]]]:
    """Single pass over the final-register writes, in trace order.

    Returns the stabilization events in step order plus, per row owner,
    a (step, event) log for read attribution: the initial event at step
    -1, then each write to the owner's row whose content has stabilized
    (at this write or earlier, at any row) and whose event is not the
    one logged last.  Starts from the initial state's event.

    A validated content stands for its witness core (validated_final),
    which carries one value.  Register final_reg(q, j) is cell j of
    reader q's row, so its writer end picks the row and its reader end
    the cell, and a row's cells are made at its first write.  A cell
    holds the core of its last write, or None for a content that does
    not validate or a cell not written yet.  An unwritten cell holds the
    initial core, which has its event from the start, and a row is
    checked only for a core with no event yet, so None never matches
    where the initial core would.
    """
    initial_event = init.stabilization
    n = cfg.n
    # ProcessIds are ints, so a writer end keys the rows and the logs as
    # it is
    writer_end, reader_end = registers.WRITER_END, registers.READER_END
    rows: dict[int, list] = {}

    events: list[StabilizationEvent] = [initial_event]
    first = (-1, initial_event)
    by_owner: dict[int, list[tuple[int, StabilizationEvent]]] = {
        q: [first] for q in cfg.reader_indices()
    }
    events_by_core = {initial_event.ws: initial_event}
    # a final row is rewritten with the same content over and over: read
    # and validate each distinct content once per scan
    validated: dict = {}

    for ev in final_writes:
        content = ev.value
        core = validated.get(content, False)  # False: not seen in this scan
        if core is False:
            iset = read_content(Family.FINAL, content) if type(content) is Raw else content
            core = validated[content] = registers.validated_final(ring, cfg, iset)
        owner = writer_end[ev.reg]
        row = rows.get(owner)
        if row is None:
            row = rows[owner] = [None] * n
        row[reader_end[ev.reg] - 1] = core
        if core is None:
            continue
        stab = events_by_core.get(core)
        if stab is None and row.count(core) == n:
            stab = StabilizationEvent(
                value=next(iter(core)).value,
                ws=core,
                pt=PartialTimestamp.from_mapping(n, {e.p: e.s for e in core}),
                step=ev.step,
                row_owner=int(owner),
            )
            events.append(stab)
            events_by_core[core] = stab
        if stab is not None:
            log = by_owner[owner]
            if log[-1][1] is not stab:
                log.append((ev.step, stab))
    return events, by_owner


def detect_stabilizations(
    trace: list[TraceEvent], cfg: Config, ring: crypto.KeyRing, u0: bytes
) -> list[StabilizationEvent]:
    """Every distinct (value, witness core) that covered a full final row,
    ordered by completion step; the bank initializer counts as the
    stabilization of the initial value at step 0.  Kept for bare traces:
    bench's enumerate_n2 times it apart; a recorded run has Analysis."""
    family, final = registers.FAMILY, Family.FINAL
    final_writes = [ev for ev in trace if ev.op == "write" and family[ev.reg] is final]
    events, _ = _scan_finals(final_writes, cfg, ring, registers.initial_state(ring, cfg, u0))
    return events


# --- write classification ------------------------------------------------------


def classify_writes(
    history: ExecutionHistory,
    stabs: list[StabilizationEvent],
    cfg: Config,
    byz_readers: frozenset[int] = frozenset(),
) -> WriteClassification:
    """Sort every written value into correct / potential pseudo-correct /
    pseudo-correct / neither.

    Quorum evidence counts init registers that actually received the
    value plus Byzantine readers that witnessed it (their own registers
    cannot be audited, so their dated claims stand in, which is also what
    makes a collaborator-completed partial write a pseudo-correct one).
    """
    family_writes = history.family_writes
    initial_value = history.initial.value
    writer_end, reader_end = registers.WRITER_END, registers.READER_END
    # per value, the init registers that received it and the Byzantine
    # readers that witnessed it
    quorum: dict[TaggedValue, set[int]] = {}
    init_events: list[tuple[int, int, TaggedValue]] = []  # (step, reader, value)
    # per acked value, the (step, reader) of each ack write
    acks: dict[TaggedValue, list[tuple[int, int]]] = {}
    correct_stamps: dict[TaggedValue, dict[int, int]] = {}

    # a process id is its index as an int; a value is decoded only from
    # Raw bytes; a reader is the writer end of every ack and witness register
    for ev in family_writes.init:
        v = ev.value
        if type(v) is Raw:
            v = read_content(Family.INIT, v)
        if v is None:
            continue
        reader = reader_end[ev.reg]
        quorum.setdefault(v, set()).add(reader)
        init_events.append((ev.step, reader, v))
    for ev in family_writes.ack:
        v = ev.value
        if type(v) is Raw:
            v = read_content(Family.ACK, v)
        if v is None:
            continue
        acks.setdefault(v, []).append((ev.step, writer_end[ev.reg]))
    for ev in family_writes.witness:
        src = writer_end[ev.reg]
        entry = ev.value
        if type(entry) is Raw:
            entry = read_content(Family.WITNESS, entry)
        if entry is None:
            continue
        if src in byz_readers:
            quorum.setdefault(entry.value, set()).add(src)
        else:
            stamps = correct_stamps.setdefault(entry.value, {})
            stamps[src] = max(stamps.get(src, 0), entry.s)

    stabilized = {s.value for s in stabs}
    values = set(quorum) | stabilized

    # a correct write puts one value on all n init registers within a single
    # high-level write and then awaits n-t fresh acks before responding
    # trace order is step order, so each step window is a slice
    init_steps = [step for step, _, _ in init_events]
    readers = set(cfg.reader_indices())
    correct_values: set[TaggedValue] = {initial_value}
    for op in history.writes:
        if op.response_step is None:
            continue
        ivs = init_events[
            bisect.bisect_left(init_steps, op.invoke_step) :
            bisect.bisect_right(init_steps, op.response_step)
        ]
        if not ivs:
            continue
        vals = {v for _, _, v in ivs}
        if len(vals) != 1:
            continue
        v = next(iter(vals))
        covered = {reader for _, reader, _ in ivs}
        if covered != readers:
            continue
        first_step = ivs[0][0]
        acked = acks.get(v, [])
        ackers = {
            reader
            for _, reader in acked[
                bisect.bisect_right(acked, first_step, key=itemgetter(0)) :
                bisect.bisect_right(acked, op.response_step, key=itemgetter(0))
            ]
        }
        if len(ackers) >= cfg.quorum:
            correct_values.add(v)

    def crosses_correct(v: TaggedValue) -> bool:
        sv = correct_stamps.get(v, {})
        for w in correct_values:
            if w == v or w == initial_value:
                continue
            sw = correct_stamps.get(w, {})
            shared = set(sv) & set(sw)
            lt = any(sv[i] < sw[i] for i in shared)
            gt = any(sv[i] > sw[i] for i in shared)
            if lt and gt:
                return True
        return False

    kinds: dict[TaggedValue, Kind] = {}
    for v in values:
        if v == initial_value or v in correct_values:
            kinds[v] = Kind.CORRECT
            continue
        if len(quorum.get(v, ())) >= cfg.quorum and not crosses_correct(v):
            kinds[v] = (
                Kind.PSEUDO_CORRECT if v in stabilized else Kind.POTENTIAL_PSEUDO_CORRECT
            )
        else:
            kinds[v] = Kind.NEITHER
    return WriteClassification(kinds=kinds)


# --- ordering checks -----------------------------------------------------------


# mapsto_compare orders two cores by their stamps on the witnesses they
# share, so cores that stamp the same witnesses (one coverage pattern)
# compare on one projection.  The sweeps below group cores by pattern and,
# for each pair of patterns, order the projections onto the shared
# witnesses S instead of comparing every pair of cores: projecting onto S
# keeps componentwise <=, so a set of projections is a chain exactly when
# its lexicographic sort has componentwise <= neighbours, and a pair that
# ties on S compares Equal only if it carries one value.  A pair with fewer
# than n-2t shared witnesses, or none, is never ordered.  A sweep returns
# the first violating pair it meets, looking back for the partner only
# then, so a violation costs one compare to describe.


def _coverage_groups(cores, items) -> dict[tuple[int, ...], list[tuple]]:
    """Items grouped by the coverage pattern (the sorted witnesses) of their
    cores; each member is (its core's stamps by witness, the core's value,
    the item)."""
    groups: dict[tuple[int, ...], list] = {}
    for ws, item in zip(cores, items):
        stamps = {e.p: e.s for e in ws}
        value = next(iter(ws)).value if ws else None
        groups.setdefault(tuple(sorted(stamps)), []).append((stamps, value, item))
    return groups


def _shared(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if a is b:
        return a
    in_b = set(b)
    return tuple(p for p in a if p in in_b)


def _unordered_across(shared, left, right, cfg: Config):
    """The items of the first pair of a left and a right member that does
    not compare Before, After or Equal, or None; ``left is right`` checks
    the pairs within one group.  Valid for two groups once each has passed
    on its own: then the left and the right members are each a chain on
    their own, so the partner named for a violation, the first member of
    a tie that the next projection crosses or that holds another value,
    is on the other side."""
    same = left is right
    if len(shared) < cfg.common_quorum or not shared:
        if not same:
            return left[0][2], right[0][2]
        return (left[0][2], left[1][2]) if len(left) > 1 else None
    rows = [(tuple(st[p] for p in shared), 0, v, it) for st, v, it in left]
    if not same:
        rows += [(tuple(st[p] for p in shared), 1, v, it) for st, v, it in right]
    rows.sort(key=itemgetter(0))  # stable: a tie lists its left members first
    tie = None
    for proj, side, value, item in rows:
        if proj != tie:
            if tie is not None and any(x > y for x, y in zip(tie, proj)):
                return next(r[3] for r in rows if r[0] == tie), item
            tie, sides, values = proj, set(), set()
        sides.add(side)
        values.add(value)
        if len(values) > 1 and (same or len(sides) > 1):
            return next(r[3] for r in rows if r[0] == proj and r[2] != value), item
    return None


def check_total_order(stabs: list[StabilizationEvent], cfg: Config) -> Verdict:
    """Every pair of stabilized witness cores must be comparable.  A
    violation names the first pair the pattern-pair sweeps meet, in stabs
    order."""
    groups = _coverage_groups([s.ws for s in stabs], range(len(stabs)))
    pairs = [(a, a) for a in groups] + list(combinations(groups, 2))
    found = (_unordered_across(_shared(a, b), groups[a], groups[b], cfg) for a, b in pairs)
    pair = next((p for p in found if p is not None), None)
    if pair is None:
        return Verdict("pass", f"{len(stabs)} stabilizations totally ordered")
    a, b = stabs[min(pair)], stabs[max(pair)]
    try:
        mapsto_compare(a.ws, b.ws, cfg)
    except (CommonQuorumTooSmall, EqualStampsDifferentValue) as exc:
        return Verdict("violation", f"{a.value} vs {b.value}: {type(exc).__name__}: {exc}")
    return Verdict("violation", f"concurrent pair {a.value}{a.pt} vs {b.value}{b.pt}")


def sort_stabilizations(
    stabs: list[StabilizationEvent], cfg: Config
) -> list[StabilizationEvent]:
    """Stabilization events in the order induced by their witness cores.

    Requires check_total_order to have passed.
    """
    def cmp(a: StabilizationEvent, b: StabilizationEvent) -> int:
        verdict = mapsto_compare(a.ws, b.ws, cfg)
        if verdict is OrderVerdict.BEFORE:
            return -1
        if verdict is OrderVerdict.AFTER:
            return 1
        if verdict is OrderVerdict.CONCURRENT:
            raise InvariantBroken(f"concurrent pair while sorting: {a.value} vs {b.value}")
        return 0

    return sorted(stabs, key=functools.cmp_to_key(cmp))


def build_full_timestamps(
    ordered: list[StabilizationEvent], cfg: Config
) -> tuple[list[FullTimestamp], list[StabilizationEvent]]:
    """Reconstruct the full n-vector chain from partial stamps already in
    stabilization order (see sort_stabilizations).

    Present components are copied, absent ones inherited from the previous
    vector.  Events that add no new information (their merged vector
    equals the current one) are skipped: the common-witness Equal verdict
    is not transitive across coverage patterns, so re-stabilizations of
    one value collapse here instead.  The strict-increase invariant is
    asserted at every retained link; a failure raises InvariantBroken.
    Returns the chain and the event behind each of its vectors.
    """
    chain: list[FullTimestamp] = []
    contributing: list[StabilizationEvent] = []
    current: list[int] | None = None
    for ev in ordered:
        stamps = ev.pt.mapping()
        base = current if current is not None else [0] * cfg.n
        nxt = [stamps.get(i + 1, base[i]) for i in range(cfg.n)]
        if current is None:
            chain.append(FullTimestamp(tuple(nxt)))
            contributing.append(ev)
            current = nxt
            continue
        verdict = vec_compare(FullTimestamp(tuple(current)), FullTimestamp(tuple(nxt)))
        if verdict is OrderVerdict.EQUAL:
            continue
        if verdict is not OrderVerdict.BEFORE:
            raise InvariantBroken(
                f"chain not strictly increasing: {tuple(current)} -> {tuple(nxt)} "
                f"({ev.value})"
            )
        chain.append(FullTimestamp(tuple(nxt)))
        contributing.append(ev)
        current = nxt
    return chain, contributing


def check_timestamp_isomorphism(chain: list[FullTimestamp]) -> Verdict:
    """The full-vector chain must be strictly increasing and mirror the
    stabilization order exactly.  Componentwise order is transitive, so
    checking each adjacent link orders every pair."""
    for i in range(len(chain) - 1):
        a, b = chain[i], chain[i + 1]
        if vec_compare(a, b) is not OrderVerdict.BEFORE:
            return Verdict("violation", f"chain positions {i},{i + 1} not ordered: {a} vs {b}")
    return Verdict("pass", f"chain of {len(chain)} strictly increasing vectors")


def check_genuine_advance(
    chain: list[FullTimestamp],
    contributing: list[StabilizationEvent],
    byz_readers: frozenset[int],
    cfg: Config,
) -> Verdict:
    """Every step between stabilized writes of distinct values must raise
    some correct reader's component of the full timestamp.

    Takes build_full_timestamps' chain and contributing events.
    Consecutive chain entries carrying one value are a single write's
    evidence refreshing, not a new write, so only value changes are
    links.
    """
    correct = set(cfg.reader_indices()) - set(byz_readers)
    prev_vec = None
    prev_value = None
    for vec, ev in zip(chain, contributing):
        if prev_vec is not None and ev.value != prev_value:
            advancing = {i + 1 for i in range(cfg.n) if prev_vec.vec[i] < vec.vec[i]}
            if not advancing & correct:
                return Verdict(
                    "violation",
                    f"{prev_value} -> {ev.value} advanced only at Byzantine readers "
                    f"{sorted(advancing)}",
                )
        prev_vec, prev_value = vec, ev.value
    return Verdict("pass", "every value change advanced a correct reader's stamp")


# --- read-facing checks ----------------------------------------------------------


def _read_attribution(
    reads: list[HliOp], by_owner: dict[int, list[tuple[int, StabilizationEvent]]]
) -> dict[tuple[ProcessId, int], StabilizationEvent]:
    """Map each completed correct read to the stabilization event behind the
    value it returned: the last event _scan_finals logged for the reader's
    final row by the read's response.  A read with no such event, before
    its first logged write, is left out."""
    steps = {q: [step for step, _ in log] for q, log in by_owner.items()}
    out: dict[tuple[ProcessId, int], StabilizationEvent] = {}
    for read in reads:
        q = read.process
        if q not in by_owner:
            continue
        # the log is in step order: take its last write by the response
        k = bisect.bisect_right(steps[q], read.response_step)
        if k:
            out[(read.process, read.index)] = by_owner[q][k - 1][1]
    return out


def _inversion_across(shared, earlier, later, cfg: Config):
    """The first (earlier read, later read) where the later member, invoked
    after the earlier one responded, returns a core not at or above that
    member's on the shared witnesses, or Equal with another value; None if
    there is none.  The members are (stamps, value, read).

    Reads sorted by invocation meet the earlier reads sorted by response:
    a projection is at or above each of a set exactly when it is at or
    above their componentwise maximum."""
    if len(shared) < cfg.common_quorum or not shared:
        first = min((read for _, _, read in earlier), key=attrgetter("response_step"))
        return next(((first, r) for _, _, r in later if r.invoke_step > first.response_step), None)
    done = sorted(earlier, key=lambda m: m[2].response_step)
    top = None  # componentwise maximum over the reads done so far
    tied: dict[tuple[int, ...], set] = {}  # their values, per projection
    k = 0
    for stamps, value, read in sorted(later, key=lambda m: m[2].invoke_step):
        while k < len(done) and done[k][2].response_step < read.invoke_step:
            done_stamps, done_value, _ = done[k]
            proj = tuple(done_stamps[p] for p in shared)
            top = proj if top is None else tuple(map(max, top, proj))
            tied.setdefault(proj, set()).add(done_value)
            k += 1
        if top is None:
            continue
        proj = tuple(stamps[p] for p in shared)
        if any(x > y for x, y in zip(top, proj)):
            above = (r for st, _, r in done[:k] if any(st[p] > x for p, x in zip(shared, proj)))
            return next(above), read
        values = tied.get(proj)
        if values and (len(values) > 1 or value not in values):
            at_proj = (m for m in done[:k] if tuple(m[0][p] for p in shared) == proj)
            return next(r for _, v, r in at_proj if v != value), read
    return None


def _first_inversion(
    reads: list[HliOp],
    attribution: dict[tuple[ProcessId, int], StabilizationEvent],
    cfg: Config,
) -> Verdict | None:
    """The new-old inversion among the attributed reads that one sweep per
    ordered pair of coverage patterns meets first, or None: two reads, the
    first responding before the second was invoked, whose cores do not
    compare Before or Equal."""
    if len(reads) < 2:
        return None
    attributed = [r for r in reads if (r.process, r.index) in attribution]
    groups = _coverage_groups(
        [attribution[(r.process, r.index)].ws for r in attributed], attributed
    )
    found = (
        _inversion_across(_shared(a, b), groups[a], groups[b], cfg)
        for a in groups
        for b in groups
    )
    pair = next((p for p in found if p is not None), None)
    if pair is None:
        return None
    r1, r2 = pair
    s1, s2 = attribution[(r1.process, r1.index)], attribution[(r2.process, r2.index)]
    try:
        mapsto_compare(s1.ws, s2.ws, cfg)
    except (CommonQuorumTooSmall, EqualStampsDifferentValue) as exc:
        detail = f"incomparable returns {r1.response_value} vs {r2.response_value}: {exc}"
    else:
        detail = (
            f"new-old inversion: {r1.process} returned {r1.response_value} "
            f"before {r2.process} returned {r2.response_value}"
        )
    return Verdict("violation", detail)


def check_register_linearizability(
    history: ExecutionHistory,
    stabs: list[StabilizationEvent],
    classification: WriteClassification,
    cfg: Config,
    ring: crypto.KeyRing,
) -> Verdict:
    """Reading-a-current-value plus no new-old inversions over completed
    correct reads, judged on high-level steps and stabilization steps.
    Rescans the final registers; kept because bench's enumerate_n2 times
    it apart.  Analysis.register_linearizability reuses its scan."""
    init = registers.initial_state(ring, cfg, history.u0)
    _, by_owner = _scan_finals(history.family_writes.final, cfg, ring, init)
    return _register_linearizability(history, stabs, by_owner, classification, cfg)


def _register_linearizability(
    history: ExecutionHistory,
    stabs: list[StabilizationEvent],
    by_owner: dict[int, list[tuple[int, StabilizationEvent]]],
    classification: WriteClassification,
    cfg: Config,
) -> Verdict:
    v0 = history.initial.value
    reads = history.completed_reads
    attribution = _read_attribution(reads, by_owner)

    correct_write_ops = sorted(
        (
            op
            for op in history.writes
            if op.response_step is not None
            and op.invoke_value is not None
            and classification.kind_of(op.invoke_value) is Kind.CORRECT
        ),
        key=attrgetter("response_step"),
    )
    write_steps = [op.response_step for op in correct_write_ops]
    first_stab_of: dict[TaggedValue, StabilizationEvent] = {}
    for s in stabs:
        first_stab_of.setdefault(s.value, s)
    # the stabilizations of other values stepped below every earlier one:
    # the first stabilization in stabs before an invocation is among them
    undercutting: list[StabilizationEvent] = []
    for s in stabs:
        if s.value != v0 and (not undercutting or s.step < undercutting[-1].step):
            undercutting.append(s)
    undercut_keys = [-s.step for s in undercutting]

    for read in reads:
        v = read.response_value
        stab = attribution.get((read.process, read.index))
        if v == v0:
            k = bisect.bisect_right(undercut_keys, -read.invoke_step)
            if k < len(undercutting):
                s = undercutting[k]
                return Verdict(
                    "violation",
                    f"read at {read.process} returned the initial value after "
                    f"{s.value} stabilized at step {s.step}",
                )
            continue
        if stab is None or stab.value != v:
            return Verdict(
                "violation",
                f"read at {read.process} returned {v} with no matching final-row state",
            )
        if stab.step > read.response_step:
            return Verdict(
                "violation",
                f"read at {read.process} returned {v} before it stabilized",
            )
        k = bisect.bisect_left(write_steps, read.invoke_step)
        if k:
            # the first of the latest writes to respond before the invocation
            last = correct_write_ops[bisect.bisect_left(write_steps, write_steps[k - 1])]
            w = last.invoke_value
            if w != v:
                w_stab = first_stab_of.get(w)
                if w_stab is None:
                    return Verdict(
                        "violation", f"correct write {w} completed without stabilizing"
                    )
                verdict = mapsto_compare(w_stab.ws, stab.ws, cfg)
                if verdict not in (OrderVerdict.BEFORE, OrderVerdict.EQUAL):
                    return Verdict(
                        "violation",
                        f"read at {read.process} returned {v}, older than the most "
                        f"recent preceding correct write {w}",
                    )

    inversion = _first_inversion(reads, attribution, cfg)
    return inversion or Verdict("pass", f"{len(reads)} reads current and inversion-free")


def check_view_consistency(history: ExecutionHistory) -> Verdict:
    """After the final init write, once any correct read returns the final
    value every later-issued correct read must return it too."""
    init_writes = history.family_writes.init
    last_value = history.initial.value
    if init_writes:
        last_value = read_content(Family.INIT, init_writes[-1].value)
        if last_value is None:
            return Verdict("pass", "final init write undecodable; proviso unmet")
    reads = history.completed_reads
    returning = [r for r in reads if r.response_value == last_value]
    if not returning:
        return Verdict("pass", "no read returned the final value; vacuous")
    cutoff = min(r.response_step for r in returning)
    for r in reads:
        if r.invoke_step > cutoff and r.response_value != last_value:
            return Verdict(
                "violation",
                f"{r.process} returned {r.response_value} after {last_value} was "
                f"returned at step {cutoff}",
            )
    return Verdict("pass", f"all reads after step {cutoff} returned {last_value}")


def check_total_ordering_reads(history: ExecutionHistory) -> Verdict:
    """No two correct reads, at one reader or two, may see two values in
    opposite orders: each reader returns every value in one unbroken
    stretch, so one reader returning a, b, a is flagged against itself, and
    any two readers meet the values they share in one order."""
    per_reader: dict[ProcessId, list[TaggedValue]] = {}
    for r in history.completed_reads:
        per_reader.setdefault(r.process, []).append(r.response_value)
    orders = []
    for pid, seq in sorted(per_reader.items()):
        order = [v for k, v in enumerate(seq) if k == 0 or v != seq[k - 1]]
        if len(set(order)) != len(order):
            # the first value met again, and the one met just before it
            first: dict[TaggedValue, int] = {}
            k = next(k for k, v in enumerate(order) if first.setdefault(v, k) != k)
            a, b = order[k], order[k - 1]
            return Verdict("violation", f"{pid} saw {a} before {b}; {pid} saw {b} before {a}")
        orders.append((pid, order))
    for (p, p_order), (q, q_order) in combinations(orders, 2):
        in_p, in_q = set(p_order), set(q_order)
        p_shared = [v for v in p_order if v in in_q]
        q_shared = [v for v in q_order if v in in_p]
        if p_shared != q_shared:
            a, b = next((a, b) for a, b in zip(p_shared, q_shared) if a != b)
            return Verdict("violation", f"{p} saw {a} before {b}; {q} saw {b} before {a}")
    return Verdict("pass", "common order across readers")


def check_write_stabilization(
    history: ExecutionHistory, stabs: list[StabilizationEvent]
) -> Verdict:
    """Every completed high-level write must stabilize before it responds.

    A claim about the correct write protocol: a Byzantine writer responds
    whenever its strategy says, so the check is vacuous for it.
    """
    if history.cfg.writer_byzantine:
        return Verdict("pass", "vacuous: Byzantine writer does not await stabilization")
    first_step: dict[TaggedValue, int] = {}
    for s in stabs:
        first_step[s.value] = min(s.step, first_step.get(s.value, s.step))
    for op in history.writes:
        if op.response_step is None or op.invoke_value is None:
            continue
        step = first_step.get(op.invoke_value)
        if step is None or step > op.response_step:
            return Verdict(
                "violation",
                f"write {op.invoke_value} responded at step {op.response_step} "
                f"without a prior stabilization",
            )
    return Verdict("pass", "completed writes stabilized before responding")


def check_stabilized_classification(
    stabs: list[StabilizationEvent], classification: WriteClassification
) -> Verdict:
    """Only correct and pseudo-correct values may stabilize."""
    for s in stabs:
        kind = classification.kind_of(s.value)
        if kind not in (Kind.CORRECT, Kind.PSEUDO_CORRECT):
            return Verdict(
                "violation", f"stabilized value {s.value} classified {kind.value}"
            )
    return Verdict("pass", "stabilized values all correct or pseudo-correct")


# --- linearization ---------------------------------------------------------------


@dataclass(frozen=True)
class SeqOp:
    kind: str  # "write" | "read"
    process: str
    value: TaggedValue
    inserted: bool = False


def build_byzantine_linearization(
    history: ExecutionHistory, ordered: list[StabilizationEvent], cfg: Config
) -> list[SeqOp]:
    """A sequential history: correct reads ordered by returned-value rank
    (the rank of the value in the stabilization order, see
    sort_stabilizations) with per-reader order preserved, writes placed
    immediately before their first reader (real writes for a correct
    writer, inserted Byzantine writes otherwise), verified against the
    register's sequential specification and the run's real-time order."""
    v0 = history.initial.value
    # ranks are value-level: re-stabilizations of one value are the same
    # write and may be adopted in either order among equal-comparing sets
    value_rank: dict[TaggedValue, int] = {}
    for ev in ordered:
        value_rank.setdefault(ev.value, len(value_rank))

    reads = history.completed_reads

    def read_rank(read: HliOp) -> int:
        rank = value_rank.get(read.response_value)
        if rank is None:
            raise NoLinearization(
                f"read {read.process}#{read.index} returned unstabilized "
                f"{read.response_value}"
            )
        return rank

    reads_sorted = sorted(reads, key=lambda r: (read_rank(r), r.invoke_step))
    # per-reader local order must survive the sort
    positions: dict[ProcessId, list[int]] = {}
    for pos, r in enumerate(reads_sorted):
        positions.setdefault(r.process, []).append(r.index)
    for pid, idxs in positions.items():
        if idxs != sorted(idxs):
            raise NoLinearization(f"local order broken for {pid}: {idxs}")

    seq: list[tuple] = []  # (rank, tier, tiebreak, SeqOp, real_op)
    if not cfg.writer_byzantine:
        returned = {r.response_value for r in reads}
        for op in history.writes:
            v = op.invoke_value
            if op.response_step is None and v not in returned:
                continue  # pending write nobody saw: removed
            if v not in value_rank:
                raise NoLinearization(f"correct write {v} never stabilized")
            seq.append((value_rank[v], 0, v.k, SeqOp("write", "w", v), op))
    else:
        inserted: set = set()
        for r in reads_sorted:
            v = r.response_value
            if v == v0 or v in inserted:
                continue
            inserted.add(v)
            seq.append((read_rank(r), 0, v.k, SeqOp("write", "w", v, inserted=True), None))
    for r in reads_sorted:
        seq.append(
            (read_rank(r), 1, r.invoke_step, SeqOp("read", str(r.process), r.response_value), r)
        )
    seq.sort(key=lambda item: item[:3])
    ops = [item[3] for item in seq]

    # sequential specification: every read returns the latest preceding write
    current = v0
    for op in ops:
        if op.kind == "write":
            current = op.value
        elif op.value != current:
            raise NoLinearization(
                f"sequential spec broken: read returned {op.value}, register held {current}"
            )

    _check_real_time([item[4] for item in seq if item[4] is not None])
    return ops


def _check_real_time(real: list[HliOp]) -> None:
    """Raise NoLinearization naming the first operation, in sequence order,
    placed after one invoked once it had responded, and the first such
    later-invoked operation: one sweep keeps the latest invocation so far."""
    latest_invoke = -1
    for k, op_a in enumerate(real):
        if op_a.response_step is not None and latest_invoke > op_a.response_step:
            op_b = next(op for op in real[:k] if op.invoke_step > op_a.response_step)
            raise NoLinearization(
                f"real-time order broken between {op_a.process} and {op_b.process}"
            )
        latest_invoke = max(latest_invoke, op_a.invoke_step)


def check_byzantine_linearization(
    history: ExecutionHistory, ordered: list[StabilizationEvent], cfg: Config
) -> Verdict:
    try:
        ops = build_byzantine_linearization(history, ordered, cfg)
    except NoLinearization as exc:
        return Verdict("violation", str(exc))
    return Verdict("pass", f"linearization of {len(ops)} operations")


# --- brute-force oracle -----------------------------------------------------------


def brute_force_linearizable(history: ExecutionHistory) -> bool:
    """Sequential-extension search over completed correct operations.

    Independent of the checker's construction: tries every real-time
    respecting permutation against the register's sequential
    specification.  Micro instances only.
    """
    v0 = history.initial.value
    ops = [o for o in history.ops if o.response_step is not None]
    n = len(ops)
    if n == 0:
        return True

    seen_fail: set = set()

    def search(taken: frozenset, current: TaggedValue) -> bool:
        if len(taken) == n:
            return True
        key = (taken, current)
        if key in seen_fail:
            return False
        remaining = [i for i in range(n) if i not in taken]
        for i in remaining:
            op = ops[i]
            # op may go next only if no remaining op fully precedes it
            blocked = any(
                ops[j].response_step < op.invoke_step
                for j in remaining
                if j != i and ops[j].response_step is not None
            )
            if blocked:
                continue
            if op.op == "read" and op.response_value != current:
                continue
            nxt = op.invoke_value if op.op == "write" else current
            if search(taken | {i}, nxt):
                return True
        seen_fail.add(key)
        return False

    return search(frozenset(), v0)


# --- the full report -------------------------------------------------------------


PROPERTIES = (
    "substrate_atomicity",
    "total_order",
    "timestamp_isomorphism",
    "genuine_advance",
    "register_linearizability",
    "view_consistency",
    "total_ordering_reads",
    "write_stabilization",
    "stabilized_classification",
    "byzantine_linearization",
)


@dataclass
class CheckReport:
    cfg: Config
    verdicts: dict[str, Verdict]
    stabilizations: list[StabilizationEvent]
    chain: list[FullTimestamp]
    classification: WriteClassification
    status: str
    violation: str | None
    returned_values: frozenset[TaggedValue] = frozenset()

    def invisible_stabilizations(self) -> list[StabilizationEvent]:
        """Stabilized values that lost their race and were never returned
        (informational: they impose no check)."""
        return [
            s for s in self.stabilizations if s.value not in self.returned_values
        ]

    def violations(self) -> list[str]:
        return [name for name, v in self.verdicts.items() if v.status == "violation"]

    def records(self):
        yield json.dumps(
            {
                "report": {
                    "n": self.cfg.n,
                    "t": self.cfg.t,
                    "status": self.status,
                    "violation": self.violation,
                    "registers": 3 * self.cfg.n**2 + 2 * self.cfg.n,
                }
            },
            sort_keys=True,
        )
        for name in PROPERTIES:
            v = self.verdicts[name]
            yield json.dumps(
                {"property": name, "status": v.status, "detail": v.detail},
                sort_keys=True,
            )
        for s in self.stabilizations:
            yield json.dumps(
                {
                    "stabilization": str(s.value),
                    "stamps": str(s.pt),
                    "step": s.step,
                    "row_owner": s.row_owner,
                    "returned": s.value in self.returned_values,
                },
                sort_keys=True,
            )
        for vec in self.chain:
            yield json.dumps({"full_timestamp": list(vec.vec)}, sort_keys=True)
        for value, kind in sorted(
            self.classification.kinds.items(), key=lambda kv: (kv[0].k, kv[0].u)
        ):
            yield json.dumps(
                {"value": str(value), "class": kind.value}, sort_keys=True
            )

    def digest(self) -> str:
        return records_digest(self.records())


class Analysis:
    """The views of one recorded run that its checks share, each derived
    once and eagerly: one _scan_finals pass gives the stabilizations and
    each reader's final-row log (``by_owner``), and the writes are
    classified against them."""

    def __init__(self, history: ExecutionHistory, byz_readers: frozenset[int] = frozenset()):
        self.history = history
        self.byz_readers = byz_readers
        self.cfg = history.cfg
        self.ring = history.keyring()
        self.stabilizations, self.by_owner = _scan_finals(
            history.family_writes.final, self.cfg, self.ring, history.initial
        )
        self.classification = classify_writes(history, self.stabilizations, self.cfg, byz_readers)

    def register_linearizability(self) -> Verdict:
        return _register_linearizability(
            self.history, self.stabilizations, self.by_owner, self.classification, self.cfg
        )

    def report(self) -> CheckReport:
        """Every verdict, each computed here: the stabilizations are sorted
        and turned into a full-timestamp chain once, then every check runs."""
        history, cfg, byz_readers = self.history, self.cfg, self.byz_readers
        stabs, classification = self.stabilizations, self.classification
        verdicts: dict[str, Verdict] = {}

        bad_reads = registers.atomicity_violations(
            cfg, history.u0, self.ring, history.register_events, history.read_log
        )
        verdicts["substrate_atomicity"] = (
            Verdict("pass", f"{history.trace_length} register events linearizable")
            if not bad_reads
            else Verdict("violation", f"{len(bad_reads)} stale reads, first at step {bad_reads[0].step}")
        )

        chain: list[FullTimestamp] = []
        total_order = check_total_order(stabs, cfg)
        verdicts["total_order"] = total_order
        if total_order.passed:
            try:
                ordered = sort_stabilizations(stabs, cfg)
                chain, contributing = build_full_timestamps(ordered, cfg)
            except InvariantBroken as exc:
                verdicts["timestamp_isomorphism"] = Verdict("violation", str(exc))
                verdicts["genuine_advance"] = Verdict("violation", f"no chain: {exc}")
            else:
                verdicts["timestamp_isomorphism"] = check_timestamp_isomorphism(chain)
                verdicts["genuine_advance"] = check_genuine_advance(
                    chain, contributing, byz_readers, cfg
                )
            verdicts["register_linearizability"] = self.register_linearizability()
        else:
            skipped = Verdict("skipped", "total order violated")
            verdicts["timestamp_isomorphism"] = skipped
            verdicts["genuine_advance"] = skipped
            verdicts["register_linearizability"] = skipped

        verdicts["view_consistency"] = check_view_consistency(history)
        verdicts["total_ordering_reads"] = check_total_ordering_reads(history)
        verdicts["write_stabilization"] = check_write_stabilization(history, stabs)
        verdicts["stabilized_classification"] = check_stabilized_classification(
            stabs, classification
        )

        # a pass on every prior check includes timestamp_isomorphism, so the
        # sort above ran and succeeded
        prior_ok = all(
            verdicts[name].status == "pass"
            for name in PROPERTIES
            if name != "byzantine_linearization"
        )
        if prior_ok:
            verdicts["byzantine_linearization"] = check_byzantine_linearization(
                history, ordered, cfg
            )
        else:
            verdicts["byzantine_linearization"] = Verdict("skipped", "prior checks failed")

        returned = frozenset(r.response_value for r in history.completed_reads)
        return CheckReport(
            cfg=cfg,
            verdicts=verdicts,
            stabilizations=stabs,
            chain=chain if verdicts["timestamp_isomorphism"].passed else [],
            classification=classification,
            status=history.status,
            violation=history.violation,
            returned_values=returned,
        )


def run_all_checks(
    history: ExecutionHistory, byz_readers: frozenset[int] = frozenset()
) -> CheckReport:
    """Run every property check over one recorded run."""
    return Analysis(history, byz_readers).report()
