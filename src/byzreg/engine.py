"""Deterministic step scheduler, execution runner and schedule enumerator.

A run interleaves one enabled process step at a time.  Its schedule
source (seeded random, round robin, or a scripted step list) hands out
whole rounds of pids, and one loop takes each pid in turn, skips it if
it is not enabled then, and steps its machine in place; an in-place
``step_process`` is a round of one pid through that loop.
Identical inputs produce byte-identical histories.  The enumerator
explores the interleavings of a micro workload up to a depth bound,
pruning each state it has seen before (see enumerate_schedules for what
that bound then covers).  It walks one tabled simulation depth first in
one loop that steps, keys each state reached and undoes each step on the
way back; a tabled ``step_process`` and ``undo`` are walks of one edge
through that loop.  A simulation logs its schedule in a flat list.  A
run's bank logs the register trace, and a yielded history copies it; the
tabled walk logs no register event, and a yielded history rebuilds them
from the undo stack.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import crypto
from .core import WRITER, Config, EqualStampsDifferentValue, ProcessId, TaggedValue
from .protocol import ConcurrentFinalSets, ProcessMachine
from .registers import (
    FAMILY,
    Family,
    READ_FIELDS,
    InitialState,
    LocalOp,
    ReadOp,
    RegisterBank,
    TraceEvent,
    WriteOp,
    bank_init,
    cell_content,
    export_trace,
    initial_state,
    merged_trace,
    read_content,
)


class StepLimitExhausted(Exception):
    """The step budget ran out before the workload completed.

    Carries the partial history so liveness failures can still be
    inspected by the safety checks.
    """

    def __init__(self, history: "ExecutionHistory"):
        super().__init__(f"step limit hit after {history.steps} steps")
        self.history = history


class BoundTooLarge(Exception):
    """Enumeration bound above the configured explosion threshold."""


# slotted rather than frozen, as the register records are (see registers.py)
@dataclass(slots=True, unsafe_hash=True)
class HliEvent:
    process: ProcessId
    kind: str  # "invoke" | "response"
    op: str  # "read" | "write"
    value: TaggedValue | None
    step: int


@dataclass(slots=True, unsafe_hash=True)
class HliOp:
    process: ProcessId
    op: str  # "read" | "write"
    invoke_step: int
    response_step: int | None
    invoke_value: TaggedValue | None
    response_value: TaggedValue | None
    index: int  # position among this process's ops


class HistoryRecorder:
    def __init__(self):
        self.events: list[HliEvent] = []
        # the event recorded last, which a step loop tests by identity to
        # tell whether a step recorded one
        self.last: HliEvent | None = None
        self.step = 0

    def invoke(self, pid: ProcessId, op: str, value=None):
        event = self.last = HliEvent(pid, "invoke", op, value, self.step)
        self.events.append(event)

    def response(self, pid: ProcessId, op: str, value=None):
        event = self.last = HliEvent(pid, "response", op, value, self.step)
        self.events.append(event)


class FamilyWrites(NamedTuple):
    """A trace's write events per register family, each in trace order,
    in fields named by the families' values."""

    init: list[TraceEvent]
    ack: list[TraceEvent]
    witness: list[TraceEvent]
    inform: list[TraceEvent]
    final: list[TraceEvent]


assert FamilyWrites._fields == tuple(family.value for family in Family)


class _view:
    """A view of a history, derived on first access and stored in the
    instance dict, which shadows this non-data descriptor from then on.
    functools.cached_property does the same, but takes a lock on every
    first access."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass
class ExecutionHistory:
    """Recorded high-level events plus the register trace: copies of the
    flat logs its simulation and bank kept (``RegisterBank``), or for an
    enumerated history, the trace its simulation rebuilt.

    An enumerated history, like one built by hand, passes every register
    event as a ``TraceEvent`` in ``register_events``.  A run stepped in
    place passes only its writes there, and its reads as the flat
    ``read_log``.  The checker's passes read the writes alone
    (``family_writes``), and the substrate check and the export walk the
    read log as it is, so checking and digesting such a run builds no
    object per read.  ``trace`` merges the two logs in recording order
    on first access.
    """

    cfg: Config
    u0: bytes
    hli_events: list[HliEvent]
    register_events: list[TraceEvent]
    status: str = "completed"  # completed | step_limit | protocol_violation
    violation: str | None = None
    steps: int = 0
    sched_log: list[ProcessId] = field(default_factory=list)
    scheme: str = "keyed"
    key_seed: int = 0
    read_log: Sequence = ()  # READ_FIELDS entries per read

    def keyring(self) -> crypto.KeyRing:
        """The key ring this run signed with (derivable, so checkers never
        need it passed alongside)."""
        return crypto.make_keyring(self.cfg, self.scheme, self.key_seed)

    @property
    def trace_length(self) -> int:
        """The number of register events, counted without merging."""
        return len(self.register_events) + len(self.read_log) // READ_FIELDS

    @_view
    def trace(self) -> list[TraceEvent]:
        """Every register event in recording order (``merged_trace``)."""
        return merged_trace(self.register_events, self.read_log)

    @_view
    def initial(self) -> InitialState:
        """The state the run started from, memoized on its key ring."""
        return initial_state(self.keyring(), self.cfg, self.u0)

    @_view
    def ops(self) -> list[HliOp]:
        """Invoke/response events paired into operations, per process;
        pending operations follow the completed ones in process order."""
        open_ops: dict[ProcessId, HliEvent] = {}
        counters: dict[ProcessId, int] = {}
        ops: list[HliOp] = []
        for ev in self.hli_events:
            if ev.kind == "invoke":
                if ev.process in open_ops:
                    raise ValueError(f"nested invoke at {ev.process}")
                open_ops[ev.process] = ev
            else:
                start = open_ops.pop(ev.process, None)
                if start is None:
                    raise ValueError(f"response without invoke at {ev.process}")
                idx = counters.get(ev.process, 0)
                counters[ev.process] = idx + 1
                ops.append(
                    HliOp(ev.process, ev.op, start.step, ev.step, start.value, ev.value, idx)
                )
        for pid, start in sorted(open_ops.items()):
            idx = counters.get(pid, 0)
            counters[pid] = idx + 1
            ops.append(HliOp(pid, start.op, start.step, None, start.value, None, idx))
        return ops

    @_view
    def completed_reads(self) -> list[HliOp]:
        """The completed reads, in ``ops`` order: the correct readers'
        (a Byzantine reader records no high-level operation)."""
        return [
            o
            for o in self.ops
            if o.op == "read" and o.process != WRITER and o.response_step is not None
        ]

    @_view
    def writes(self) -> list[HliOp]:
        """The writer's write operations, in ``ops`` order."""
        return [o for o in self.ops if o.op == "write" and o.process == WRITER]

    @_view
    def family_writes(self) -> FamilyWrites:
        """The trace's write events per register family, in trace order,
        so that a checker pass over one family skips the other events.
        Read from ``register_events``, which a run stepped in place keeps
        free of reads.  Read by field: an Enum member, as a key, hashes
        in Python."""
        out = FamilyWrites([], [], [], [], [])
        # keyed by the family's value, a string whose hash is cached; each
        # of the run's slots then indexes its family's list
        by_value = dict(zip(FamilyWrites._fields, out))
        slots = FAMILY[: len(self.initial.cells)]
        by_slot = [by_value[family._value_] for family in slots]
        for ev in self.register_events:
            if ev.op == "write":
                by_slot[ev.reg].append(ev)
        return out

    def export_records(self) -> Iterator[str]:
        meta = {
            "n": self.cfg.n,
            "t": self.cfg.t,
            "status": self.status,
            "steps": self.steps,
            "violation": self.violation,
        }
        yield json.dumps({"run": meta}, sort_keys=True)
        for ev in self.hli_events:
            yield json.dumps(
                {
                    "event": ev.kind,
                    "op": ev.op,
                    "process": str(ev.process),
                    "step": ev.step,
                    "value": None if ev.value is None else str(ev.value),
                },
                sort_keys=True,
            )
        yield from export_trace(self.register_events, self.read_log)

    def digest(self) -> str:
        return records_digest(self.export_records())


def records_digest(records: Iterable[str]) -> str:
    """SHA-256 hex digest of the records, each newline-terminated."""
    h = hashlib.sha256()
    for line in records:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    """Per-process high-level operations: payloads the writer writes and
    read counts per reader."""

    writes: tuple[bytes, ...] = ()
    reads: tuple[tuple[int, int], ...] = ()  # (reader index, read count)
    read_gap: int = 0

    @classmethod
    def make(
        cls,
        writes: Sequence[bytes] = (),
        reads: Mapping[int, int] | None = None,
        read_gap: int = 0,
    ) -> "Workload":
        pairs = tuple(sorted((reads or {}).items()))
        return cls(tuple(bytes(w) for w in writes), pairs, read_gap)

    def reads_for(self, index: int) -> int:
        for i, count in self.reads:
            if i == index:
                return count
        return 0


@dataclass(frozen=True)
class SeededRandom:
    seed: int
    fair: bool = True


@dataclass(frozen=True)
class RoundRobin:
    pass


@dataclass(frozen=True)
class Scripted:
    steps: tuple[str, ...]  # process names, e.g. "w", "r3"
    then: str = "round_robin"  # fallback after the script: round_robin | stop


Schedule = SeededRandom | RoundRobin | Scripted


@functools.cache
def _draw_widths(n: int) -> tuple[tuple[int, int], ...]:
    """The bound and bit width of each draw random.shuffle makes for n items."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


class _RandomChooser:
    def __init__(self, spec: SeededRandom):
        self.rng = random.Random(spec.seed)
        self.fair = spec.fair

    def next_round(self, enabled):
        if not self.fair:
            return [enabled[self.rng.randrange(len(enabled))]]
        # a shuffled round of the enabled processes, with random.shuffle's
        # draws made inline: the same getrandbits calls and rejection loop
        # as its _randbelow
        order = list(enabled)
        getrandbits = self.rng.getrandbits
        for i, k in _draw_widths(len(order)):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        return order


class _ScriptedChooser:
    """The script as one round, then round robin, which takes every
    process in pid order each round, or with ``then="stop"`` an empty
    round.  A round is taken whole before the next is asked for, so
    every round-robin round is the same."""

    def __init__(self, spec: Scripted, pids: Sequence[ProcessId]):
        # names that match no process of the run are skipped for good
        by_name = {str(pid): pid for pid in pids}
        self.script = [by_name[name] for name in reversed(spec.steps) if name in by_name]
        self.rotation = sorted(pids, reverse=True) if spec.then == "round_robin" else []

    def next_round(self, enabled):
        script, self.script = self.script, self.rotation
        return (script or self.rotation).copy()


def make_chooser(schedule: Schedule, pids: Sequence[ProcessId]):
    """The schedule's source of rounds: ``next_round(enabled)`` returns the
    next round of pids to try, taken from its end; ``run`` skips a pid not
    enabled when it is taken, and an empty round ends the run."""
    if isinstance(schedule, SeededRandom):
        return _RandomChooser(schedule)
    if isinstance(schedule, RoundRobin):
        return _ScriptedChooser(Scripted(()), pids)
    if isinstance(schedule, Scripted):
        return _ScriptedChooser(schedule, pids)
    raise TypeError(f"unknown schedule {schedule!r}")


def _op_kind(pid: ProcessId, op) -> type:
    """The op class ``op`` is an instance of, so that a step dispatches on
    it; TypeError for anything else a machine produced."""
    for kind in (WriteOp, ReadOp, LocalOp):
        if isinstance(op, kind):
            return kind
    raise TypeError(f"machine {pid} produced {op!r}")


def _violation(pid: ProcessId, exc: Exception) -> str:
    kind = (
        "concurrent_final_sets"
        if isinstance(exc, ConcurrentFinalSets)
        else "equal_stamps_different_value"
    )
    return f"{kind} at {pid}: {exc}"


class Simulation:
    """Sole owner of all mutable state during a run.

    A run steps each machine in place.  An enumeration steps every
    machine by table instead (``_tabulate``): each machine state is one
    canonical machine, never changed, and a step replaces it with the
    canonical successor.  Only a tabled simulation is keyed, and only a
    tabled step can be undone (``undo``): it pushes what it changes onto
    an undo stack, and every part of the state it replaces is a machine,
    a set, a tuple or an int that no step changes in place.  The tabled
    step, its undo and the state key exist once, in the enumerator's
    loop (``_walk``); ``step_process``, ``undo`` and ``state_key`` walk
    one edge, back out of one, or key the state through it.

    The schedule and the high-level events are flat lists in both modes,
    which undoing a step truncates.  Stepped in place, the bank logs each
    register op: a write as a ``TraceEvent`` and a read as flat entries
    of a read log (``RegisterBank``), so a step keeps no object alive for
    the cyclic collector to walk but the event of a write.  A tabled step
    goes around the bank's read and write and logs no register event:
    the undo stack holds the path, so ``history`` rebuilds the trace from
    it, paying per yielded history rather than per edge.
    """

    def __init__(
        self,
        cfg: Config,
        machines: dict[ProcessId, ProcessMachine],
        bank: RegisterBank,
        scheme: str = "keyed",
        key_seed: int = 0,
    ):
        self.cfg = cfg
        self.machines = machines
        self.bank = bank
        self.recorder = HistoryRecorder()
        # who may step: every reader, and the writer while it is unfinished
        self.order = sorted(machines)
        self._readers = [pid for pid in self.order if pid != WRITER]
        # done() depends only on a machine's own state, so the unfinished
        # set changes only for the process that steps; it is replaced,
        # never mutated, so an undo restores it by assignment
        self._unfinished = frozenset(pid for pid in self.order if not machines[pid].done())
        # machine key -> its canonical machine, once tabled (_tabulate);
        # None to step in place
        self._table: dict | None = None
        self.steps = 0
        self.status: str | None = None
        self.violation: str | None = None
        self._sched: list[ProcessId] = []
        self.scheme = scheme
        self.key_seed = key_seed

    @property
    def sched_log(self) -> list[ProcessId]:
        return self._sched.copy()

    def enabled_pids(self) -> list[ProcessId]:
        """Enabled processes in pid order (shared: do not mutate)."""
        return self.order if WRITER in self._unfinished else self._readers

    def workload_complete(self) -> bool:
        return not self._unfinished

    def step_process(self, pid: ProcessId) -> None:
        """Perform one op of ``pid``'s machine and apply its result: a
        write stores the op's value, and ``apply`` gets what the read
        returned (see registers.py).  ``pid`` steps only if it is enabled
        and no violation stopped the simulation.  Stepped in place, this
        is a round of one pid (``_step_rounds``); by table, a walk of one
        edge (``_walk``), which pushes what the step changes for
        ``undo``.  The unfinished set is brought up to date only after a
        step that recorded an event (see ProcessMachine)."""
        if self._table is None:
            self._step_rounds([pid], lambda enabled: [], self.steps + 1, 1)
        elif self.status is None and pid in self.enabled_pids():
            self._walk([iter((pid,))])

    def _step_rounds(self, order: list, next_round, step_limit: int, settle_steps: int) -> None:
        """Step machines in place, taking pids from the end of ``order``
        and then of each round ``next_round(enabled)`` returns, skipping a
        pid not enabled when taken.  Stops at ``step_limit`` steps, at a
        violation, at an empty round, when nothing is enabled, or after
        ``settle_steps`` steps once the workload is complete."""
        machines = self.machines
        bank = self.bank
        read, write = bank.read, bank.write
        recorder = self.recorder
        log = self._sched.append
        steps = self.steps
        # the unfinished set and who may step, kept in locals: a step
        # replaces them, never mutates them
        unfinished = self._unfinished
        enabled = self.enabled_pids()
        while steps < step_limit and self.status is None:
            if not unfinished:
                if settle_steps <= 0:
                    break
                settle_steps -= 1
            if not enabled:
                break
            while order or (order := next_round(enabled)):
                pid = order.pop()
                if pid in enabled:
                    break
            else:  # an empty round
                break
            bank.current_step = recorder.step = steps
            last = recorder.last
            machine = machines[pid]
            log(pid)
            op = machine.next_op()
            kind = type(op)
            if kind is not ReadOp and kind is not WriteOp and kind is not LocalOp:
                kind = _op_kind(pid, op)
            result = None
            if kind is ReadOp:
                result = read(op.reg, pid)
            elif kind is WriteOp:
                write(op.reg, op.value, pid)
            try:
                machine.apply(bank, op, result, recorder)
            except (ConcurrentFinalSets, EqualStampsDifferentValue) as exc:
                self.status = "protocol_violation"
                self.violation = _violation(pid, exc)
            self.steps = steps = steps + 1
            if recorder.last is not last and machine.done() == (pid in unfinished):
                unfinished = self._unfinished = unfinished ^ {pid}
                enabled = self.enabled_pids()

    def undo(self) -> None:
        """Restore the state before the last tabled step, by assignment:
        a walk that backs out of one edge (``_walk``).  ValueError for a
        simulation stepped in place, and for one with no tabled step to
        undo."""
        if self._table is None:
            raise ValueError("only a tabled step can be undone: this simulation steps in place")
        if not self._undo:
            raise ValueError("no tabled step to undo")
        self._walk([iter(()), iter(())])

    def _walk(self, frames: list, seen: dict | None = None, depth_bound: int = 0,
              node_cap: int = 0, exact_depth: bool = False) -> bool:
        """Walk the tabled simulation depth first, stepping and undoing
        in one loop.  ``frames`` lists, per state on the path, an iterator
        over the processes it has yet to step; a spent one is left by
        undoing the step into its state, and the walk ends when none is
        left (False).  With a visited map ``seen``, each state reached is
        keyed (``state_key``) and, if new, visited: the walk stops at a
        completed one (True) before giving it a frame, so the next walk
        finds it visited and backs out, and any other gets a frame of its
        enabled processes while within ``depth_bound`` steps; more than
        ``node_cap`` states raise BoundTooLarge.  ``seen`` maps each key to
        the steps left at its latest visit; with ``exact_depth``, an
        unfinished state reached again with more steps left is visited
        again.  With no map, it takes one step and ends.  The tabled
        state lives in locals, written back when the walk ends.

        A step's table entry, made at its machine's first take, holds its
        op, checked against the bank's access rule then, and for a write
        the cell content and its content id; a step stores that content
        and a read takes the cell's content id, decoding the cell only to
        find an outcome not yet tabled.  The entry gives the successor per
        content id read (paired, for a process with a bank_key, with the
        bank part before the step); the undo tuple a step pushes is what
        it replaces, and it logs no register event (see ``history``).  The
        bank part id is cleared by a step of such a process or a write to
        a register in ``bank_regs``, and derived again at the top of the
        loop."""
        machines, bank = self.machines, self.bank
        cells, write_seq = bank.cells, bank.write_seq
        hli = self.recorder.events
        table, canon, parts = self._table, self._canon, self._parts
        order, readers = self.order, self._readers
        bank_keyed, bank_regs = self._bank_keyed, self._bank_regs
        getm = machines.__getitem__
        sched = self._sched
        push, pop = self._undo.append, self._undo.pop
        cell_ids, cells_id, bank_id, events_id, event_key = (
            self._cell_ids, self._cells_id, self._bank_id, self._events_id, self._event_key
        )
        unfinished = self._unfinished
        status, violation, steps = self.status, self.violation, self.steps
        try:
            while True:
                if bank_id is None:
                    keys = tuple([machines[p].bank_key(bank) for p in bank_keyed])
                    bank_id = parts.setdefault(keys, len(parts))
                if seen is not None:
                    # one hash of the key: a map that does not grow held it
                    # already, with the steps left at its latest visit
                    size = len(seen)
                    left = depth_bound - steps
                    key = (*map(getm, order), bank_id, cells_id, events_id, status)
                    before = seen.setdefault(key, left)
                    children = ()
                    if len(seen) > size:
                        if size >= node_cap:
                            raise BoundTooLarge(f"explored more than {node_cap} states")
                        if status is not None or not unfinished:
                            if status is None:  # not a protocol violation
                                return True
                        elif left > 0:
                            children = order if WRITER in unfinished else readers
                    elif exact_depth and before < left and status is None and unfinished:
                        # reached again with more steps left: its successors
                        # are within reach of more of the bound
                        seen[key] = left
                        children = order if WRITER in unfinished else readers
                    frames.append(iter(children))
                # the next process to step, undoing the step into every
                # state whose processes are all stepped
                while frames:
                    pid = next(frames[-1], None)
                    if pid is not None:
                        break
                    frames.pop()
                    if frames:
                        (pid, machine, reg, content, seq, cell_ids, cells_id, bank_id,
                         events_id, event_key, hli_len, unfinished, status, violation) = pop()
                        machines[pid] = machine
                        if reg is not None:
                            cells[reg] = content
                            write_seq[reg] = seq
                            bank._writes -= 1
                        del hli[hli_len:]
                        sched.pop()
                        steps -= 1
                else:
                    return False
                machine = machines[pid]
                entry = table.get(machine)
                if entry is None:
                    entry = table[machine] = self._entry(pid, machine)
                op, kind, written, outcomes = entry
                reg = content = seq = read_id = None
                if kind is WriteOp:
                    reg = op.reg
                    content = cells[reg]
                    seq = write_seq[reg]
                push((pid, machine, reg, content, seq, cell_ids, cells_id, bank_id,
                      events_id, event_key, len(hli), unfinished, status, violation))
                sched.append(pid)
                if kind is WriteOp:
                    content, written = written
                    cells[reg] = content
                    bank._writes += 1
                    write_seq[reg] = bank._writes
                    if cell_ids[reg] != written:
                        cell_ids = cell_ids[:reg] + (written,) + cell_ids[reg + 1:]
                        cells_id = parts.setdefault(cell_ids, len(parts))
                elif kind is ReadOp:
                    read_id = cell_ids[op.reg]
                keyed = pid in bank_keyed
                if keyed:
                    read_id = (read_id, bank_id)
                outcome = outcomes.get(read_id)
                if outcome is None:
                    result = None
                    if kind is ReadOp:
                        result = read_content(FAMILY[op.reg], cells[op.reg])
                    successor = copy.copy(machine)
                    log = HistoryRecorder()
                    fault = None
                    try:
                        successor.apply(bank, op, result, log)
                    except (ConcurrentFinalSets, EqualStampsDifferentValue) as exc:
                        fault = _violation(pid, exc)
                    successor = canon.setdefault(successor.state_key(), successor)
                    events = [(e.process, e.kind, e.op, e.value) for e in log.events]
                    outcome = outcomes[read_id] = (successor, events, fault, successor.done())
                successor, events, fault, now_done = outcome
                machines[pid] = successor
                if keyed or reg in bank_regs:
                    bank_id = None
                if events:
                    for event in events:
                        hli.append(HliEvent(*event, steps))
                        event_key = (event_key, *event)
                    events_id = parts.setdefault(event_key, len(parts))
                    if now_done == (pid in unfinished):
                        unfinished = unfinished ^ {pid}
                if fault is not None:
                    status = "protocol_violation"
                    violation = fault
                steps += 1
                if seen is None:
                    return False
        finally:
            (self._cell_ids, self._cells_id, self._bank_id, self._events_id,
             self._event_key, self._unfinished, self.status, self.violation,
             self.steps) = (cell_ids, cells_id, bank_id, events_id, event_key,
                            unfinished, status, violation, steps)

    def _entry(self, pid: ProcessId, machine: ProcessMachine) -> tuple:
        """The table entry of a canonical machine's step: its op, checked
        against the bank's access rule, the op's class, for a write the
        cell content it stores and that content's id, and its outcomes,
        none yet."""
        op = machine.next_op()
        kind = _op_kind(pid, op)
        written = None
        if kind is WriteOp:
            self.bank.check("write", op.reg, pid)
            content = cell_content(op.reg, op.value)
            written = (content, self._parts.setdefault(content, len(self._parts)))
        elif kind is ReadOp:
            self.bank.check("read", op.reg, pid)
        return (op, kind, written, {})

    def _tabulate(self) -> None:
        """Step every process by a transition table from now on.  A
        machine's step is a function of its state_key, its bank_key and
        its read result, so each of its states is one canonical machine,
        never changed.  Cells are keyed by content ids: a small int per
        distinct content, from the part table, since a tuple of ints
        hashes in C and one of values would run each value's ``__hash__``
        in Python.  The part ids of the cell ids and the event key are
        carried from here on, and the bank keys' once a walk first
        derives it.  The event key, ``(prev, pid, kind, op, value)`` cons
        cells, covers only the events recorded from here on: every state
        of one search shares those recorded before.  The bank's trace so
        far is kept as it is now, to start every history from.  From here
        on only tabled steps change the bank: the cell ids, the table and
        the rebuilt trace know no op made on it directly."""
        machines = self.machines
        # processes whose machines read the bank beyond their op's result:
        # the ones that override bank_key, and the registers whose write
        # order their bank keys read
        self._bank_keyed = tuple(
            pid for pid in self.order
            if type(machines[pid]).bank_key is not ProcessMachine.bank_key
        )
        self._bank_regs = frozenset(
            reg for pid in self._bank_keyed for reg in machines[pid].bank_regs()
        )
        # machine key -> its canonical machine, canonical machine -> (its
        # op, the op's class, for a write the content it stores and its
        # id, {outcome key: (canonical successor, events, violation,
        # done)}), state key part or cell content -> the small int
        # standing for it, and the cells' content ids, a tuple that a
        # write changing one replaces
        self._canon = {}
        self._table = {}
        parts = self._parts = {}
        ids = self._cell_ids = tuple(parts.setdefault(c, len(parts)) for c in self.bank.cells)
        # the part ids of the cell ids, the event key and the bank keys,
        # each set where a step changes what it stands for; the bank id is
        # None until a walk derives it again
        self._cells_id = parts.setdefault(ids, len(parts))
        self._event_key = None
        self._events_id = parts.setdefault(None, len(parts))
        self._bank_id = None
        # the keys of the states the search visited, one tuple per step,
        # of what it changed (see undo), and the register events before
        # the first
        self._seen: dict = {}
        self._undo: list[tuple] = []
        self._trace_before = self.bank.trace
        for pid in self.order:
            machine = machines[pid]
            machines[pid] = self._canon.setdefault(machine.state_key(), machine)

    def _tabled_trace(self) -> list[TraceEvent]:
        """The register events of a tabled simulation: the bank's trace
        when it was tabled, then one event per register op on the undo
        stack, rebuilt from its table entry.  A write's event holds the
        content its entry stores, and a read's what the cell held: the
        cells are replayed back from their contents now, each write's
        undo tuple giving what its cell held before it."""
        table = self._table
        cells = self.bank.cells.copy()
        step = self.steps
        events: list[TraceEvent] = []
        for _, machine, reg, content, *_ in reversed(self._undo):
            step -= 1
            op, kind, written, _ = table[machine]
            if kind is WriteOp:
                events.append(TraceEvent(step, "write", reg, written[0]))
                cells[reg] = content
            elif kind is ReadOp:
                events.append(TraceEvent(step, "read", op.reg, cells[op.reg]))
        events.reverse()
        return self._trace_before + events

    def history(self, status: str) -> ExecutionHistory:
        """The run so far, ended with ``status``: copies of the bank's
        logs, or once tabled, the trace rebuilt from the undo stack."""
        if self._table is None:
            register_events, read_log = self.bank.logs()
        else:
            register_events, read_log = self._tabled_trace(), []
        return ExecutionHistory(
            cfg=self.cfg,
            u0=self.bank.u0,
            hli_events=self.recorder.events.copy(),
            register_events=register_events,
            read_log=read_log,
            status=status,
            violation=self.violation,
            steps=self.steps,
            sched_log=self.sched_log,
            scheme=self.scheme,
            key_seed=self.key_seed,
        )

    def state_key(self):
        """The machine, bank and event state of a tabled simulation,
        without step indices: two prefixes reaching the same state have
        identical futures.  It is the flat tuple ``(*canonical machines in
        pid order, bank keys, cells, event key, status)``: a machine stands
        for its own key, and the bank keys, the cells' content ids and the
        event key each enter as the small int the enumeration's part table
        gives that value, so the tuple is the one object a stored state
        allocates.  The simulation carries those three ids, each set by the
        step that changes its part (see ``_walk``), so building the key
        hashes nothing.  Write sequence numbers stay out: rewrites of
        equal content change no future behavior, and the one order they
        carry that a machine reads, the correct writer's ack freshness,
        enters through ``WriterMachine.bank_key``.  The key relates states
        exactly as a key rebuilt in full does.  Built by a walk of no edge,
        which keys the state as a search does."""
        seen: dict = {}
        self._walk([], seen, 0, 1)
        return next(iter(seen))


def _root_simulation(cfg, strategies, workload, u0, scheme, key_seed) -> Simulation:
    """A run's initial state; no strategies means every process is correct."""
    from . import adversary  # machines are strategy-built; import cycle avoided

    if strategies is None:
        strategies = adversary.StrategyAssignment()
    ring = crypto.make_keyring(cfg, scheme, key_seed)
    bank = bank_init(cfg, u0, ring)
    machines = adversary.build_machines(cfg, strategies, workload, ring, u0)
    return Simulation(cfg, machines, bank, scheme=scheme, key_seed=key_seed)


def run(
    cfg: Config,
    strategies,
    workload: Workload,
    schedule: Schedule,
    step_limit: int,
    *,
    u0: bytes = b"init",
    scheme: str = "keyed",
    key_seed: int = 0,
    settle_steps: int = 0,
    raise_on_limit: bool = True,
) -> ExecutionHistory:
    """Execute one deterministic run and return its complete history.

    Raises StepLimitExhausted (carrying the partial history) when the
    workload does not complete within step_limit; pass
    raise_on_limit=False to get the partial history back instead.
    """
    if step_limit <= 0:
        raise ValueError("step_limit must be positive")
    sim = _root_simulation(cfg, strategies, workload, u0, scheme, key_seed)
    sim._step_rounds([], make_chooser(schedule, sim.order).next_round, step_limit, settle_steps)
    if sim.status is not None:
        status = sim.status
    elif sim.workload_complete():
        status = "completed"
    else:
        status = "step_limit"
    history = sim.history(status)
    if status == "step_limit" and raise_on_limit:
        raise StepLimitExhausted(history)
    return history


MAX_ENUM_DEPTH = 500


def enumerate_schedules(
    cfg: Config,
    workload: Workload,
    depth_bound: int,
    *,
    strategies=None,
    u0: bytes = b"init",
    scheme: str = "keyed",
    key_seed: int = 0,
    node_cap: int = 400_000,
    exact_depth: bool = False,
) -> Iterator[ExecutionHistory]:
    """Yield the history of every completed state the depth-first search
    reaches within depth_bound steps, once each.

    Convergent prefixes (identical machine, register and event state) are
    pruned, whatever their length: the visited set ignores depth, so a
    state first reached by a path that hits the bound blocks its shorter
    paths, and interleavings that complete the workload within
    depth_bound steps past such a state are not yielded.  So depth_bound
    bounds the search; it does not promise every interleaving of that
    length (at n=2 with one write and no read, depth 30 yields none,
    though 16 completed states lie within 30 steps).  With exact_depth, a
    state is skipped only when it was visited with at least as many steps
    left, so every completed state within depth_bound steps is yielded,
    at the cost of visiting states again (about 9 visits per state at
    n=2, one read, depth 60).  Intended for n <= 4 and one or two
    operations per process.
    """
    if depth_bound > MAX_ENUM_DEPTH:
        raise BoundTooLarge(f"depth_bound {depth_bound} > {MAX_ENUM_DEPTH}")
    sim = _root_simulation(cfg, strategies, workload, u0, scheme, key_seed)
    sim._tabulate()
    frames: list = []
    while sim._walk(frames, sim._seen, depth_bound, node_cap, exact_depth):
        yield sim.history("completed")
