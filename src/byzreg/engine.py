"""Deterministic step scheduler, execution runner and schedule enumerator.

A run interleaves one enabled process step at a time.  Its schedule
source (seeded random, round robin, or a scripted step list) hands out
whole rounds of pids, and one loop takes each pid in turn, skips it if
it is not enabled then, and steps its machine in place; an in-place
``step_process`` is a round of one pid through that loop.
Identical inputs produce byte-identical histories.  The enumerator
explores the interleavings of a micro workload up to a depth bound,
pruning each state it has seen before (see enumerate_schedules for what
that bound then covers).  It steps one tabled simulation and undoes each
step on the way back.  A simulation logs its schedule, and its bank the
register trace, in flat lists, so a yielded history copies them.
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
    export_trace,
    initial_state,
    merged_trace,
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
        # the events without their steps, as (prev, pid, kind, op, value)
        # cons cells: the enumerator's state key, built as events happen
        self.key_node: tuple | None = None
        self.step = 0

    def invoke(self, pid: ProcessId, op: str, value=None):
        self.events.append(HliEvent(pid, "invoke", op, value, self.step))
        self.key_node = (self.key_node, pid, "invoke", op, value)

    def response(self, pid: ProcessId, op: str, value=None):
        self.events.append(HliEvent(pid, "response", op, value, self.step))
        self.key_node = (self.key_node, pid, "response", op, value)


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
    """Recorded high-level events plus the register trace, in copies of
    the flat logs its simulation and bank kept (``RegisterBank``).

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


class _EventLog:
    """Stands in for the recorder the first time a tabled step is taken,
    keeping its calls so that every later take replays them."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls: list[tuple] = []

    def invoke(self, pid: ProcessId, op: str, value=None):
        self.calls.append((HistoryRecorder.invoke, pid, op, value))

    def response(self, pid: ProcessId, op: str, value=None):
        self.calls.append((HistoryRecorder.response, pid, op, value))


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
    a view, a tuple or an int that no step changes in place.

    The schedule and the bank's register trace are flat lists in both
    modes, so undoing a step truncates them.  Stepped in place, the bank
    logs a read as flat entries of a read log apart from its write
    events (``RegisterBank``), so a step keeps no object alive for the
    cyclic collector to walk but the event of a write.
    """

    def __init__(
        self,
        cfg: Config,
        machines: dict[ProcessId, ProcessMachine],
        bank: RegisterBank,
        recorder: HistoryRecorder | None = None,
        scheme: str = "keyed",
        key_seed: int = 0,
    ):
        self.cfg = cfg
        self.machines = machines
        self.bank = bank
        self.recorder = recorder or HistoryRecorder()
        self.order = sorted(machines)
        # enabled() and done() depend only on a machine's own state, so
        # both views change only for the process that steps; they are
        # replaced, never mutated, so an undo restores them by assignment
        self._enabled = [pid for pid in self.order if machines[pid].enabled()]
        self._unfinished = frozenset(pid for pid in self.order if not machines[pid].done())
        # processes whose machines read the bank beyond their op's result:
        # the ones that override bank_key
        self._bank_keyed = tuple(
            pid for pid in self.order
            if type(machines[pid]).bank_key is not ProcessMachine.bank_key
        )
        # machine key -> its canonical machine, canonical machine -> (its
        # op, the op's class, the content id of what it writes, {outcome
        # key: (canonical successor, recorder calls, violation)}), state key
        # part or cell content -> the small int standing for it, and the
        # cells' content ids, a tuple that a write changing one replaces;
        # None to step in place
        self._canon: dict | None = None
        self._table: dict | None = None
        self._parts: dict | None = None
        self._cell_ids: tuple[int, ...] | None = None
        # the part ids of the cell ids, the event key and the bank keys,
        # each set where a step changes what it stands for; the bank id is
        # None until _bank_part derives it again
        self._cells_id: int | None = None
        self._events_id: int | None = None
        self._bank_id: int | None = None
        self.steps = 0
        self.status: str | None = None
        self.violation: str | None = None
        self._sched: list[ProcessId] = []
        # one tuple per tabled step, of what it changed (see undo)
        self._undo: list[tuple] = []
        self.scheme = scheme
        self.key_seed = key_seed

    @property
    def sched_log(self) -> list[ProcessId]:
        return self._sched.copy()

    def enabled_pids(self) -> list[ProcessId]:
        """Enabled processes in pid order (shared: do not mutate)."""
        return self._enabled

    def workload_complete(self) -> bool:
        return not self._unfinished

    def step_process(self, pid: ProcessId) -> None:
        """Perform one op of ``pid``'s machine and apply its result: a
        write stores the op's value, and ``apply`` gets what the read
        returned (see registers.py).  Stepped in place, this is a round of
        one pid (``_step_rounds``), so ``pid`` steps only if it is enabled
        and no violation stopped the simulation.  A tabled step keys its
        outcome on the content id of the cell it read, and pushes what it
        changes for ``undo``.  The views are brought up to date only after
        a step that recorded an event (see ProcessMachine)."""
        table = self._table
        if table is None:
            self._step_rounds([pid], lambda enabled: [], self.steps + 1, 1)
            return
        steps = self.steps
        bank = self.bank
        recorder = self.recorder
        bank.current_step = recorder.step = steps
        events = recorder.key_node
        machine = self.machines[pid]
        self._sched.append(pid)
        entry = table.get(machine)
        if entry is None:
            op = machine.next_op(bank)
            entry = table[machine] = (op, _op_kind(pid, op), None, {})
        op, kind, written, outcomes = entry
        reg = content = seq = result = key = None
        if kind is WriteOp:
            reg = op.reg
            content = bank.cells[reg]
            seq = bank.write_seq[reg]
        self._undo.append((
            pid, machine, reg, content, seq, bank._writes, len(bank._trace),
            self._cell_ids, self._cells_id, self._bank_id, self._events_id,
            events, len(recorder.events), self._enabled, self._unfinished,
            self.status, self.violation,
        ))
        if kind is WriteOp:
            bank.write(reg, op.value, pid)
            if written is None:  # the first take
                parts = self._parts
                written = parts.setdefault(bank.cells[reg], len(parts))
                entry = table[machine] = (op, kind, written, outcomes)
            ids = self._cell_ids
            if ids[reg] != written:
                ids = self._cell_ids = ids[:reg] + (written,) + ids[reg + 1:]
                parts = self._parts
                self._cells_id = parts.setdefault(ids, len(parts))
            self._bank_id = None
        elif kind is ReadOp:
            result = bank.read(op.reg, pid)
            key = self._cell_ids[op.reg]
        machine = self._take(pid, machine, entry, key, result)
        self.steps = steps + 1
        if recorder.key_node is not events:
            if machine.enabled() != (pid in self._enabled):
                self._enabled = sorted(set(self._enabled) ^ {pid})
            if machine.done() == (pid in self._unfinished):
                self._unfinished = self._unfinished ^ {pid}

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
        # the views, kept in locals too: a step replaces them, never mutates them
        enabled, unfinished = self._enabled, self._unfinished
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
            events = recorder.key_node
            machine = machines[pid]
            log(pid)
            op = machine.next_op(bank)
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
            if recorder.key_node is not events:
                if machine.enabled() != (pid in enabled):
                    enabled = self._enabled = sorted(set(enabled) ^ {pid})
                if machine.done() == (pid in unfinished):
                    unfinished = self._unfinished = unfinished ^ {pid}

    def undo(self) -> None:
        """Restore the state before the last tabled step, by assignment:
        the stepping process's canonical machine, a written cell's content
        and write sequence number, the bank's write count, the carried
        part ids, the running event key, the views, the status and the
        violation, with the logs truncated to their lengths then."""
        (
            pid, machine, reg, content, seq, writes, trace_len,
            self._cell_ids, self._cells_id, self._bank_id, self._events_id,
            key_node, events_len, self._enabled, self._unfinished,
            self.status, self.violation,
        ) = self._undo.pop()
        self.machines[pid] = machine
        bank = self.bank
        if reg is not None:
            bank.cells[reg] = content
            bank.write_seq[reg] = seq
        bank._writes = writes
        del bank._trace[trace_len:]
        recorder = self.recorder
        recorder.key_node = key_node
        del recorder.events[events_len:]
        self._sched.pop()
        self.steps -= 1

    def _take(
        self, pid: ProcessId, machine: ProcessMachine, entry: tuple, key, result
    ) -> ProcessMachine:
        """Bind a tabled step's successor and replay its recorder calls and
        violation; the first take of the step computes them on a copy.  A
        step's outcome is keyed by the content id of the cell it read
        (``key``, None for a step that reads nothing), and for a process
        with a bank_key by the state's bank part too (``_bank_part``).
        Replayed recorder calls set the event part id; a step of such a
        process clears the bank part id."""
        op, _, _, outcomes = entry
        bank_keyed = pid in self._bank_keyed
        if bank_keyed:
            key = (key, self._bank_part())
        outcome = outcomes.get(key)
        if outcome is None:
            successor = copy.copy(machine)
            log = _EventLog()
            violation = None
            try:
                successor.apply(self.bank, op, result, log)
            except (ConcurrentFinalSets, EqualStampsDifferentValue) as exc:
                violation = _violation(pid, exc)
            successor = self._canon.setdefault(successor.state_key(), successor)
            outcome = outcomes[key] = (successor, log.calls, violation)
        successor, calls, violation = outcome
        self.machines[pid] = successor
        if bank_keyed:
            self._bank_id = None
        if calls:
            recorder = self.recorder
            for call, *args in calls:
                call(recorder, *args)
            parts = self._parts
            self._events_id = parts.setdefault(recorder.key_node, len(parts))
        if violation is not None:
            self.status = "protocol_violation"
            self.violation = violation
        return successor

    def _tabulate(self) -> None:
        """Step every process by a transition table from now on.  A
        machine's step is a function of its state_key, its bank_key and
        its read result, so each of its states is one canonical machine,
        never changed.  Cells are keyed by content ids: a small int per
        distinct content, from the part table, since a tuple of ints
        hashes in C and one of values would run each value's ``__hash__``
        in Python.  The part ids of the cell ids and the event key are
        carried from here on, and the bank keys' once ``_bank_part`` first
        derives it."""
        self.bank.tabulate()
        self._canon = {}
        self._table = {}
        parts = self._parts = {}
        ids = self._cell_ids = tuple(parts.setdefault(c, len(parts)) for c in self.bank.cells)
        self._cells_id = parts.setdefault(ids, len(parts))
        self._events_id = parts.setdefault(self.recorder.key_node, len(parts))
        for pid in self.order:
            machine = self.machines[pid]
            self.machines[pid] = self._canon.setdefault(machine.state_key(), machine)

    def _bank_part(self) -> int:
        """The part id of the bank keys, ``bank_key`` of each process that
        has one in pid order; derived again only after a write or a step
        of such a process cleared it."""
        part = self._bank_id
        if part is None:
            machines = self.machines
            bank = self.bank
            keys = tuple([machines[pid].bank_key(bank) for pid in self._bank_keyed])
            parts = self._parts
            part = self._bank_id = parts.setdefault(keys, len(parts))
        return part

    def history(self, status: str) -> ExecutionHistory:
        register_events, read_log = self.bank.logs()
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
        step that changes its part, and the bank keys are derived again
        only after a write or a step of a process that has one
        (``_bank_part``), so building the key hashes nothing.  Write
        sequence numbers stay out: rewrites of equal content change no
        future behavior, and the one order they carry that a machine reads,
        the correct writer's ack freshness, enters through
        ``WriterMachine.bank_key``.  The key relates states exactly as a key
        rebuilt in full does."""
        return (
            *map(self.machines.__getitem__, self.order),
            self._bank_part(),
            self._cells_id,
            self._events_id,
            self.status,
        )


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
    though 16 completed states lie within 30 steps).  Intended for n <= 4
    and one or two operations per process.
    """
    if depth_bound > MAX_ENUM_DEPTH:
        raise BoundTooLarge(f"depth_bound {depth_bound} > {MAX_ENUM_DEPTH}")
    seen: set = set()
    sim = _root_simulation(cfg, strategies, workload, u0, scheme, key_seed)
    sim._tabulate()
    step, undo = sim.step_process, sim.undo
    # per state on the current path, the processes it has yet to step, in
    # pid order; each child's key is tested once it is stepped
    frames: list[Iterator[ProcessId]] = []
    visited = 0
    while True:
        children = ()
        # one hash of the key: a set that does not grow held it already
        size = len(seen)
        seen.add(sim.state_key())
        if len(seen) > size:
            visited += 1
            if visited > node_cap:
                raise BoundTooLarge(f"explored more than {node_cap} states")
            if sim.status is not None or not sim._unfinished:
                if sim.status is None:  # not a protocol violation
                    yield sim.history("completed")
            elif sim.steps < depth_bound:
                children = sim._enabled
        frames.append(iter(children))
        # step to the next child on the path, undoing every state whose
        # children are all explored
        while frames:
            pid = next(frames[-1], None)
            if pid is not None:
                break
            frames.pop()
            if frames:
                undo()
        else:
            return
        step(pid)
