"""Simulated SWSR atomic register substrate.

Five register families connect the writer and the readers: Init and Ack
between writer and each reader, and Witness/Inform/Final between every
reader pair (3n^2 + 2n registers total).  Each register is owned by one
writer process and one reader process and every access is checked.

Cells hold what a read returns.  A write op carries the ``TaggedValue``,
``WitnessEntry``, ``WitnessSet`` or ``InformSet`` it writes, and the cell
keeps it as it is when it is an exact value of the register's family
(``core``).  Anything else a Byzantine owner writes is kept by its bytes
in the family's codec (``cell_content``): as the value they decode to
when they are its canonical encoding, and as ``Raw`` bytes otherwise,
which a read decodes, to None when they do not decode.  One register
operation is one indivisible scheduler step, and every operation lands
in an append-only trace of cell contents, encoded only on export.  A
bank stepped in place logs its reads apart from its writes, as flat
entries (``RegisterBank``); ``merged_trace`` puts the two logs back in
recording order.  Every log is a flat list, which an undone step of the
enumerator truncates.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from . import crypto
from .core import (
    Config,
    InformSet,
    InvalidInformSet,
    PartialTimestamp,
    ProcessId,
    StabilizationEvent,
    TaggedValue,
    U32,
    U64,
    WitnessEntry,
    WitnessSet,
    WRITER,
    ws_of,
)


class AccessViolation(Exception):
    """A process touched a register it does not own an end of."""


class UnknownRegister(Exception):
    """Register id not allocated in this bank."""


class _DecodeError(ValueError):
    """Cell bytes do not decode under the register family's codec.  Like
    the ValueErrors of JSON and hex parsing, only ``decode_value`` sees it:
    it returns None for such bytes."""


class Family(Enum):
    INIT = "init"
    ACK = "ack"
    WITNESS = "witness"
    INFORM = "inform"
    FINAL = "final"


class RegisterId(int):
    """A register's slot: its index in every bank's cell list.

    Slots are numbered in shells, one per reader m: reader m's Init and
    Ack registers and every Witness/Inform/Final register between m and a
    reader <= m follow all registers of readers below m.  A system of n
    readers therefore uses exactly slots 0 .. 3n^2+2n-1, and a register
    keeps its slot at every n.  The layout tables below give each slot's
    family, value class, writer end, reader end and export name; they
    grow, on first use, to the largest n seen.  Code indexes the tables
    directly.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return NAME[self]

    def __repr__(self) -> str:
        return f"RegisterId({int(self)}: {NAME[self]})"


# the layout, indexed by slot
FAMILY: list[Family] = []
VALUE_CLASS: list[type] = []  # _Codec.value_class of the slot's family
WRITER_END: list[ProcessId] = []
READER_END: list[ProcessId] = []
NAME: list[str] = []
OP_END = {"write": WRITER_END, "read": READER_END}  # the one end the bank admits per op

# slot lookup by reader indices; index 0 is unused
_INIT: list = [None]
_ACK: list = [None]
_WITNESS: list[list] = [[]]
_INFORM: list[list] = [[]]
_FINAL: list[list] = [[]]
_covered = 0  # readers whose shells are allocated


def _allocate(family: Family, w: ProcessId, r: ProcessId) -> RegisterId:
    reg = RegisterId(len(FAMILY))
    FAMILY.append(family)
    VALUE_CLASS.append(_CODECS[family].value_class)
    WRITER_END.append(w)
    READER_END.append(r)
    NAME.append(f"{family.value}[{w}->{r}]")
    return reg


def _cover(i: int, j: int = 1) -> None:
    """Allocate the shells of readers i and j and of every reader below."""
    global _covered
    if 0 < i <= _covered and 0 < j <= _covered:
        return
    if min(i, j) < 1:
        raise ValueError(f"reader index must be >= 1, got {min(i, j)}")
    for m in range(_covered + 1, max(i, j) + 1):
        rm = ProcessId(m)
        _INIT.append(_allocate(Family.INIT, WRITER, rm))
        _ACK.append(_allocate(Family.ACK, rm, WRITER))
        for family, table in (
            (Family.WITNESS, _WITNESS),
            (Family.INFORM, _INFORM),
            (Family.FINAL, _FINAL),
        ):
            for k in range(1, m):
                table[k].append(_allocate(family, ProcessId(k), rm))
            table.append([None] + [_allocate(family, rm, ProcessId(k)) for k in range(1, m + 1)])
        _covered = m


def init_reg(i: int) -> RegisterId:
    _cover(i)
    return _INIT[i]


def ack_reg(i: int) -> RegisterId:
    _cover(i)
    return _ACK[i]


def witness_reg(i: int, j: int) -> RegisterId:
    _cover(i, j)
    return _WITNESS[i][j]


def inform_reg(i: int, j: int) -> RegisterId:
    _cover(i, j)
    return _INFORM[i][j]


def final_reg(i: int, j: int) -> RegisterId:
    _cover(i, j)
    return _FINAL[i][j]


@functools.cache
def _initial_layout(n: int) -> tuple[tuple[RegisterId, ...], Callable[[list], tuple]]:
    """For n readers: an Init, a Witness, an Inform and a Final register,
    and the map from the 2n + 2 distinct initial contents (the value,
    reader 1..n's entries, reader 1..n's witness sets, the inform set)
    to every slot's initial content, in slot order."""
    readers = range(1, n + 1)
    source = [0] * (3 * n * n + 2 * n)  # Init and Ack slots hold the value
    for i in readers:
        for j in readers:
            source[witness_reg(i, j)] = i
            source[inform_reg(i, j)] = n + i
            source[final_reg(i, j)] = 2 * n + 1
    family_regs = (init_reg(1), witness_reg(1, 1), inform_reg(1, 1), final_reg(1, 1))
    return family_regs, itemgetter(*source)


# --- codecs -----------------------------------------------------------------
#
# Canonical JSON with hex payloads: stable across platforms, byte-exact for
# identical values, and strict on decode.  A value's bytes are
# ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` of one dict:
# ``{"k", "u"}`` for a tagged value, ``{"p", "s", "v"}`` for a witness
# entry, ``{"e", "g", "sig"}`` for a witness set (entries sorted by
# ``_entry_key``) and ``{"m"}`` for an inform set (members sorted by signer,
# then signature, then their sorted entry keys, so equal sets encode alike
# under any hash seed).  Integer fields decode only as exact ints in range
# (``core.U32``, ``core.U64``): a JSON boolean loads as a bool, an int that
# compares and hashes equal to 0 or 1.


def _obj_tagged(obj) -> TaggedValue:
    if not isinstance(obj, dict) or set(obj) != {"k", "u"}:
        raise _DecodeError("bad tagged value shape")
    k, u = obj["k"], obj["u"]
    if type(k) is not int or not 0 <= k < U64 or not isinstance(u, str):
        raise _DecodeError("bad tagged value fields")
    return TaggedValue(k, bytes.fromhex(u))


def _obj_entry(obj) -> WitnessEntry:
    if not isinstance(obj, dict) or set(obj) != {"v", "s", "p"}:
        raise _DecodeError("bad witness entry shape")
    s, p = obj["s"], obj["p"]
    if not (type(s) is int and 0 <= s < U64 and type(p) is int and 1 <= p < U32):
        raise _DecodeError("bad witness entry fields")
    return WitnessEntry(_obj_tagged(obj["v"]), s, p)


def _entry_key(e: WitnessEntry):
    return (e.p, e.s, e.value.k, e.value.u)


def _obj_wset(obj) -> WitnessSet:
    if not isinstance(obj, dict) or set(obj) != {"e", "g", "sig"}:
        raise _DecodeError("bad witness set shape")
    entries_obj, signer, sig = obj["e"], obj["g"], obj["sig"]
    if not isinstance(entries_obj, list) or not (type(signer) is int and 1 <= signer < U32):
        raise _DecodeError("bad witness set fields")
    if not isinstance(sig, str):
        raise _DecodeError("bad signature field")
    return WitnessSet(
        entries=frozenset(_obj_entry(e) for e in entries_obj),
        signer=signer,
        signature=bytes.fromhex(sig),
    )


def _obj_iset(obj) -> InformSet:
    if not isinstance(obj, dict) or set(obj) != {"m"}:
        raise _DecodeError("bad inform set shape")
    if not isinstance(obj["m"], list):
        raise _DecodeError("bad inform set members")
    return InformSet(members=frozenset(_obj_wset(m) for m in obj["m"]))


def _tagged_dict(v: TaggedValue) -> dict:
    return {"k": v.k, "u": v.u.hex()}


def _entry_dict(e: WitnessEntry) -> dict:
    return {"v": _tagged_dict(e.value), "s": e.s, "p": e.p}


def _wset_dict(w: WitnessSet) -> dict:
    return {
        "e": [_entry_dict(e) for e in sorted(w.entries, key=_entry_key)],
        "g": w.signer,
        "sig": w.signature.hex(),
    }


def _member_key(m: WitnessSet):
    return (m.signer, m.signature, sorted(map(_entry_key, m.entries)))


def _iset_dict(s: InformSet) -> dict:
    return {"m": [_wset_dict(m) for m in sorted(s.members, key=_member_key)]}


class _Codec(NamedTuple):
    value_class: type  # the class of the family's exact values
    encode: Callable[[object], dict]
    decode: Callable[[object], object]


_CODECS = {
    Family.INIT: _Codec(TaggedValue, _tagged_dict, _obj_tagged),
    Family.ACK: _Codec(TaggedValue, _tagged_dict, _obj_tagged),
    Family.WITNESS: _Codec(WitnessEntry, _entry_dict, _obj_entry),
    Family.INFORM: _Codec(WitnessSet, _wset_dict, _obj_wset),
    Family.FINAL: _Codec(InformSet, _iset_dict, _obj_iset),
}


@dataclass(frozen=True)
class Raw:
    """Cell content that is not the canonical encoding of any exact value:
    its bytes, as written."""

    data: bytes


def encode_value(family: Family, value) -> bytes:
    """The canonical bytes of ``value`` under the family's codec; a
    ``Raw``'s own bytes.  A malformed value raises what building and
    dumping its dict raises."""
    if type(value) is Raw:
        return value.data
    obj = _CODECS[family].encode(value)
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def decode_value(family: Family, data: bytes):
    """The value ``data`` encodes under the family's codec, or None when
    the bytes do not decode.  Nesting too deep for the parser does not
    decode either."""
    try:
        return _CODECS[family].decode(json.loads(data.decode()))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, bad hex or a _DecodeError
        return None


def cell_content(reg: RegisterId, value):
    """What a cell holds once ``value`` is written to ``reg``: ``value``
    itself when it is an exact value of the register's family; else the
    value its bytes decode to, when those bytes are that value's canonical
    encoding; else ``Raw`` of the bytes.  So two contents are equal exactly
    when their bytes are."""
    if type(value) is VALUE_CLASS[reg] and value.exact:
        return value
    family = FAMILY[reg]
    data = encode_value(family, value)
    decoded = decode_value(family, data)
    if decoded is not None and encode_value(family, decoded) == data:
        return decoded
    return Raw(data)


def read_content(family: Family, content):
    """What a read of a cell holding ``content`` returns: a value as it
    is, and a ``Raw`` decoded (None for bytes that do not decode)."""
    return decode_value(family, content.data) if type(content) is Raw else content


# --- operations a process can request ---------------------------------------
#
# Built on every step, so these records are slotted, not frozen: a frozen
# dataclass sets each field through object.__setattr__, which costs several
# times a plain __init__.  Nothing assigns to them once built.

@dataclass(slots=True, unsafe_hash=True)
class ReadOp:
    reg: RegisterId


@dataclass(slots=True, unsafe_hash=True)
class WriteOp:
    """A write of ``value``, which the bank stores as ``cell_content``."""

    reg: RegisterId
    value: object


@dataclass(slots=True, unsafe_hash=True)
class LocalOp:
    """A step that touches no register (idling or local-only transitions)."""

    note: str = ""


@dataclass(slots=True, unsafe_hash=True)
class TraceEvent:
    step: int
    op: str  # "read" | "write"
    reg: RegisterId
    value: object  # the cell's content: an exact value or a Raw

    @property
    def caller(self) -> ProcessId:
        """The register's end for the op: the bank admits no other caller."""
        return OP_END[self.op][self.reg]


READ_FIELDS = 4  # entries per read in a read log: step, register, content, writes before it


def log_reads(read_log: list) -> Iterator[tuple]:
    """A read log's reads, each as (step, register, content, writes logged
    before it)."""
    entries = iter(read_log)
    return zip(*[entries] * READ_FIELDS)


def merged_trace(events: list[TraceEvent], read_log: list) -> list[TraceEvent]:
    """The trace a ``TraceEvent`` list and a read log make together, in
    recording order: each read follows the first events, as many as the
    writes logged before it (``RegisterBank``).  The events themselves
    when the read log is empty."""
    if not read_log:
        return events
    out: list[TraceEvent] = []
    done = 0
    for step, reg, content, writes in log_reads(read_log):
        if writes > done:
            out += events[done:writes]
            done = writes
        out.append(TraceEvent(step, "read", reg, content))
    out += events[done:]
    return out


_UNSEEN = object()


def validated_final(
    ring: crypto.KeyRing, cfg: Config, iset: InformSet | None
) -> frozenset[WitnessEntry] | None:
    """The witness core of the inform set a final register holds, or None
    unless it passes ``ws_of`` and every member's signature verifies;
    None too for a cell whose bytes did not decode (``iset`` None).  A
    core carries one value, so it stands for its (value, core) pair.

    A pure function of the ring's keys, the config and the set, so it is
    memoized on the ring, where readers and the checker share it.
    """
    if iset is None:
        return None
    key = (iset, cfg)
    validated = ring._final_validation_cache
    out = validated.get(key, _UNSEEN)
    if out is not _UNSEEN:
        return out
    out = None
    try:
        core = ws_of(iset, cfg)
        if all(crypto.verify_witness_set(ring, m) for m in iset.members):
            # a member that signed exactly the core holds it already, so
            # the memo keeps no second copy
            out = next((m.entries for m in iset.members if m.entries == core), core)
    except InvalidInformSet:
        pass
    validated[key] = out
    return out


class RegisterBank:
    """All 3n^2 + 2n registers plus their operation trace.

    ``cells`` lists the register contents by slot, each an exact value
    of the slot's family or a ``Raw`` (``cell_content``); only ``write``
    assigns to it.  Write sequence numbers are indexed by slot too:
    every write takes the next number of one bank-wide counter, so
    ``write_seq`` orders the last writes of any two cells (0 for a cell
    never written).  The engine owns the bank during a run and sets
    ``current_step`` before each operation; protocol code only goes
    through read/write.  The cell count never changes, so ``size`` keeps
    it for the bound checks.

    Stepped in place, the bank keeps two flat lists: a ``TraceEvent``
    per write, which the checker's passes read, and a read log of
    ``READ_FIELDS`` entries per read (its step, register, content and
    the writes logged before it), which only the substrate check and the
    export walk.  So a read allocates nothing that the cyclic collector
    tracks: its reader is the register's reader end, and its content is
    the cell's.  Once its simulation steps by table (``tabulate``), the
    bank logs every operation as a ``TraceEvent`` in the one list, so an
    enumerated history's read log is empty and its ``trace`` merges
    nothing (README gives the measured cost of merging it per history).
    A tabled simulation restores a written cell, its ``write_seq`` and
    the write count when it undoes a step, and truncates the list.
    """

    def __init__(self, u0: bytes, cells: list):
        self.u0 = u0
        self.cells = cells
        self.size = len(cells)
        self.write_seq: list[int] = [0] * len(cells)
        self._writes = 0
        self._trace: list[TraceEvent] = []  # the writes; every event once tabled
        self._reads: list | None = []  # None once tabled
        self.current_step = 0

    @property
    def trace(self) -> list[TraceEvent]:
        return merged_trace(*self.logs())

    def logs(self) -> tuple[list[TraceEvent], list]:
        """The trace as fresh lists: the events logged as ``TraceEvent``s
        (every one, once tabled) and the read log (empty once tabled)."""
        reads = self._reads
        return self._trace.copy(), [] if reads is None else reads.copy()

    def tabulate(self) -> None:
        """Merge the logs into one event list, which logs every later
        operation."""
        self._trace = self.trace
        self._reads = None

    def read(self, reg: RegisterId, caller: ProcessId):
        """The cell's value (``read_content``), recording its content."""
        if not 0 <= reg < self.size:
            raise UnknownRegister(str(reg))
        if caller != READER_END[reg]:
            raise AccessViolation(f"{caller} cannot read {reg}")
        content = self.cells[reg]
        reads = self._reads
        if reads is not None:
            reads += (self.current_step, reg, content, self._writes)
        else:
            self._trace.append(TraceEvent(self.current_step, "read", reg, content))
        # read_content, inline
        return decode_value(FAMILY[reg], content.data) if type(content) is Raw else content

    def write(self, reg: RegisterId, value, caller: ProcessId) -> None:
        if not 0 <= reg < self.size:
            raise UnknownRegister(str(reg))
        if caller != WRITER_END[reg]:
            raise AccessViolation(f"{caller} cannot write {reg}")
        content = self.cells[reg] = cell_content(reg, value)
        self._writes += 1
        self.write_seq[reg] = self._writes
        self._trace.append(TraceEvent(self.current_step, "write", reg, content))


@dataclass(frozen=True, eq=False)
class InitialState:
    """The state every register and every reader's local variables start
    from, for one (ring, cfg, u0), with what the checker derives from it;
    built by ``initial_state`` alone.

    ``entries[i]`` is reader i's initial entry: the initial value stamped
    0.  ``witness_sets[i]`` is those n entries signed by reader i, and
    ``inform_set`` holds every reader's signed set.  ``cells`` lists
    every register's initial content by slot: Init and Ack hold
    ``value``, Witness its owner's entry, Inform its owner's witness set
    and Final the inform set.

    ``stabilization`` is the initial value's stabilization event, at step
    0 with row owner 0, from which the checker starts every scan of the
    final registers: every member of the inform set signs every initial
    entry, so all of them are its witness core (what ``ws_of`` gives,
    without the intersection).  ``value`` and ``stabilization`` are the
    checker's views per ring; every other view of a run (its operations,
    its writes by family, its stabilizations, read attribution and write
    classification) depends on the history and is derived once per
    history (``checker.Analysis``).

    Consumers share these objects, so equality tests between them
    succeed on identity, and never change the dicts in place.
    """

    value: TaggedValue
    entries: dict[int, WitnessEntry]
    witness_sets: dict[int, WitnessSet]
    inform_set: InformSet
    cells: tuple
    stabilization: StabilizationEvent


def initial_state(ring: crypto.KeyRing, cfg: Config, u0: bytes) -> InitialState:
    """The initial state for (cfg, u0) under the ring's keys.  Signed once
    and memoized on the ring; signatures are deterministic, so the memo
    changes no bytes.  The ring signed the witness sets, so they enter
    its ``verify_witness_set`` memo as verifying."""
    key = (cfg, u0)
    state = ring.initial_states.get(key)
    if state is None:
        value = TaggedValue(0, u0)
        readers = cfg.reader_indices()
        entries = {i: WitnessEntry(value, 0, i) for i in readers}
        core = frozenset(entries.values())
        witness_sets = {i: crypto.sign_entries(ring, i, core) for i in readers}
        for wset in witness_sets.values():
            ring.verified[wset] = True
        inform_set = InformSet(frozenset(witness_sets.values()))
        # each distinct initial content once, through a register of its
        # family (Init and Ack share the tagged-value codec)
        (init, witness, inform, final), spread = _initial_layout(cfg.n)
        cells = spread([
            cell_content(init, value),
            *[cell_content(witness, entries[i]) for i in readers],
            *[cell_content(inform, witness_sets[i]) for i in readers],
            cell_content(final, inform_set),
        ])
        stabilization = StabilizationEvent(
            value=value,
            ws=core,
            pt=PartialTimestamp.from_mapping(cfg.n, {e.p: e.s for e in core}),
            step=0,
            row_owner=0,
        )
        state = InitialState(value, entries, witness_sets, inform_set, cells, stabilization)
        ring.initial_states[key] = state
    return state


def bank_init(cfg: Config, u0: bytes, ring: crypto.KeyRing) -> RegisterBank:
    """A bank holding every register's initial content."""
    return RegisterBank(u0, list(initial_state(ring, cfg, u0).cells))


def atomicity_violations(
    cfg: Config,
    u0: bytes,
    ring: crypto.KeyRing,
    trace: list[TraceEvent],
    read_log: list = (),
) -> list[TraceEvent]:
    """Reads that did not return the latest preceding write (empty means
    linearizable), in the trace ``trace`` and ``read_log`` make together
    (``merged_trace``).

    Trivial by construction for this substrate; asserted after runs as a
    plumbing check.  A read records the very content written, so the
    identity test settles nearly every read without an equality test,
    and only a stale read of the read log becomes a ``TraceEvent``.
    """
    cells = list(initial_state(ring, cfg, u0).cells)
    bad = []
    done = 0
    for step, reg, content, writes in log_reads(read_log):
        # one write or none between two reads, mostly: a loop by index
        # costs less here than a slice per read
        while done < writes:
            ev = trace[done]
            cells[ev.reg] = ev.value
            done += 1
        if content is not cells[reg] and content != cells[reg]:
            bad.append(TraceEvent(step, "read", reg, content))
    for ev in islice(trace, done, None):
        if ev.op == "write":
            cells[ev.reg] = ev.value
        elif ev.value is not cells[ev.reg] and ev.value != cells[ev.reg]:
            bad.append(ev)
    return bad


def export_trace(trace: list[TraceEvent], read_log: list = ()) -> Iterator[str]:
    """Newline-delimited structured records with digests of the contents'
    bytes, in the order of ``merged_trace``; a read of the read log is
    formatted from its entries.  Equal contents have equal bytes, so each
    distinct content is encoded once per call, as is each record's head,
    the part its op and register fix (they fix the caller too).

    A record is the line ``json.dumps(..., sort_keys=True)`` gives for
    its dict, filled into one template: every field is an int or an
    ASCII string that JSON does not escape (register and process names
    and a hex digest)."""
    digests: dict = {}
    heads: dict = {}  # (op, register) -> the record up to its step

    def record(step, op, reg, content) -> str:
        head = heads.get((op, reg))
        if head is None:
            head = heads[op, reg] = (
                f'{{"caller": "{OP_END[op][reg]}", "op": "{op}", "register": "{reg}", "step": '
            )
        digest = digests.get(content)
        if digest is None:
            data = encode_value(FAMILY[reg], content)
            digest = digests[content] = hashlib.sha256(data).hexdigest()[:16]
        return f'{head}{step}, "value_digest": "{digest}"}}'

    done = 0
    for step, reg, content, writes in log_reads(read_log):
        while done < writes:
            ev = trace[done]
            yield record(ev.step, ev.op, ev.reg, ev.value)
            done += 1
        yield record(step, "read", reg, content)
    for ev in islice(trace, done, None):
        yield record(ev.step, ev.op, ev.reg, ev.value)
