"""Simulated SWSR atomic register substrate.

Five register families connect the writer and the readers: Init and Ack
between writer and each reader, and Witness/Inform/Final between every
reader pair (3n^2 + 2n registers total).  Each register is owned by one
writer process and one reader process and every access is checked.

Process code deals in values: a write op carries the ``TaggedValue``,
``WitnessEntry``, ``WitnessSet`` or ``InformSet`` it writes.  Cells hold
bytes in the codec of the register's family, so a Byzantine owner may
leave content no value encodes to.  The engine's step alone crosses
between the two: it encodes each write with ``encode_value`` and hands
the machine ``decode_value`` of each read, None for bytes that do not
decode.  Both directions are memoized, and a value the encoder has not
seen is joined from its parts' memoized bytes, with no JSON dump or
parse.  One register operation is one indivisible scheduler step, and
every operation lands in an append-only trace of the bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import crypto
from .core import (
    Config,
    InformSet,
    InvalidInformSet,
    ProcessId,
    TaggedValue,
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
    family, writer end, reader end and export name; they grow, on first
    use, to the largest n seen.  Code indexes the tables directly.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return NAME[self]

    def __repr__(self) -> str:
        return f"RegisterId({int(self)}: {NAME[self]})"


# the layout, indexed by slot
FAMILY: list[Family] = []
WRITER_END: list[ProcessId] = []
READER_END: list[ProcessId] = []
NAME: list[str] = []

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


# --- codecs -----------------------------------------------------------------
#
# Canonical JSON with hex payloads: stable across platforms, byte-exact for
# identical values, and strict on decode.  The bytes are those of
# ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` over a dict per
# value: ``{"k", "u"}`` for a tagged value, ``{"p", "s", "v"}`` for a witness
# entry, ``{"e", "g", "sig"}`` for a witness set (entries sorted by
# ``_entry_key``) and ``{"m"}`` for an inform set (members sorted by signer,
# then signature).  The encoder joins them from pieces instead: a part's
# bytes, a literal, an int field or any other scalar, which ``_join``
# formats with that same ``json.dumps`` call.  Every field is read in the
# order the dict would have been built, and formatted in byte order only
# after all were read, so a malformed value raises what building and
# dumping the dict raised.

# The signing payload packs p and signer in 32 bits and k and s in 64
# (crypto.canonical_entries_payload), so wider values do not decode.
# Integer fields are tested for their exact type: a JSON boolean loads as
# a bool, an int that compares and hashes equal to 0 or 1.
_U32 = 1 << 32
_U64 = 1 << 64


def _obj_tagged(obj) -> TaggedValue:
    if not isinstance(obj, dict) or set(obj) != {"k", "u"}:
        raise _DecodeError("bad tagged value shape")
    k, u = obj["k"], obj["u"]
    if type(k) is not int or not 0 <= k < _U64 or not isinstance(u, str):
        raise _DecodeError("bad tagged value fields")
    return TaggedValue(k, bytes.fromhex(u))


def _obj_entry(obj) -> WitnessEntry:
    if not isinstance(obj, dict) or set(obj) != {"v", "s", "p"}:
        raise _DecodeError("bad witness entry shape")
    s, p = obj["s"], obj["p"]
    if not (type(s) is int and 0 <= s < _U64 and type(p) is int and 1 <= p < _U32):
        raise _DecodeError("bad witness entry fields")
    return WitnessEntry(_obj_tagged(obj["v"]), s, p)


def _entry_key(e: WitnessEntry):
    return (e.p, e.s, e.value.k, e.value.u)


def _obj_wset(obj) -> WitnessSet:
    if not isinstance(obj, dict) or set(obj) != {"e", "g", "sig"}:
        raise _DecodeError("bad witness set shape")
    entries_obj, signer, sig = obj["e"], obj["g"], obj["sig"]
    if not isinstance(entries_obj, list) or not (type(signer) is int and 1 <= signer < _U32):
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


_DECODERS = {
    Family.INIT: _obj_tagged,
    Family.ACK: _obj_tagged,
    Family.WITNESS: _obj_entry,
    Family.INFORM: _obj_wset,
    Family.FINAL: _obj_iset,
}

# Each builder appends a value's pieces to ``out`` and returns whether its
# bytes decode to an equal value with the same field types: every class
# and field has the exact type the decoder gives, every int is in the
# decoder's range, and every part passes the same test.


def _scalar(x):
    """The piece of a scalar field: an exact int as is, for ``_join`` to
    print; anything else wrapped, for ``_join`` to dump."""
    return x if type(x) is int else (x,)


def _hex(data):
    """The piece of a payload field, through ``.hex()`` as the dict held
    it; a ``bytes`` payload's hex digits need no escaping."""
    h = data.hex()
    return b'"%s"' % h.encode() if type(data) is bytes else (h,)


def _part(fam: str, part, build, out: list) -> bool:
    """Append a part's bytes.  Its memoized bytes serve when the decode
    memo maps them back to this very object, which therefore decodes; any
    other part is built and checked afresh, since a merely equal one may
    differ in field types (True for 1) and so in bytes."""
    data = _encode_cache.get((fam, part))
    if data is not None and _decode_cache.get((fam, data)) is part:
        out.append(data)
        return True
    return build(part, out)


def _tagged(v, out: list) -> bool:
    k = v.k
    u = v.u
    out += (b'{"k":', _scalar(k), b',"u":', _hex(u), b"}")
    return type(v) is TaggedValue and type(k) is int and 0 <= k < _U64 and type(u) is bytes


def _entry(e, out: list) -> bool:
    v: list = []
    ok = _part("init", e.value, _tagged, v)
    s = e.s
    p = e.p
    out += (b'{"p":', _scalar(p), b',"s":', _scalar(s), b',"v":', *v, b"}")
    return ok and type(e) is WitnessEntry and type(s) is int and 0 <= s < _U64 and (
        type(p) is int and 1 <= p < _U32
    )


def _wset(w, out: list) -> bool:
    ok = type(w) is WitnessSet and type(w.entries) is frozenset
    out.append(b'{"e":[')
    for i, e in enumerate(sorted(w.entries, key=_entry_key)):
        if i:
            out.append(b",")
        ok = _part("witness", e, _entry, out) and ok
    signer = w.signer
    sig = w.signature
    out += (b'],"g":', _scalar(signer), b',"sig":', _hex(sig), b"}")
    return ok and type(signer) is int and 1 <= signer < _U32 and type(sig) is bytes


def _iset(s, out: list) -> bool:
    ok = type(s) is InformSet and type(s.members) is frozenset
    out.append(b'{"m":[')
    for i, m in enumerate(sorted(s.members, key=lambda m: (m.signer, m.signature))):
        if i:
            out.append(b",")
        ok = _part("inform", m, _wset, out) and ok
    out.append(b"]}")
    return ok


def _join(pieces: list) -> bytes:
    return b"".join(
        p if type(p) is bytes
        else b"%d" % p if type(p) is int
        else json.dumps(p[0], sort_keys=True, separators=(",", ":")).encode()
        for p in pieces
    )


_BUILDERS = {
    Family.INIT._value_: _tagged,
    Family.ACK._value_: _tagged,
    Family.WITNESS._value_: _entry,
    Family.INFORM._value_: _wset,
    Family.FINAL._value_: _iset,
}

# Identical values get rewritten constantly in steady state, so both
# directions are memoized; all encoded values are immutable.  A value's
# parts are encoded once, at their own top-level write, and reused from
# here when a larger value holds them.
# Keys carry the family's value string, whose hash is cached; hashing the
# Enum member itself would run Enum.__hash__ in Python on every call.
_encode_cache: dict[tuple[str, object], bytes] = {}
_decode_cache: dict[tuple[str, bytes], object] = {}


def encode_value(family: Family, value) -> bytes:
    """Canonical bytes of ``value``.

    The memoized bytes serve, as a part's do (``_part``), only when the
    decode cache maps them back to this very object.  Otherwise the bytes
    are joined from the value's fields and its parts' memoized bytes;
    only a scalar other than an int goes through ``json.dumps``, and
    nothing is parsed.  When the builder finds that the bytes decode to
    ``value``, field types included, both caches map between the bytes
    and ``value`` itself.  A reader that decodes a peer's cell then holds
    the very object the peer wrote, so later equality tests and cache
    lookups succeed on identity.  Values the decoder rejects are not
    memoized: their bytes still decode to None.  The memo is keyed by
    equality, so the identity test keeps a value from being given the
    bytes of another that merely equals it (True for 1).
    """
    fam = family._value_
    key = (fam, value)
    data = _encode_cache.get(key)
    if data is not None and _decode_cache.get((fam, data)) is value:
        return data
    pieces: list = []
    exact = _BUILDERS[fam](value, pieces)
    data = _join(pieces)
    if exact:
        # keyed by this very object from now on, as the decode memo maps
        # to it, so that its next lookup matches on identity
        _encode_cache.pop(key, None)
        _encode_cache[key] = data
        _decode_cache[(fam, data)] = value
    return data


def decode_value(family: Family, data: bytes):
    """The value ``data`` encodes under the family's codec, or None when
    the bytes do not decode (only decodable bytes are memoized).  Nesting
    too deep for the parser does not decode either."""
    key = (family._value_, data)
    hit = _decode_cache.get(key)
    if hit is not None:
        return hit
    try:
        value = _DECODERS[family](json.loads(data.decode()))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, bad hex or a _DecodeError
        return None
    _decode_cache[key] = value
    return value


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
    """A write of ``value``, which the engine encodes with the codec of the
    register's family."""

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
    caller: ProcessId
    value: bytes


def unwind(node: tuple | None) -> list:
    """The items of a persistent cons-list of ``(rest, item)`` pairs, oldest
    first, as a fresh list."""
    out = []
    while node is not None:
        node, item = node
        out.append(item)
    out.reverse()
    return out


@functools.lru_cache(maxsize=1024)
def initial_entry(cfg: Config, u0: bytes, i: int) -> WitnessEntry:
    """Reader i's initial entry, one object per (cfg, u0, i), so the
    witness sets that hold it reuse its memoized encoding on identity
    (``_part``)."""
    return WitnessEntry(TaggedValue(0, u0), 0, i)


def initial_entries(cfg: Config, u0: bytes) -> frozenset[WitnessEntry]:
    return frozenset(initial_entry(cfg, u0, k) for k in cfg.reader_indices())


def initial_inform_set(cfg: Config, u0: bytes, ring: crypto.KeyRing) -> InformSet:
    """Every reader's signed initial witness set, as one inform set.

    Signed once per (ring, cfg, u0) and memoized on the ring; signatures
    are deterministic, so the memo changes no bytes.  Reader i's initial
    witness set is its member signed by i.
    """
    key = (cfg, u0)
    iset = ring.initial_sets.get(key)
    if iset is None:
        entries = initial_entries(cfg, u0)
        iset = InformSet(
            frozenset(crypto.sign_entries(ring, l, entries) for l in cfg.reader_indices())
        )
        ring.initial_sets[key] = iset
    return iset


_UNSEEN = object()


def validated_final(
    ring: crypto.KeyRing, cfg: Config, iset: InformSet | None
) -> tuple[TaggedValue, frozenset[WitnessEntry]] | None:
    """The (value, witness core) of the inform set a final register holds,
    or None unless it passes ``ws_of`` and every member's signature
    verifies; None too for a cell whose bytes did not decode (``iset``
    None).

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
            out = (next(iter(core)).value, core)
    except InvalidInformSet:
        pass
    validated[key] = out
    return out


class RegisterBank:
    """All 3n^2 + 2n registers plus their operation trace.

    Cells are a list indexed by register slot, and so are write
    sequence numbers: every write takes the next number of one bank-wide
    counter, so ``write_seq`` orders the last writes of any two cells (0
    for a cell never written).  The engine owns the bank during a run and
    sets ``current_step`` before each operation; protocol code only goes
    through read/write.
    """

    def __init__(self, cfg: Config, u0: bytes, cells: list[bytes]):
        self.cfg = cfg
        self.u0 = u0
        self._cells = cells
        self.write_seq: list[int] = [0] * len(cells)
        self._writes = 0
        # persistent cons-list so clones share their common prefix
        self._trace_node: tuple | None = None
        self.current_step = 0

    @property
    def trace(self) -> list[TraceEvent]:
        return unwind(self._trace_node)

    def read(self, reg: RegisterId, caller: ProcessId) -> bytes:
        if not 0 <= reg < len(self._cells):
            raise UnknownRegister(str(reg))
        if caller != READER_END[reg]:
            raise AccessViolation(f"{caller} cannot read {reg}")
        value = self._cells[reg]
        self._trace_node = (
            self._trace_node,
            TraceEvent(self.current_step, "read", reg, caller, value),
        )
        return value

    def write(self, reg: RegisterId, value: bytes, caller: ProcessId) -> None:
        if not 0 <= reg < len(self._cells):
            raise UnknownRegister(str(reg))
        if caller != WRITER_END[reg]:
            raise AccessViolation(f"{caller} cannot write {reg}")
        if not isinstance(value, bytes):
            raise TypeError("register cells hold bytes")
        self._cells[reg] = value
        self._writes += 1
        self.write_seq[reg] = self._writes
        self._trace_node = (
            self._trace_node,
            TraceEvent(self.current_step, "write", reg, caller, value),
        )

    def clone(self) -> "RegisterBank":
        twin = RegisterBank.__new__(RegisterBank)
        twin.cfg = self.cfg
        twin.u0 = self.u0
        twin._cells = self._cells.copy()
        twin.write_seq = self.write_seq.copy()
        twin._writes = self._writes
        twin._trace_node = self._trace_node
        twin.current_step = self.current_step
        return twin

    def cells_key(self) -> tuple:
        """Snapshot of cell contents in slot order, for state hashing.

        Write sequence numbers are deliberately excluded: rewrites of
        identical bytes change no future behavior.  The one order they
        carry that a machine reads, the correct writer's ack freshness,
        enters the key as flags, through ``WriterMachine.bank_key``.

        Built afresh on every call.  A tabled enumeration keeps each
        distinct snapshot once, and a small int stands for it in every
        state key (see ``Simulation.state_key``).
        """
        return tuple(self._cells)


def _initial_cells(cfg: Config, u0: bytes, ring: crypto.KeyRing) -> tuple[bytes, ...]:
    """Every register's initial bytes, in slot order.

    Init/Ack start at the initial tagged value; Witness at the owner's
    initial entry; Inform at the owner's signed initial witness set; and
    Final at the initial inform set over all n signers.  Memoized per
    (cfg, u0) on the ring, as the initial inform set is; a tuple, so a
    caller that writes takes its own list of it.
    """
    key = (cfg, u0)
    memo = ring.initial_cells.get(key)
    if memo is not None:
        return memo
    cells: list[bytes] = [b""] * (3 * cfg.n * cfg.n + 2 * cfg.n)
    init_tagged = encode_value(Family.INIT, TaggedValue(0, u0))
    for i in cfg.reader_indices():
        cells[init_reg(i)] = init_tagged
        cells[ack_reg(i)] = init_tagged
    iset = initial_inform_set(cfg, u0, ring)
    signed = {m.signer: m for m in iset.members}
    for i in cfg.reader_indices():
        entry_bytes = encode_value(Family.WITNESS, initial_entry(cfg, u0, i))
        wset_bytes = encode_value(Family.INFORM, signed[i])
        for j in cfg.reader_indices():
            cells[witness_reg(i, j)] = entry_bytes
            cells[inform_reg(i, j)] = wset_bytes
    # after its members, so that it is joined from their bytes
    iset_bytes = encode_value(Family.FINAL, iset)
    for i in cfg.reader_indices():
        for j in cfg.reader_indices():
            cells[final_reg(i, j)] = iset_bytes
    memo = ring.initial_cells[key] = tuple(cells)
    return memo


def bank_init(cfg: Config, u0: bytes, ring: crypto.KeyRing) -> RegisterBank:
    """A bank holding every register's initial bytes (``_initial_cells``)."""
    return RegisterBank(cfg, u0, list(_initial_cells(cfg, u0, ring)))


def atomicity_violations(
    cfg: Config, u0: bytes, ring: crypto.KeyRing, trace: Iterable[TraceEvent]
) -> list[TraceEvent]:
    """Reads that did not return the latest preceding write (empty means linearizable).

    Trivial by construction for this substrate; asserted after runs as a
    plumbing check.
    """
    cells = list(_initial_cells(cfg, u0, ring))
    bad = []
    for ev in trace:
        if ev.op == "write":
            cells[ev.reg] = ev.value
        elif ev.value != cells[ev.reg]:
            bad.append(ev)
    return bad


def export_trace(trace: Iterable[TraceEvent]):
    """Newline-delimited structured records with value digests."""
    for ev in trace:
        yield json.dumps(
            {
                "step": ev.step,
                "op": ev.op,
                "register": str(ev.reg),
                "caller": str(ev.caller),
                "value_digest": hashlib.sha256(ev.value).hexdigest()[:16],
            },
            sort_keys=True,
        )
