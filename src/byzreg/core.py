"""Domain types and the timestamp algebra shared by every layer.

Values travel through the register construction as ``TaggedValue`` pairs
(a writer counter plus an opaque payload).  Readers accumulate evidence
about them as witness entries, signed witness sets, and inform sets.
This module owns those types plus the two order relations everything
else is built on:

* common-witness comparison of witness-set projections (``mapsto_compare``),
* componentwise comparison of full timestamp vectors (``vec_compare``).

Everything here is a pure value-level function over immutable data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class InvalidInformSet(Exception):
    """Inform set fails structural validation (member quorum, common core)."""


class CommonQuorumTooSmall(Exception):
    """Fewer than n-2t witnesses are common to the two sets being compared."""


class EqualStampsDifferentValue(Exception):
    """Equal common stamps with different tagged values: a protocol-breaking trace."""


class LengthMismatch(Exception):
    """Full timestamp vectors of different lengths cannot be compared."""


# The signing payload packs p and signer in 32 bits and k and s in 64
# (crypto.canonical_entries_payload), so wider values do not decode.
U32 = 1 << 32
U64 = 1 << 64


@dataclass(frozen=True)
class Config:
    """System parameters: n readers, at most t of them Byzantine.

    The resilience thresholds (n > 3t, n > 2t) are scenario properties,
    not constructor constraints; sub-threshold configs are deliberately
    constructible so counterexample scenarios can be scripted.
    """

    n: int
    t: int
    writer_byzantine: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one reader, got n={self.n}")
        if not 0 <= self.t <= self.n:
            raise ValueError(f"t must be in [0, n], got t={self.t}, n={self.n}")
        object.__setattr__(self, "_hash", hash((self.n, self.t, self.writer_byzantine)))
        # the size threshold n - t of witness and inform quorums, read on
        # every reader step, so stored rather than a property
        object.__setattr__(self, "quorum", self.n - self.t)

    def __hash__(self):
        return self._hash

    @property
    def common_quorum(self) -> int:
        """Minimum overlap n - 2t between two valid witness quorums."""
        return self.n - 2 * self.t

    def reader_indices(self) -> range:
        return range(1, self.n + 1)


class ProcessId(int):
    """A process as a plain int: 0 is the writer and i is reader i.

    Hashing, equality and order are the int's own, so the writer sorts
    before every reader and readers sort by index; ``str`` gives the
    export names ``w`` and ``r1``..``rn``.
    """

    __slots__ = ()

    def __new__(cls, index: int) -> "ProcessId":
        if index < 0:
            raise ValueError(f"process index must be >= 0, got {index}")
        return super().__new__(cls, index)

    @classmethod
    def reader(cls, index: int) -> "ProcessId":
        if index < 1:
            raise ValueError(f"reader index must be >= 1, got {index}")
        return cls(index)

    @property
    def index(self) -> int:
        """Reader index, 0 for the writer."""
        return int(self)

    def __str__(self) -> str:
        return "w" if self == 0 else f"r{int(self)}"

    def __repr__(self) -> str:
        return f"ProcessId({int(self)})"


WRITER = ProcessId(0)


# Each value type below sets ``exact`` when it is built: whether the
# value is what the register codec decodes, class and field types
# included.  The class is exactly the type, every int field an exact int
# in the codec's range, payloads and signatures bytes, containers
# frozensets, and every part exact.  So an exact value's canonical bytes
# decode to an equal value, and equal exact values have equal bytes;
# TaggedValue(True, b"x") equals TaggedValue(1, b"x") but is not exact.
# The codec keeps a decoded value only when it is exact, so these flags
# are the one statement of each field's type and range.
# ``exact`` is no dataclass field, so equality and hashing ignore it.


@dataclass(frozen=True)
class TaggedValue:
    """The writer's counter/payload pair flowing through every register layer."""

    k: int
    u: bytes

    def __post_init__(self):
        k, u = self.k, self.u
        object.__setattr__(self, "_hash", hash((k, u)))
        exact = type(self) is TaggedValue and type(k) is int and 0 <= k < U64 and type(u) is bytes
        object.__setattr__(self, "exact", exact)

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        return f"<{self.k},{self.u.decode('utf-8', 'replace')}>"


@dataclass(frozen=True)
class WitnessEntry:
    """A reader's dated observation of a tagged value.

    ``s`` is the witnessing reader's logical clock at observation time and
    ``p`` its index.  The initial entry for reader i is the initial value
    stamped 0.
    """

    value: TaggedValue
    s: int
    p: int

    def __post_init__(self):
        value, s, p = self.value, self.s, self.p
        object.__setattr__(self, "_hash", hash((value, s, p)))
        exact = type(self) is WitnessEntry and type(value) is TaggedValue and value.exact
        exact = exact and type(s) is int and 0 <= s < U64 and type(p) is int and 1 <= p < U32
        object.__setattr__(self, "exact", exact)

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        return f"<<{self.value}>,s={self.s},r{self.p}>"


@dataclass(frozen=True)
class WitnessSet:
    """A quorum of matching witness entries, signed by one reader."""

    entries: frozenset[WitnessEntry]
    signer: int
    signature: bytes

    def __post_init__(self):
        entries, signer, signature = self.entries, self.signer, self.signature
        object.__setattr__(self, "_hash", hash((entries, signer, signature)))
        exact = type(self) is WitnessSet and type(entries) is frozenset and type(signature) is bytes
        exact = exact and type(signer) is int and 1 <= signer < U32
        exact = exact and all(type(e) is WitnessEntry and e.exact for e in entries)
        object.__setattr__(self, "exact", exact)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class InformSet:
    """A quorum of signed witness sets sharing a common entry core."""

    members: frozenset[WitnessSet]

    def __post_init__(self):
        members = self.members
        object.__setattr__(self, "_hash", hash(members))
        exact = type(self) is InformSet and type(members) is frozenset
        exact = exact and all(type(m) is WitnessSet and m.exact for m in members)
        object.__setattr__(self, "exact", exact)

    def __hash__(self):
        return self._hash


class OrderVerdict(Enum):
    BEFORE = "before"
    AFTER = "after"
    EQUAL = "equal"
    CONCURRENT = "concurrent"


@dataclass(frozen=True)
class PartialTimestamp:
    """Witness stamps of a stabilized value, indexed by reader; absent readers carry bottom."""

    n: int
    stamps: tuple[tuple[int, int], ...]  # sorted (reader index, stamp) pairs

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[int, int]) -> "PartialTimestamp":
        return cls(n, tuple(sorted(mapping.items())))

    def mapping(self) -> dict[int, int]:
        return dict(self.stamps)

    def __str__(self) -> str:
        cells = []
        have = self.mapping()
        for i in range(1, self.n + 1):
            cells.append(f"{i}:{have[i]}" if i in have else f"{i}:-")
        return "{" + ", ".join(cells) + "}"


@dataclass(frozen=True)
class StabilizationEvent:
    """A (value, witness core) pair that covered some process's final row."""

    value: TaggedValue
    ws: frozenset[WitnessEntry]
    pt: PartialTimestamp
    step: int
    row_owner: int  # reader index whose row completed first

    @classmethod
    def of(
        cls, core: frozenset[WitnessEntry], n: int, step: int, row_owner: int
    ) -> "StabilizationEvent":
        """The event of a witness core, which carries one value, at n readers."""
        pt = PartialTimestamp.from_mapping(n, {e.p: e.s for e in core})
        return cls(next(iter(core)).value, core, pt, step, row_owner)


@dataclass(frozen=True)
class FullTimestamp:
    """A full n-vector of witness times, componentwise comparable."""

    vec: tuple[int, ...]

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.vec) + "]"


def common_value(entries: Iterable[WitnessEntry]) -> TaggedValue:
    """The single tagged value shared by all entries.

    Raises InvalidInformSet when the entries are empty or mix values.
    """
    values = {e.value for e in entries}
    if len(values) != 1:
        raise InvalidInformSet(f"entries carry {len(values)} distinct values, expected 1")
    return next(iter(values))


def _validate_entries(entries: Iterable[WitnessEntry], cfg: Config) -> None:
    seen = set()
    for e in entries:
        if not 1 <= e.p <= cfg.n:
            raise InvalidInformSet(f"witness index {e.p} outside 1..{cfg.n}")
        if e.s < 0:
            raise InvalidInformSet(f"negative witness stamp {e.s}")
        if e.p in seen:
            raise InvalidInformSet(f"duplicate witness index {e.p} in entry set")
        seen.add(e.p)


def ws_of(inform_set: InformSet, cfg: Config) -> frozenset[WitnessEntry]:
    """Maximal entry set common to every member of the inform set.

    Entry equality is exact (value, stamp and witness index all equal);
    the result must have at least n-t entries over distinct witnesses and
    carry a single tagged value.
    """
    members = sorted(inform_set.members, key=lambda m: m.signer)
    if len(members) < cfg.quorum:
        raise InvalidInformSet(
            f"{len(members)} members, need at least {cfg.quorum}"
        )
    if not members:  # possible at quorum 0 (t = n)
        raise InvalidInformSet("no members, so no common core")
    signers = {m.signer for m in members}
    if len(signers) != len(members):
        raise InvalidInformSet("duplicate signer among inform-set members")
    common: set[WitnessEntry] = set(members[0].entries)
    for m in members[1:]:
        common &= m.entries
    if len(common) < cfg.quorum:
        raise InvalidInformSet(
            f"common entry core has {len(common)} entries, need {cfg.quorum}"
        )
    common_value(common)  # must be a single tagged value
    _validate_entries(common, cfg)
    return frozenset(common)


def _stamp_map(entries: Iterable[WitnessEntry]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e in entries:
        if e.p in out:
            raise InvalidInformSet(f"duplicate witness index {e.p}")
        out[e.p] = e.s
    return out


def mapsto_compare(
    a: Iterable[WitnessEntry], b: Iterable[WitnessEntry], cfg: Config
) -> OrderVerdict:
    """Order two witness-set projections by their common witnesses' stamps.

    Before means every common witness stamped a at or below its b stamp
    with at least one strictly below; After is the mirror image; Equal
    requires all common stamps identical (in which case both sets must
    carry one tagged value); strict disagreement in both directions is
    Concurrent.
    """
    a = frozenset(a)
    b = frozenset(b)
    pa = _stamp_map(a)
    pb = _stamp_map(b)
    shared = sorted(pa.keys() & pb.keys())
    if len(shared) < cfg.common_quorum:
        raise CommonQuorumTooSmall(
            f"{len(shared)} common witnesses, need {cfg.common_quorum}"
        )
    lt = any(pa[q] < pb[q] for q in shared)
    gt = any(pa[q] > pb[q] for q in shared)
    if lt and gt:
        return OrderVerdict.CONCURRENT
    if lt:
        return OrderVerdict.BEFORE
    if gt:
        return OrderVerdict.AFTER
    if not shared:
        # no overlap at all: neither direction holds, so the sets are
        # incomparable (only reachable when n <= 2t)
        return OrderVerdict.CONCURRENT
    if common_value(a) != common_value(b):
        raise EqualStampsDifferentValue(
            f"equal common stamps but values {common_value(a)} vs {common_value(b)}"
        )
    return OrderVerdict.EQUAL


def vec_compare(a: FullTimestamp, b: FullTimestamp) -> OrderVerdict:
    """Componentwise comparison of two full timestamp vectors."""
    if len(a.vec) != len(b.vec):
        raise LengthMismatch(f"vector lengths {len(a.vec)} vs {len(b.vec)}")
    lt = any(x < y for x, y in zip(a.vec, b.vec))
    gt = any(x > y for x, y in zip(a.vec, b.vec))
    if lt and gt:
        return OrderVerdict.CONCURRENT
    if lt:
        return OrderVerdict.BEFORE
    if gt:
        return OrderVerdict.AFTER
    return OrderVerdict.EQUAL


