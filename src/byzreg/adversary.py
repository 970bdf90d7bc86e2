"""Scripted Byzantine writer and reader strategies.

Adversaries are deterministic functions of their local observations, the
step counter and the scenario script; there is no hidden randomness, so
any run can be replayed from its seed and scenario alone.  Strategies
only ever touch registers their process legitimately owns, and forged
signatures never verify under another identity.

At the bottom are ``Scenario``, the one type every campaign loads as, and
the factories that assemble the named attack scripts as Scenarios:
the collaborating-reader construction that stabilizes a partial write,
its early-overwrite variant, the sub-threshold alternation attack and
the two-forger concurrent-quorum attack.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import ClassVar

from . import protocol
from .core import Config, ProcessId, TaggedValue, WitnessEntry, WitnessSet, InformSet, WRITER
from .crypto import KeyRing, sign_entries
from .engine import RoundRobin, Schedule, Scripted, Workload
from .registers import (
    LocalOp,
    ReadOp,
    WriteOp,
    final_reg,
    init_reg,
    inform_reg,
    witness_reg,
)


# --- Byzantine writer machine -------------------------------------------------

class ByzWriterMachine(protocol.ProcessMachine):
    """Plays the script its strategy plans for each high-level write: an
    op, or an idle count, played as that many of the strategy's idle ops.

    Never blocks on acks: the invocation responds as soon as its script
    drains.  Its state is the write and the step within that write.
    """

    def __init__(self, cfg: Config, strategy: WriterStrategy, writes):
        self.pid = WRITER
        # per write: (ops and idle counts, the value its invoke and response carry)
        self.plan = tuple(strategy.plan(cfg, [bytes(w) for w in writes]))
        self.idle_op = strategy.idle_op
        # per write: the step at which each of its items ends
        self.ends = tuple(
            tuple(accumulate(item if type(item) is int else 1 for item in items))
            for items, _ in self.plan
        )
        self.widx = 0
        self.pos = 0

    def done(self) -> bool:
        return self.widx >= len(self.plan)

    def next_op(self):
        items = self.plan[self.widx][0]
        item = items[bisect_right(self.ends[self.widx], self.pos)]
        return self.idle_op if type(item) is int else item

    def apply(self, bank, op, result, recorder):
        value = self.plan[self.widx][1]
        if self.pos == 0:
            recorder.invoke(self.pid, "write", value)
        self.pos += 1
        if self.pos == self.ends[self.widx][-1]:
            recorder.response(self.pid, "write", value)
            self.widx += 1
            self.pos = 0


# --- reader strategy machines ---------------------------------------------

class RogueReader(protocol.ProcessMachine):
    """A Byzantine reader that runs its own program in place of the
    protocol.  It steps forever, as every reader does, and has no
    high-level reads, so it is always done."""

    def __init__(self, cfg: Config, ring: KeyRing, u0: bytes, index: int, spec):
        self.cfg = cfg
        self.ring = ring
        self.pid = ProcessId.reader(index)
        self.index = index
        self.spec = spec

    def done(self):
        return True


class SilentReader(RogueReader):
    """Takes steps forever but never touches a register."""

    def next_op(self):
        return LocalOp("silent")

    def apply(self, bank, op, result, recorder):
        pass


class HookedReader(protocol.ReaderMachine):
    """The correct reader with some of its hooks overridden.  It plays a
    Byzantine reader, so it has no high-level reads of its own."""

    def __init__(self, cfg, ring, u0, index, spec):
        super().__init__(cfg, ring, u0, index)
        self.spec = spec


class FakeStampReader(HookedReader):
    """Correct behavior, but every witness stamp jumps by 1 + offset."""

    def _stamp_bump(self):
        return 1 + self.spec.offset


class OutOfOrderReader(HookedReader):
    """Publishes a regressed stamp on every other witnessing event."""

    def _entry_for_peer(self, peer, entry):
        if entry.s % 2 == 1:
            return WitnessEntry(entry.value, max(0, entry.s - 2), entry.p)
        return entry


class EquivocateReader(HookedReader):
    """Sends different payloads to different peers in witness broadcasts."""

    def __init__(self, *args):
        super().__init__(*args)
        self.per_peer = dict(self.spec.values)

    def _entry_for_peer(self, peer, entry):
        payload = self.per_peer.get(peer)
        if payload is None:
            return entry
        return WitnessEntry(TaggedValue(entry.value.k, payload), entry.s, entry.p)


class CollaborateReader(HookedReader):
    """Adopts a peer-witnessed value as though it had been written to its
    own init register, then behaves correctly for it.

    The candidate comes from the lowest-index peer whose current entry
    carries a value this reader has not taken up yet (one of the many
    realizations the attack allows).
    """

    def __init__(self, *args):
        super().__init__(*args)
        self._candidate: TaggedValue | None = None  # the value to adopt next

    def _after_collect(self):
        if self._candidate is not None:
            return
        for src in sorted(self.t_witness):
            if src == self.index:
                continue
            e = self.t_witness[src]
            if e.s > 0 and e.value != self.last_init:
                self._candidate = e.value
                return

    def _adopt_foreign_value(self):
        v = self._candidate
        self._candidate = None
        return v


class ForgeInformSetReader(RogueReader):
    """Cycles forged witness sets and inform sets whose member signatures
    claim other identities and therefore never verify."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cycle = 0
        self.queue = self._forged()

    def _forged(self) -> tuple:
        """This cycle's ops: a forged witness set to every inform register
        and a forged inform set to every final register, then a pause."""
        readers = list(self.cfg.reader_indices())
        value = TaggedValue(7, b"forged-%d" % self.cycle)
        entries = frozenset(
            WitnessEntry(value, 1000 + self.cycle, q) for q in readers[: self.cfg.quorum]
        )
        members = [
            WitnessSet(entries, signer=q, signature=b"not-a-signature-%d" % q)
            for q in readers[: self.cfg.quorum]
        ]
        # the lowest signer's set, so the value does not depend on set order
        wset = members[0]
        iset = InformSet(frozenset(members))
        return (
            tuple(WriteOp(inform_reg(self.index, i), wset) for i in readers)
            + tuple(WriteOp(final_reg(self.index, i), iset) for i in readers)
            + (LocalOp("forge-pause"),)
        )

    def next_op(self):
        return self.queue[0]

    def apply(self, bank, op, result, recorder):
        self.queue = self.queue[1:]
        if not self.queue:
            self.cycle += 1
            self.queue = self._forged()


class AlternationReader(RogueReader):
    """Drives the n <= 3t alternation: pushes strictly increasing witness
    stamps for two values in turn, with no register write ever reaching a
    correct reader's init register in between."""

    def __init__(self, *args):
        super().__init__(*args)
        self.j = 0
        self.wait = self.spec.initial_delay
        self.queue: tuple = ()

    def next_op(self):
        if self.queue:
            return self.queue[0]
        return LocalOp("alternation-wait")

    def apply(self, bank, op, result, recorder):
        if self.queue:
            self.queue = self.queue[1:]
            return
        if self.j >= self.spec.cycles:
            return
        if self.wait > 0:
            self.wait -= 1
            return
        value = self.spec.value_a if self.j % 2 == 0 else self.spec.value_b
        entry = WitnessEntry(value, self.j + 1, self.index)
        self.queue = tuple(
            WriteOp(witness_reg(self.index, i), entry) for i in self.cfg.reader_indices()
        )
        self.j += 1
        self.wait = self.spec.period


class QuorumForgerReader(RogueReader):
    """One of two sub-threshold forgers fabricating concurrent quorums."""

    SEND, POLL, PUBLISH, IDLE = range(4)

    def __init__(self, *args):
        super().__init__(*args)
        self.lead_entries = frozenset(
            WitnessEntry(self.spec.lead_value, s, q) for q, s in self.spec.lead_stamps
        )
        self.other_entries = frozenset(
            WitnessEntry(self.spec.other_value, s, q) for q, s in self.spec.other_stamps
        )
        self.phase = self.SEND
        self.fi = 1
        self.partner_member: WitnessSet | None = None

    def next_op(self):
        if self.phase == self.SEND:
            wset = sign_entries(self.ring, self.index, self.other_entries)
            return WriteOp(inform_reg(self.index, self.spec.partner), wset)
        if self.phase == self.POLL:
            return ReadOp(inform_reg(self.spec.partner, self.index))
        if self.phase == self.PUBLISH:
            own = sign_entries(self.ring, self.index, self.lead_entries)
            iset = InformSet(frozenset({own, self.partner_member}))
            return WriteOp(final_reg(self.index, self.fi), iset)
        return LocalOp("forger-idle")

    def apply(self, bank, op, result, recorder):
        if self.phase == self.SEND:
            self.phase = self.POLL
        elif self.phase == self.POLL:
            wset = result  # None for an undecodable cell: keep polling
            if (
                wset is not None
                and wset.signer == self.spec.partner
                and wset.entries == self.lead_entries
            ):
                self.partner_member = wset
                self.phase = self.PUBLISH
                self.fi = 1
        elif self.phase == self.PUBLISH:
            self.fi += 1
            if self.fi > self.cfg.n:
                self.phase = self.IDLE


# --- strategy specs ------------------------------------------------------------

def json_int(value, name: str, least: int | None = 0) -> int:
    """A JSON int of at least ``least`` (any int for None): int() would
    read true as 1, 2.9 as 2 and "7" as 7."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an int{bound}, not {value!r}")
    return value


def by_reader(block: dict, name: str) -> dict:
    """A JSON object keyed by reader index, with int keys: int() reads "4"
    and "04" alike, so a repeated index is an error, not an overwrite."""
    out = {}
    for key, value in block.items():
        i = int(key)
        if i in out:
            raise ValueError(f"{name}: reader index {i} given twice")
        out[i] = value
    return out


class Strategy:
    """A writer or reader behaviour.  ``name`` is its scenario-file name,
    None for the specs only the scripted scenarios build; ``parse`` builds
    the spec from its scenario-file block (``{"strategy": name, ...}``);
    ``check`` raises ValueError when the spec does not fit a config;
    ``machine`` builds the process that plays it."""

    name: ClassVar[str | None] = None

    @classmethod
    def parse(cls, block: dict) -> Strategy:
        return cls()

    def check(self, cfg: Config) -> None:
        pass


def _check_readers(name: str, readers, cfg: Config) -> None:
    """A writer strategy's target readers: a non-empty set, all in 1..n."""
    if not readers:
        raise ValueError(f"{name} targets no reader")
    bad = sorted(i for i in readers if not 1 <= i <= cfg.n)
    if bad:
        raise ValueError(f"{name} targets reader {bad[0]} outside 1..{cfg.n}")


class WriterStrategy(Strategy):
    """A Byzantine writer spec ``plan``s its own op scripts, which a
    ``ByzWriterMachine`` plays."""

    idle_op: ClassVar[LocalOp] = LocalOp("idle")  # what an idle count plays

    def plan(self, cfg: Config, writes: list[bytes]):
        """Yield, per high-level write, its items (each an op, or an int
        count of ``idle_op`` steps) and the value its invoke and response
        carry (None when it has no single value)."""
        raise NotImplementedError

    def machine(self, cfg, ring, u0, i, workload):
        return ByzWriterMachine(cfg, self, workload.writes)


def _broadcast(cfg: Config, kv: TaggedValue) -> tuple:
    return tuple(WriteOp(init_reg(i), kv) for i in cfg.reader_indices())


class ReaderStrategy(Strategy):
    machine_class: ClassVar[type]  # built as (cfg, ring, u0, index, spec)

    def machine(self, cfg, ring, u0, i, workload):
        return self.machine_class(cfg, ring, u0, i, self)


# --- writer strategies -------------------------------------------------------

@dataclass(frozen=True)
class CorrectWriter(WriterStrategy):
    name = "correct"

    def machine(self, cfg, ring, u0, i, workload):
        return protocol.WriterMachine(cfg, ring, workload.writes)


@dataclass(frozen=True)
class SplitValue(WriterStrategy):
    """Write a different payload to different readers in one invocation."""

    name = "split_value"
    assignment: tuple[tuple[int, bytes], ...]

    @classmethod
    def make(cls, assignment: dict[int, bytes]) -> "SplitValue":
        return cls(tuple(sorted(assignment.items())))

    @classmethod
    def parse(cls, block):
        assignment = by_reader(block["assignment"], "assignment")
        return cls.make({i: v.encode() for i, v in assignment.items()})

    def check(self, cfg):
        _check_readers(self.name, [i for i, _ in self.assignment], cfg)

    def plan(self, cfg, writes):
        for c in range(1, len(writes) + 1):
            yield tuple(WriteOp(init_reg(i), TaggedValue(c, p)) for i, p in self.assignment), None


@dataclass(frozen=True)
class PartialQuorum(WriterStrategy):
    """Write the pending value to a subset of init registers only.

    ``targets`` holds one reader set per invocation (cycled); a repeated
    payload keeps its original counter so the value accumulates across
    invocations.
    """

    name = "partial_quorum"
    targets: tuple[frozenset[int], ...]

    @classmethod
    def make(cls, *target_sets) -> "PartialQuorum":
        return cls(tuple(frozenset(s) for s in target_sets))

    @classmethod
    def parse(cls, block):
        targets = [{json_int(i, "a target reader", None) for i in s} for s in block["targets"]]
        return cls.make(*targets)

    def check(self, cfg):
        if not self.targets:
            raise ValueError(f"{self.name} has no target sets")
        for targets in self.targets:
            _check_readers(self.name, targets, cfg)

    def plan(self, cfg, writes):
        counters: dict[bytes, int] = {}  # a new payload takes the next counter
        for invocation, payload in enumerate(writes):
            kv = TaggedValue(counters.setdefault(payload, len(counters) + 1), payload)
            targets = sorted(self.targets[invocation % len(self.targets)])
            yield tuple(WriteOp(init_reg(i), kv) for i in targets), kv


@dataclass(frozen=True)
class MultiValueBurst(WriterStrategy):
    """Write several distinct values to every reader within one invocation."""

    name = "multi_value_burst"
    values: tuple[bytes, ...]

    @classmethod
    def parse(cls, block):
        return cls(tuple(v.encode() for v in block["values"]))

    def check(self, cfg):
        if not self.values:
            raise ValueError(f"{self.name} has no values")

    def plan(self, cfg, writes):
        c = 0  # the counter runs on across writes
        for _ in writes:
            ops: tuple = ()
            for v in self.values:
                c += 1
                ops += _broadcast(cfg, TaggedValue(c, v))
            yield ops, None


@dataclass(frozen=True)
class OverwriteEarly(WriterStrategy):
    """Broadcast each value, idle briefly, and let the next invocation
    overwrite it before inform sets can form."""

    name = "overwrite_early"
    idle_op = LocalOp("overwrite-delay")
    delay: int = 2
    MAX_DELAY = 1_000_000

    @classmethod
    def parse(cls, block):
        return cls(json_int(block.get("delay", cls.delay), "delay", None))

    def check(self, cfg):
        if not 0 <= self.delay <= self.MAX_DELAY:
            raise ValueError(f"{self.name} delay {self.delay} outside 0..{self.MAX_DELAY}")

    def plan(self, cfg, writes):
        for c, payload in enumerate(writes, 1):
            kv = TaggedValue(c, payload)
            yield _broadcast(cfg, kv) + (self.delay,), kv


@dataclass(frozen=True)
class StaleCounter(WriterStrategy):
    """Reuse one fixed counter value for every write."""

    name = "stale_counter"
    k: int = 1

    @classmethod
    def parse(cls, block):
        return cls(json_int(block.get("k", cls.k), "k", None))

    def plan(self, cfg, writes):
        for payload in writes:
            kv = TaggedValue(self.k, payload)
            yield _broadcast(cfg, kv), kv


@dataclass(frozen=True)
class ScriptedWriter(WriterStrategy):
    """Literal per-invocation register scripts: each invocation is a tuple
    of (reader index, TaggedValue) writes and integer idle-step counts."""

    idle_op = LocalOp("scripted-idle")
    scripts: tuple[tuple, ...]

    def plan(self, cfg, writes):
        for invocation in range(len(writes)):
            yield tuple(
                item if isinstance(item, int) else WriteOp(init_reg(item[0]), item[1])
                for item in self.scripts[invocation % len(self.scripts)]
            ), None


# --- reader strategies -------------------------------------------------------

@dataclass(frozen=True)
class CorrectReader(ReaderStrategy):
    name = "correct"

    def machine(self, cfg, ring, u0, i, workload):
        return protocol.ReaderMachine(cfg, ring, u0, i, workload.reads_for(i), workload.read_gap)


@dataclass(frozen=True)
class Silent(ReaderStrategy):
    name = "silent"
    machine_class = SilentReader


@dataclass(frozen=True)
class FakeWitnessStamp(ReaderStrategy):
    name = "fake_witness_stamp"
    machine_class = FakeStampReader
    offset: int = 10

    @classmethod
    def parse(cls, block):
        return cls(json_int(block.get("offset", cls.offset), "offset", None))


@dataclass(frozen=True)
class OutOfOrderWitness(ReaderStrategy):
    name = "out_of_order_witness"
    machine_class = OutOfOrderReader


@dataclass(frozen=True)
class ForgeInformSet(ReaderStrategy):
    name = "forge_inform_set"
    machine_class = ForgeInformSetReader


@dataclass(frozen=True)
class Equivocate(ReaderStrategy):
    """Send per-peer payload variants in witness broadcasts."""

    name = "equivocate"
    machine_class = EquivocateReader
    values: tuple[tuple[int, bytes], ...]

    @classmethod
    def make(cls, values: dict[int, bytes]) -> "Equivocate":
        return cls(tuple(sorted(values.items())))

    @classmethod
    def parse(cls, block):
        values = by_reader(block.get("values", {}), "values")
        return cls.make({i: v.encode() for i, v in values.items()})

    def check(self, cfg):
        if self.values:
            _check_readers(self.name, [i for i, _ in self.values], cfg)


@dataclass(frozen=True)
class CollaborateStabilize(ReaderStrategy):
    name = "collaborate_stabilize"
    machine_class = CollaborateReader


@dataclass(frozen=True)
class AlternationDriver(ReaderStrategy):
    """Alternate inflated witness stamps between two values (n <= 3t attack)."""

    machine_class = AlternationReader
    value_a: TaggedValue
    value_b: TaggedValue
    period: int = 150
    cycles: int = 6
    initial_delay: int = 60


@dataclass(frozen=True)
class QuorumForger(ReaderStrategy):
    """One half of a forged-concurrent-quorum pair (n <= 2t attack).

    Signs witness sets for both values, swaps signatures with the partner
    through its own inform register, then publishes its lead value's
    inform set across its final row.
    """

    machine_class = QuorumForgerReader
    partner: int
    lead_value: TaggedValue
    lead_stamps: tuple[tuple[int, int], ...]
    other_value: TaggedValue
    other_stamps: tuple[tuple[int, int], ...]


# every spec class above with a scenario-file name, by that name
WRITER_STRATEGIES = {s.name: s for s in WriterStrategy.__subclasses__() if s.name}
READER_STRATEGIES = {s.name: s for s in ReaderStrategy.__subclasses__() if s.name}


@dataclass
class StrategyAssignment:
    writer: WriterStrategy = field(default_factory=CorrectWriter)
    readers: dict[int, ReaderStrategy] = field(default_factory=dict)

    def reader_strategy(self, i: int) -> ReaderStrategy:
        return self.readers.get(i, CorrectReader())

    def byzantine_readers(self) -> frozenset[int]:
        return frozenset(
            i for i, s in self.readers.items() if not isinstance(s, CorrectReader)
        )


# --- machine assembly --------------------------------------------------------

def build_machines(
    cfg: Config,
    strategies: StrategyAssignment,
    workload: Workload,
    ring: KeyRing,
    u0: bytes,
) -> dict[ProcessId, protocol.ProcessMachine]:
    machines = {WRITER: strategies.writer.machine(cfg, ring, u0, WRITER.index, workload)}
    for i in cfg.reader_indices():
        strategy = strategies.reader_strategy(i)
        machines[ProcessId.reader(i)] = strategy.machine(cfg, ring, u0, i, workload)
    return machines


# --- scenarios -----------------------------------------------------------------

@dataclass
class Scenario:
    """A campaign: config, strategies, workload and schedule, run once per
    seed (a ``SeededRandom`` schedule takes each seed in turn), plus the
    outcome every run is expected to produce."""

    name: str
    cfg: Config
    u0: bytes
    strategies: StrategyAssignment
    workload: Workload
    schedule: Schedule
    step_limit: int = 20000
    settle_steps: int = 0
    expected_status: str = "completed"
    expected_violations: tuple[str, ...] = ()
    scheme: str = "keyed"
    seeds: list[int] = field(default_factory=lambda: [0])
    warnings: list[str] = field(default_factory=list)

    @property
    def byz_readers(self) -> frozenset[int]:
        return self.strategies.byzantine_readers()


def _pseudo_correct_parts(cfg: Config):
    """Shared shape of the partial-write scripts: the value goes to the
    first n-t readers across two invocations; the highest-index reader
    collaborates."""
    if cfg.n <= 2 * cfg.t:
        raise ValueError("the collaborating stabilization needs n > 2t")
    x = TaggedValue(1, b"x")
    targets = list(cfg.reader_indices())[: cfg.quorum]
    first, last = targets[:-1], targets[-1:]
    scripts = (
        tuple((i, x) for i in first),
        tuple((i, x) for i in last),
    )
    collaborator = cfg.n
    readers = {collaborator: CollaborateStabilize()}
    reading = {i: 2 for i in cfg.reader_indices() if i != collaborator}
    return x, scripts, readers, reading


def scenario_pseudo_correct(cfg: Config | None = None) -> Scenario:
    """A value written to only n-t init registers, split across two writes,
    stabilizes with a collaborating reader and is returned by a correct read."""
    cfg = cfg or Config(n=4, t=1, writer_byzantine=True)
    x, scripts, readers, reading = _pseudo_correct_parts(cfg)
    strategies = StrategyAssignment(
        writer=ScriptedWriter(scripts=scripts), readers=readers
    )
    workload = Workload.make(writes=[b"x", b"x"], reads=reading, read_gap=3)
    return Scenario(
        name="pseudo_correct_n4t1",
        cfg=cfg,
        u0=b"init",
        strategies=strategies,
        workload=workload,
        schedule=RoundRobin(),
        settle_steps=600,
    )


def scenario_pseudo_correct_overwrite(cfg: Config | None = None) -> Scenario:
    """Same partial write, but overwritten before any inform set can form:
    the partial value must never stabilize nor be returned."""
    cfg = cfg or Config(n=4, t=1, writer_byzantine=True)
    x, scripts, readers, reading = _pseudo_correct_parts(cfg)
    y = TaggedValue(2, b"y")
    overwrite = tuple((i, y) for i in cfg.reader_indices())
    scripts = scripts + (overwrite,)
    strategies = StrategyAssignment(
        writer=ScriptedWriter(scripts=scripts), readers=readers
    )
    workload = Workload.make(writes=[b"x", b"x", b"y"], reads=reading, read_gap=3)
    # every scripted register write lands before any reader steps
    writer_ops = sum(len(s) for s in scripts)
    schedule = Scripted(steps=("w",) * writer_ops, then="round_robin")
    return Scenario(
        name="pseudo_correct_overwrite_n4t1",
        cfg=cfg,
        u0=b"init",
        strategies=strategies,
        workload=workload,
        schedule=schedule,
        settle_steps=600,
    )


def scenario_alternation() -> Scenario:
    """n=3, t=1: two values, each on n-t init registers; Byzantine stamps
    alone drive an unbounded alternation of stabilized returns."""
    cfg = Config(n=3, t=1, writer_byzantine=True)
    a = TaggedValue(1, b"va")
    b = TaggedValue(2, b"vb")
    writer = ScriptedWriter(
        scripts=(
            ((1, a), (3, a)),
            ((2, b), (3, b)),
        )
    )
    strategies = StrategyAssignment(
        writer=writer,
        readers={
            3: AlternationDriver(
                value_a=a, value_b=b, period=100, cycles=12, initial_delay=60
            )
        },
    )
    workload = Workload.make(writes=[b"va", b"vb"], reads={1: 14, 2: 14}, read_gap=2)
    return Scenario(
        name="alternation_n3t1",
        cfg=cfg,
        u0=b"init",
        strategies=strategies,
        workload=workload,
        schedule=RoundRobin(),
        step_limit=60000,
        settle_steps=1500,
        # fake later writes also break view consistency and the common read
        # order once the alternation swings back
        expected_violations=(
            "genuine_advance",
            "view_consistency",
            "total_ordering_reads",
        ),
    )


def scenario_forged_quorum() -> Scenario:
    """n=4, t=2: two Byzantine readers fabricate validly signed quorums for
    two values with crossing stamps, yielding concurrent stabilized sets."""
    cfg = Config(n=4, t=2, writer_byzantine=False)
    a = TaggedValue(1, b"qa")
    b = TaggedValue(2, b"qb")
    stamps_a = ((3, 2), (4, 1))
    stamps_b = ((3, 1), (4, 2))
    strategies = StrategyAssignment(
        readers={
            3: QuorumForger(
                partner=4,
                lead_value=a,
                lead_stamps=stamps_a,
                other_value=b,
                other_stamps=stamps_b,
            ),
            4: QuorumForger(
                partner=3,
                lead_value=b,
                lead_stamps=stamps_b,
                other_value=a,
                other_stamps=stamps_a,
            ),
        }
    )
    workload = Workload.make(writes=[], reads={1: 2, 2: 2}, read_gap=2)
    return Scenario(
        name="forged_quorum_n4t2",
        cfg=cfg,
        u0=b"init",
        strategies=strategies,
        workload=workload,
        schedule=RoundRobin(),
        expected_status="protocol_violation",
        # the fabricated quorums also stabilize values no init register ever
        # held, which is the quorum-formation guarantee n>2t buys
        expected_violations=("total_order", "stabilized_classification"),
    )


SCENARIO_SCRIPTS = {
    "pseudo_correct": scenario_pseudo_correct,
    "pseudo_correct_overwrite": scenario_pseudo_correct_overwrite,
    "alternation_n3t1": scenario_alternation,
    "forged_quorum_n4t2": scenario_forged_quorum,
}
