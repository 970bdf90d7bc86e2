"""Cell contents against the register codec.

A cell holds what a read returns: the very object written when it is an
exact value of the register's family (``core``), and otherwise whatever
its canonical bytes stand for (``registers.cell_content``): the value they
decode to when they are that value's canonical encoding, else ``Raw``
bytes.  Random values of every family, with odd fields (booleans, int
subclasses, out-of-range ints, floats, strings, non-bytes payloads),
subclasses and tuple containers, must be kept as themselves exactly when
``exact`` holds, must otherwise keep their bytes and read as those bytes
decode, and a malformed value must raise what encoding it raises.
Whole runs do no codec work, and undecodable writes reach the trace as
``Raw`` cells with the digests they had as bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from byzreg import adversary, checker, engine, protocol, registers
from byzreg.adversary import (
    CollaborateStabilize,
    Equivocate,
    FakeWitnessStamp,
    StaleCounter,
    StrategyAssignment,
)
from byzreg.core import WRITER, Config, InformSet, ProcessId, TaggedValue, WitnessEntry, WitnessSet
from byzreg.crypto import make_keyring
from byzreg.engine import SeededRandom, Workload, run
from byzreg.registers import (
    FAMILY,
    Family,
    Raw,
    ack_reg,
    bank_init,
    cell_content,
    decode_value,
    encode_value,
    export_trace,
    final_reg,
    inform_reg,
    init_reg,
    witness_reg,
)


class Int(int):
    """Prints as an int; the decoder only ever gives exact ints."""


class SubTagged(TaggedValue):
    """Never equal to the TaggedValue the decoder gives."""


class SubEntry(WitnessEntry):
    pass


class SubWitnessSet(WitnessSet):
    pass


class SubInformSet(InformSet):
    pass


def mostly(cls, odd):
    return st.sampled_from([cls] * 6 + [odd])


EDGE_INTS = st.sampled_from([0, -1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, -(2**64)])
ODD = st.one_of(
    st.booleans(),
    st.integers(0, 3).map(Int),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.binary(max_size=2),  # not JSON-serializable
)
# mostly fields the decoder accepts, so that whole sets round-trip too
FIELDS = st.one_of(*[st.integers(1, 3)] * 6, EDGE_INTS, ODD)
PAYLOADS = st.one_of(
    *[st.binary(max_size=3)] * 6,
    st.binary(max_size=3).map(memoryview),
    st.text(max_size=2),  # has no .hex()
)
TAGGED = st.builds(lambda cls, k, u: cls(k, u), mostly(TaggedValue, SubTagged), FIELDS, PAYLOADS)
ENTRIES = st.builds(
    lambda cls, v, s, p: cls(v, s, p), mostly(WitnessEntry, SubEntry), TAGGED, FIELDS, FIELDS
)


# a set's parts in a frozenset, or now and then in a tuple, which the
# decoder gives back as a frozenset
CONTAINERS = mostly(frozenset, tuple)


@st.composite
def witness_sets(draw, pool=None):
    entries = draw(st.frozensets(st.sampled_from(pool) if pool else ENTRIES, max_size=4))
    cls = draw(mostly(WitnessSet, SubWitnessSet))
    return cls(draw(CONTAINERS)(entries), draw(FIELDS), draw(PAYLOADS))


@st.composite
def inform_sets(draw):
    # members drawn from one pool of entries, so that they share parts
    pool = draw(st.lists(ENTRIES, min_size=1, max_size=5))
    members = draw(st.frozensets(witness_sets(pool), max_size=3))
    return draw(mostly(InformSet, SubInformSet))(draw(CONTAINERS)(members))


VALUES = {
    Family.INIT: TAGGED,
    Family.ACK: TAGGED,
    Family.WITNESS: ENTRIES,
    Family.INFORM: witness_sets(),
    Family.FINAL: inform_sets(),
}

CFG = Config(2, 0)
# per family, a register of a two-reader bank: (register, writer, reader)
ENDS = {
    Family.INIT: (init_reg(1), WRITER, ProcessId(1)),
    Family.ACK: (ack_reg(1), ProcessId(1), WRITER),
    Family.WITNESS: (witness_reg(1, 2), ProcessId(1), ProcessId(2)),
    Family.INFORM: (inform_reg(1, 2), ProcessId(1), ProcessId(2)),
    Family.FINAL: (final_reg(1, 2), ProcessId(1), ProcessId(2)),
}


def fresh_bank():
    return bank_init(CFG, b"init", make_keyring(CFG, "keyed", 0))


def typed(v):
    """``v`` with the type of every field beside it: equal values whose
    fields differ in type (1 and Int(1), bytes and a memoryview) differ."""
    if dataclasses.is_dataclass(v):
        return type(v), tuple(typed(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, (frozenset, tuple)):
        return type(v), frozenset(typed(x) for x in v)
    return type(v), v


def outcome(encode, family, value):
    try:
        return encode(family, value)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def digests(trace) -> list[str]:
    return [json.loads(line)["value_digest"] for line in export_trace(trace)]


def digest_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def write_and_read(family, value):
    """A fresh bank after ``value`` is written to the family's register
    and read back, and what the read returned."""
    reg, writer, reader = ENDS[family]
    bank = fresh_bank()
    bank.write(reg, value, writer)
    return bank, bank.read(reg, reader)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_exact_values_are_kept_and_others_by_their_bytes(data):
    family = data.draw(st.sampled_from(list(Family)), label="family")
    value = data.draw(VALUES[family], label="value")
    reg = ENDS[family][0]
    encoded = outcome(encode_value, family, value)
    if isinstance(encoded, type):  # malformed: what the dict encoder raises
        assert not value.exact
        assert outcome(lambda _, v: cell_content(reg, v), family, value) is encoded
        return
    content = cell_content(reg, value)
    assert (content is value) == value.exact
    decoded = decode_value(family, encoded)
    if value.exact:
        # its bytes decode to it, down to the type of each field
        assert typed(decoded) == typed(value)
    else:
        assert typed(decoded) != typed(value)
        assert type(content) is Raw or content.exact
        assert encode_value(family, content) == encoded
    bank, got = write_and_read(family, value)
    assert typed(got) == typed(decoded)
    assert digests(bank.trace) == [digest_of(encoded)] * 2


TAGGED_X = TaggedValue(1, b"x")


@pytest.mark.parametrize(
    "family,value",
    [
        (Family.WITNESS, WitnessEntry(TaggedValue(True, b"x"), 1, 1)),
        (Family.WITNESS, WitnessEntry(TAGGED_X, Int(2), 1)),
        (Family.INIT, TaggedValue(1, memoryview(b"x"))),
        (Family.INIT, SubTagged(1, b"x")),
        (Family.WITNESS, SubEntry(TAGGED_X, 1, 1)),
        (Family.INFORM, WitnessSet((), 1, b"s")),
        (Family.INFORM, SubWitnessSet(frozenset(), 1, b"s")),
        (Family.FINAL, InformSet(())),
        (Family.FINAL, SubInformSet(frozenset())),
    ],
    ids=["bool_k", "int_subclass_s", "memoryview_u", "tagged_subclass", "entry_subclass",
         "tuple_entries", "wset_subclass", "tuple_members", "iset_subclass"],
)
def test_odd_values_are_kept_by_their_bytes(family, value):
    # each is equal to a value that decodes, or encodes to bytes that do,
    # but differs from what the decoder gives in a class or field type
    content = cell_content(ENDS[family][0], value)
    assert not value.exact and content is not value
    assert encode_value(family, content) == encode_value(family, value)


@pytest.mark.parametrize("bool_first", [True, False], ids=["bool_first", "int_first"])
def test_true_and_1_keep_their_own_bytes(bool_first):
    # TaggedValue(True, b"x") equals TaggedValue(1, b"x"): in either order,
    # each is exported with its own bytes, and only the int's decode
    exact, odd = TAGGED_X, TaggedValue(True, b"x")
    order = (odd, exact) if bool_first else (exact, odd)
    bank = fresh_bank()
    reads = []
    for value in order:
        bank.write(init_reg(1), value, WRITER)
        reads.append(bank.read(init_reg(1), ProcessId(1)))
    assert reads == [None if value is odd else exact for value in order]
    events = [value for value in order for _ in "wr"]  # a write and a read each
    for ev, value in zip(bank.trace, events, strict=True):
        assert ev.value is exact if value is exact else ev.value == Raw(b'{"k":true,"u":"78"}')
    expected = [digest_of(encode_value(Family.INIT, value)) for value in events]
    assert digests(bank.trace) == expected
    assert len(set(expected)) == 2


ENTRY_X = b'{"p":1,"s":1,"v":{"k":1,"u":"78"}}'


@pytest.mark.parametrize(
    "family,data,value",
    [
        (Family.INIT, b'{"u":"78","k":1}', TAGGED_X),
        (Family.ACK, b'{"k": 1, "u": "78"}', TAGGED_X),
        (Family.INIT, b'{"k":1,"u":"7A"}', TaggedValue(1, b"z")),
        (
            Family.INFORM,
            b'{"e":[' + ENTRY_X + b"," + ENTRY_X + b'],"g":1,"sig":"73"}',
            WitnessSet(frozenset({WitnessEntry(TAGGED_X, 1, 1)}), 1, b"s"),
        ),
    ],
    ids=["keys_reordered", "spaces", "upper_hex", "entry_listed_twice"],
)
def test_noncanonical_bytes_stay_raw(family, data, value):
    # they decode, but to a value whose canonical bytes are others
    assert decode_value(family, data) == value and encode_value(family, value) != data
    assert cell_content(ENDS[family][0], Raw(data)) == Raw(data)
    bank, got = write_and_read(family, Raw(data))
    assert got == value
    assert digests(bank.trace) == [digest_of(data)] * 2


def test_canonical_raw_bytes_become_their_value():
    content = cell_content(init_reg(1), Raw(b'{"k":1,"u":"78"}'))
    assert content == TAGGED_X and content.exact


def test_fields_are_read_before_any_is_printed():
    # the dict is built before it is dumped: a signature without .hex()
    # raises AttributeError even when an earlier field cannot be printed
    # (an int with more digits than the interpreter prints: ValueError)
    entry = WitnessEntry(TaggedValue(10**4400, b"x"), 1, 1)
    unprintable = WitnessSet(frozenset({entry}), 1, b"s")
    both = WitnessSet(frozenset({entry}), 1, "no hex")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert outcome(encode_value, Family.INFORM, unprintable) is ValueError
        assert outcome(encode_value, Family.INFORM, both) is AttributeError
        reg = inform_reg(1, 2)
        assert outcome(lambda _, v: cell_content(reg, v), None, unprintable) is ValueError
        assert outcome(lambda _, v: cell_content(reg, v), None, both) is AttributeError
    finally:
        sys.set_int_max_str_digits(limit)


# six members signed by reader 2 with one signature, differing only in
# their entries, so that only the entries can order them; a frozenset of
# them iterates in an order set by the hash seed and, where hashes collide,
# by the order the members were added
TIED_MEMBERS = """
import random
from byzreg.core import InformSet, TaggedValue, WitnessEntry, WitnessSet
from byzreg.registers import Family, encode_value

members = [
    WitnessSet(frozenset({WitnessEntry(TaggedValue(k, b"v"), s, 1)}), 2, b"sig")
    for k in (1, 2, 3) for s in (1, 2)
]
rng = random.Random(0)
orders = [members, members[::-1]] + [rng.sample(members, len(members)) for _ in range(30)]
encodings = {encode_value(Family.FINAL, InformSet(frozenset(order))) for order in orders}
"""


def test_tied_members_encode_alike_under_every_hash_seed():
    # equal sets built in 32 orders, under four hash seeds: one encoding
    script = TIED_MEMBERS + "print(*sorted(e.hex() for e in encodings))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for hash_seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        outputs.update(out.stdout.split())
    assert len(outputs) == 1


def test_tied_members_are_ordered_by_their_entries():
    scope: dict = {}
    exec(TIED_MEMBERS, scope)
    (data,) = scope["encodings"]
    keys = [(e["p"], e["s"], e["v"]["k"]) for m in json.loads(data)["m"] for e in m["e"]]
    assert keys == sorted(keys) and len(keys) == 6


def test_run_at_n10_does_no_codec_work(monkeypatch):
    # fresh keys: every witness and inform set of this run is signed anew,
    # and the bank is built afresh for them
    calls = {"encode_value": 0, "decode_value": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for module in (registers, engine, checker, protocol, adversary):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(registers, name)))
    wl = Workload.make(writes=[b"a"], reads={2: 1, 5: 1, 7: 1}, read_gap=1)
    strategies = StrategyAssignment(
        readers={9: Equivocate.make({1: b"zz", 2: b"qq"}), 10: FakeWitnessStamp(offset=10)}
    )
    history = run(
        Config(10, 3), strategies, wl, SeededRandom(seed=3), 400_000, key_seed=0x5EED_C0DE
    )
    assert history.steps > 0
    assert calls == {"encode_value": 0, "decode_value": 0}


def test_export_template_is_json_dumps_of_each_record():
    # one run whose init cells, and the reads of them, hold Raw bytes: each
    # record is the line json.dumps gives for the dict it stands for
    cfg = Config(4, 1, writer_byzantine=True)
    strategies = StrategyAssignment(
        writer=StaleCounter(k=2**64), readers={4: CollaborateStabilize()}
    )
    wl = Workload.make(writes=[b"x", b"y"], reads={1: 2, 2: 2}, read_gap=2)
    history = run(cfg, strategies, wl, SeededRandom(3), 60_000, key_seed=3, settle_steps=500)
    assert history.read_log
    assert any(ev.op == "read" and type(ev.value) is Raw for ev in history.trace)
    expected = [
        json.dumps(
            {
                "step": ev.step,
                "op": ev.op,
                "register": str(ev.reg),
                "caller": str(ev.caller),
                "value_digest": digest_of(encode_value(FAMILY[ev.reg], ev.value)),
            },
            sort_keys=True,
        )
        for ev in history.trace
    ]
    assert list(export_trace(history.register_events, history.read_log)) == expected
    assert list(export_trace(history.trace)) == expected


@pytest.mark.parametrize(
    "k,digest",
    [
        (2**64, "84856b93d07fb683a9be6d183971081ba3b58de0bf7253d7411b70d0ec235130"),
        (-1, "ce9614be79d0e6ec2f60e37e66f20423e3ee58df31a31d8bf14c8ea21706e3a9"),
    ],
    ids=["k_2_64", "k_negative"],
)
def test_undecodable_writes_run_end_to_end(k, digest):
    # a counter outside the codec's range: every init write is Raw bytes,
    # which the readers read as None, and the digests are those the run
    # had when cells held bytes
    cfg = Config(4, 1, writer_byzantine=True)
    strategies = StrategyAssignment(
        writer=StaleCounter(k=k), readers={4: CollaborateStabilize()}
    )
    wl = Workload.make(writes=[b"x", b"y"], reads={1: 2, 2: 2}, read_gap=2)
    history = run(cfg, strategies, wl, SeededRandom(3), 60_000, key_seed=3, settle_steps=500)
    assert history.steps == 860
    init_writes = [
        ev for ev in history.trace if ev.op == "write" and FAMILY[ev.reg] is Family.INIT
    ]
    assert init_writes and all(type(ev.value) is Raw for ev in init_writes)
    report = checker.run_all_checks(history, {4})
    assert not report.violations()
    assert history.digest() == digest
    assert report.digest() == "947a2442ae4ff9b37740c5b1b1514509bed7ec414c0f1e54c3038880d8bf21ed"
