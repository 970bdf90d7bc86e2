"""The compositional encoder against the JSON dict encoding it replaced.

``registers.encode_value`` joins a value's bytes from its fields and its
parts' memoized bytes, and decides from the fields alone whether to seed
the decode memo.  ``codec_oracle`` keeps the dict builders it replaced.
Random values of every family, with odd fields (booleans, int subclasses,
out-of-range ints, floats, strings, non-bytes payloads) and parts encoded,
decoded or copied beforehand, must give the oracle's bytes or raise what
the oracle raises, decode as the real decoder decodes, and never seed the
decode memo with bytes the decoder rejects.  A guard keeps a whole run at
n=10 free of JSON dumps.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from contextlib import contextmanager, suppress

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from byzreg import registers
from byzreg.adversary import Equivocate, FakeWitnessStamp, StrategyAssignment
from byzreg.core import Config, InformSet, TaggedValue, WitnessEntry, WitnessSet
from byzreg.engine import SeededRandom, Workload, run
from byzreg.registers import Family, decode_value, encode_value
from codec_oracle import oracle_bytes


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


def parts(value):
    """(family, part) for every part nested in ``value``, innermost first."""
    if isinstance(value, InformSet):
        for m in value.members:
            yield from parts(m)
            yield Family.INFORM, m
    elif isinstance(value, WitnessSet):
        for e in value.entries:
            yield from parts(e)
            yield Family.WITNESS, e
    elif isinstance(value, WitnessEntry):
        yield Family.INIT, value.value


def typed(v):
    """``v`` with the type of every field beside it: equal values whose
    fields differ in type (1 and Int(1), bytes and a memoryview) differ."""
    if dataclasses.is_dataclass(v):
        return type(v), tuple(typed(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, (frozenset, tuple)):
        return type(v), frozenset(typed(x) for x in v)
    return type(v), v


def real_decode(family, data):
    """What the decoder gives for ``data``, bypassing the decode memo."""
    try:
        return registers._DECODERS[family](json.loads(data.decode()))
    except ValueError:
        return None


@contextmanager
def fresh_memos():
    # Each example starts from empty memos, so that it sees only the
    # values it encodes itself.
    saved = registers._encode_cache, registers._decode_cache
    registers._encode_cache, registers._decode_cache = {}, {}
    try:
        yield
    finally:
        registers._encode_cache, registers._decode_cache = saved


def outcome(encode, family, value):
    try:
        return encode(family, value)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def prepare(family, part, how):
    """Leave ``part`` in the memos as a run might have: encoded itself,
    decoded from its canonical bytes, or encoded as an equal copy."""
    with suppress(Exception):
        if how == "encode":
            encode_value(family, part)
        elif how == "decode":
            decode_value(family, oracle_bytes(family, part))
        elif how == "copy":
            encode_value(family, dataclasses.replace(part))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_encoding_matches_the_json_dict_encoding(data):
    family = data.draw(st.sampled_from(list(Family)), label="family")
    value = data.draw(VALUES[family], label="value")
    with fresh_memos():
        for fam, part in parts(value):
            prepare(fam, part, data.draw(st.sampled_from(["none", "encode", "decode", "copy"])))
        got = outcome(encode_value, family, value)
        assert got == outcome(oracle_bytes, family, value)
        if isinstance(got, bytes):
            assert typed(decode_value(family, got)) == typed(real_decode(family, got))
        # nothing the decoder rejects is ever seeded, and every seeded
        # value is what the decoder gives, down to the type of each field
        for (fam, raw), seeded in registers._decode_cache.items():
            expected = real_decode(Family(fam), raw)
            assert expected is not None and typed(seeded) == typed(expected)


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
def test_odd_values_encode_exactly_and_are_not_seeded(family, value):
    # each is equal to a value that decodes, or encodes to bytes that do,
    # but differs from what the decoder gives in a class or field type
    with fresh_memos():
        encode_value(Family.INIT, TAGGED_X)
        data = encode_value(family, value)
        assert data == oracle_bytes(family, value)
        assert registers._decode_cache.get((family.value, data)) is not value


@pytest.mark.parametrize("bool_first", [True, False], ids=["bool_first", "int_first"])
def test_equal_values_of_other_field_types_keep_their_own_bytes(bool_first):
    # the memos are keyed by equality, and TaggedValue(True, b"x") equals
    # TaggedValue(1, b"x"): in either order, each gets its own bytes, and
    # the int's bytes decode to the int's value
    exact, odd = TaggedValue(1, b"x"), TaggedValue(True, b"x")
    with fresh_memos():
        for value in (odd, exact) if bool_first else (exact, odd):
            assert encode_value(Family.INIT, value) == oracle_bytes(Family.INIT, value)
        for value in (odd, exact):
            assert encode_value(Family.INIT, value) == oracle_bytes(Family.INIT, value)
        assert decode_value(Family.INIT, encode_value(Family.INIT, exact)) is exact
        assert decode_value(Family.INIT, encode_value(Family.INIT, odd)) is None


def test_fields_are_read_before_any_is_printed():
    # the dict was built before it was dumped: a signature without .hex()
    # raises AttributeError even when an earlier field cannot be printed
    # (an int with more digits than the interpreter prints: ValueError)
    entry = WitnessEntry(TaggedValue(10**4400, b"x"), 1, 1)
    unprintable = WitnessSet(frozenset({entry}), 1, b"s")
    both = WitnessSet(frozenset({entry}), 1, "no hex")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with fresh_memos():
            assert outcome(encode_value, Family.INFORM, unprintable) is ValueError
            assert outcome(oracle_bytes, Family.INFORM, unprintable) is ValueError
            assert outcome(encode_value, Family.INFORM, both) is AttributeError
            assert outcome(oracle_bytes, Family.INFORM, both) is AttributeError
    finally:
        sys.set_int_max_str_digits(limit)


def test_run_at_n10_dumps_no_json(monkeypatch):
    # fresh keys: every witness and inform set of this run is signed anew,
    # so the codec meets values it has not encoded before
    dumps = []

    def counting_dumps(*args, **kwargs):
        dumps.append(args)
        return json.dumps(*args, **kwargs)

    monkeypatch.setattr(registers, "json", types.SimpleNamespace(loads=json.loads, dumps=counting_dumps))
    encoded_before = len(registers._encode_cache)
    wl = Workload.make(writes=[b"a"], reads={2: 1, 5: 1, 7: 1}, read_gap=1)
    strategies = StrategyAssignment(
        readers={9: Equivocate.make({1: b"zz", 2: b"qq"}), 10: FakeWitnessStamp(offset=10)}
    )
    history = run(
        Config(10, 3), strategies, wl, SeededRandom(seed=3), 400_000, key_seed=0x5EED_C0DE
    )
    assert history.steps > 0
    assert len(registers._encode_cache) - encoded_before > 20
    assert dumps == []
