"""Register substrate: allocation counts, initializer contents, access
control, overwrite semantics, codecs, trace replay."""

from __future__ import annotations

import pytest

from byzreg.core import (
    Config,
    InformSet,
    ProcessId,
    TaggedValue,
    WitnessEntry,
    WitnessSet,
    WRITER,
)
from byzreg.crypto import make_keyring, sign_entries
from byzreg.registers import (
    FAMILY,
    READ_FIELDS,
    READER_END,
    WRITER_END,
    AccessViolation,
    Family,
    RegisterId,
    UnknownRegister,
    atomicity_violations,
    ack_reg,
    bank_init,
    decode_value,
    encode_value,
    export_trace,
    final_reg,
    init_reg,
    inform_reg,
    initial_state,
    witness_reg,
)


def cell(bank, reg):
    """A register's content, read without a trace event."""
    return bank.cells[reg]


def replay_trace(cfg, u0, ring, trace):
    """Every register's final cell, by replaying the trace's writes over a
    fresh bank."""
    bank = bank_init(cfg, u0, ring)
    cells = {reg: cell(bank, reg) for reg in range(len(bank.cells))}
    for ev in trace:
        if ev.op == "write":
            cells[ev.reg] = ev.value
    return cells


def make_bank(n, t, u0=b"init", seed=0):
    cfg = Config(n, t)
    ring = make_keyring(cfg, "keyed", seed)
    return cfg, ring, bank_init(cfg, u0, ring)


class TestAllocation:
    @pytest.mark.parametrize("n,expected", [(1, 5), (2, 16), (4, 56), (7, 161)])
    def test_count_is_3nn_plus_2n(self, n, expected):
        # 3n^2 + 2n, computed independently from the family sizes:
        # n init + n ack + n^2 each of witness/inform/final
        assert expected == n + n + 3 * n * n
        _, _, bank = make_bank(n, 0)
        assert len(bank.cells) == expected

    def test_families_present(self):
        cfg, _, bank = make_bank(4, 1)
        by_family = {}
        for r in range(len(bank.cells)):
            by_family.setdefault(FAMILY[r], []).append(r)
        assert len(by_family[Family.INIT]) == 4
        assert len(by_family[Family.ACK]) == 4
        assert len(by_family[Family.WITNESS]) == 16
        assert len(by_family[Family.INFORM]) == 16
        assert len(by_family[Family.FINAL]) == 16

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_slots_are_dense_and_keep_their_place(self, n):
        # a bank of n readers uses exactly slots 0..3n^2+2n-1, whatever
        # larger n was laid out before, and each slot names its register
        make_bank(9, 0)
        regs = [init_reg(i) for i in range(1, n + 1)] + [ack_reg(i) for i in range(1, n + 1)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                regs += [witness_reg(i, j), inform_reg(i, j), final_reg(i, j)]
        assert sorted(regs) == list(range(3 * n * n + 2 * n))
        assert str(init_reg(2)) == "init[w->r2]" and str(ack_reg(2)) == "ack[r2->w]"
        assert str(final_reg(3, 1)) == "final[r3->r1]"
        assert (WRITER_END[witness_reg(3, 1)], READER_END[witness_reg(3, 1)]) == (3, 1)

    def test_reader_index_below_one_rejected(self):
        with pytest.raises(ValueError):
            init_reg(0)
        with pytest.raises(ValueError):
            witness_reg(2, -1)

    def test_register_outside_the_bank_unknown(self):
        _, _, bank = make_bank(2, 0)
        with pytest.raises(UnknownRegister):
            bank.read(init_reg(3), ProcessId.reader(3))
        with pytest.raises(UnknownRegister):
            bank.write(final_reg(1, 5), b"x", ProcessId.reader(1))
        # slots no layout allocated, past it and below it
        for slot in (10**6, -1):
            with pytest.raises(UnknownRegister, match=f"^{slot}$"):
                bank.read(RegisterId(slot), ProcessId.reader(1))


class TestInitializers:
    def test_init_and_ack_hold_initial_tagged_value(self):
        cfg, _, bank = make_bank(4, 1, u0=b"zero")
        for i in cfg.reader_indices():
            assert cell(bank, init_reg(i)) == TaggedValue(0, b"zero")
            assert cell(bank, ack_reg(i)) == TaggedValue(0, b"zero")

    def test_witness_cells_hold_owner_entry(self):
        cfg, ring, bank = make_bank(4, 1)
        for i in cfg.reader_indices():
            for j in cfg.reader_indices():
                e = cell(bank, witness_reg(i, j))
                assert e == initial_state(ring, cfg, b"init").entries[i]

    def test_inform_cells_signed_by_owner(self):
        cfg, ring, bank = make_bank(4, 1)
        from byzreg.crypto import verify_witness_set

        for i in cfg.reader_indices():
            ws = cell(bank, inform_reg(i, 2))
            assert ws.signer == i
            assert verify_witness_set(ring, ws)
            assert len(ws.entries) == cfg.n

    def test_final_cells_hold_full_initial_inform_set(self):
        cfg, ring, bank = make_bank(4, 1)
        expected = initial_state(ring, cfg, b"init").inform_set
        got = cell(bank, final_reg(3, 1))
        assert got == expected
        assert len(got.members) == cfg.n  # |L| = n >= n - t

    def test_banks_never_share_cells(self):
        # bank_init and the replay in atomicity_violations each copy the
        # initial cells of the ring's initial state
        cfg, ring, bank = make_bank(2, 0)
        twin = bank_init(cfg, b"init", ring)
        v1 = TaggedValue(1, b"a")
        bank.write(init_reg(1), v1, WRITER)
        assert atomicity_violations(cfg, b"init", ring, bank.trace) == []
        for other in (twin, bank_init(cfg, b"init", ring)):
            assert cell(other, init_reg(1)) == TaggedValue(0, b"init")
        assert list(initial_state(ring, cfg, b"init").cells) == [
            cell(twin, reg) for reg in range(len(twin.cells))
        ]

    def test_read_before_write_returns_initializer(self):
        cfg, _, bank = make_bank(2, 0)
        assert bank.read(init_reg(1), ProcessId.reader(1)) == TaggedValue(0, b"init")


class TestAccessControl:
    def test_writer_writes_init(self):
        cfg, _, bank = make_bank(4, 1)
        data = TaggedValue(1, b"a")
        bank.write(init_reg(3), data, WRITER)
        assert cell(bank, init_reg(3)) == data
        assert bank.trace[-1].op == "write"

    def test_reader_cannot_write_init(self):
        cfg, _, bank = make_bank(4, 1)
        data = TaggedValue(1, b"a")
        with pytest.raises(AccessViolation):
            bank.write(init_reg(3), data, ProcessId.reader(2))

    def test_wrong_reader_cannot_read(self):
        cfg, _, bank = make_bank(4, 1)
        with pytest.raises(AccessViolation):
            bank.read(init_reg(3), ProcessId.reader(2))
        with pytest.raises(AccessViolation):
            bank.read(witness_reg(1, 2), ProcessId.reader(3))

    def test_overwrite_keeps_second_value(self):
        cfg, _, bank = make_bank(4, 1)
        v1 = TaggedValue(1, b"a")
        v2 = TaggedValue(2, b"b")
        bank.write(init_reg(1), v1, WRITER)
        first = bank.write_seq[init_reg(1)]
        bank.write(init_reg(2), v1, WRITER)
        between = bank.write_seq[init_reg(2)]
        bank.write(init_reg(1), v2, WRITER)
        assert cell(bank, init_reg(1)) == v2
        # the overwrite takes a later sequence number than any write before it
        assert 0 < first < between < bank.write_seq[init_reg(1)]
        assert bank.write_seq[init_reg(3)] == 0  # never written

    def test_read_after_write_returns_written(self):
        cfg, _, bank = make_bank(4, 1)
        v1 = TaggedValue(1, b"a")
        bank.write(init_reg(1), v1, WRITER)
        assert bank.read(init_reg(1), ProcessId.reader(1)) == v1


class TestCodecs:
    def test_tagged_round_trip(self):
        v = TaggedValue(3, b"\x00\xffpayload")
        assert decode_value(Family.INIT, encode_value(Family.INIT, v)) == v

    def test_entry_round_trip(self):
        e = WitnessEntry(TaggedValue(1, b"x"), 5, 2)
        assert decode_value(Family.WITNESS, encode_value(Family.WITNESS, e)) == e

    def test_inform_set_round_trip(self):
        cfg, ring, _ = make_bank(4, 1)
        s = initial_state(ring, cfg, b"init").inform_set
        assert decode_value(Family.FINAL, encode_value(Family.FINAL, s)) == s

    def test_garbage_bytes_rejected(self):
        for family in Family:
            assert decode_value(family, b"\x00\x01 not json") is None

    def test_wrong_shape_rejected(self):
        assert decode_value(Family.INIT, b'{"k": -1, "u": "00"}') is None
        assert decode_value(Family.WITNESS, b'{"v": {"k":0,"u":""}, "s": -2, "p": 1}') is None
        assert decode_value(Family.INIT, b'{"k": 1}') is None

    @pytest.mark.parametrize(
        "family,data",
        [
            (Family.INIT, b"[" * 100_000),
            (Family.FINAL, b'{"m":' * 100_000 + b"[]" + b"}" * 100_000),
        ],
        ids=["open_brackets", "nested_inform_sets"],
    )
    def test_nesting_too_deep_to_parse_rejected(self, family, data):
        # the parser raises RecursionError, not ValueError, on these
        assert decode_value(family, data) is None

    @pytest.mark.parametrize(
        "family,data",
        [
            (Family.INIT, b'{"k":true,"u":"78"}'),
            (Family.WITNESS, b'{"p":1,"s":true,"v":{"k":1,"u":"78"}}'),
            (Family.WITNESS, b'{"p":true,"s":1,"v":{"k":1,"u":"78"}}'),
            (Family.INFORM, b'{"e":[],"g":true,"sig":""}'),
        ],
        ids=["tagged_k", "entry_s", "entry_p", "wset_signer"],
    )
    def test_json_boolean_is_not_an_integer(self, family, data):
        # true would decode to a value that prints as True but compares and
        # hashes equal to the one with 1 there, so once it was encoded the
        # encode cache would give its non-canonical bytes for that value
        assert decode_value(family, data) is None

    def test_encoding_canonical(self):
        v = TaggedValue(3, b"zz")
        assert encode_value(Family.INIT, v) == encode_value(Family.INIT, TaggedValue(3, b"zz"))

    def test_literal_encodings(self):
        # one dict per value, dumped with sorted keys and no spaces; entries
        # sorted by (p, s, k, u), members by (signer, signature)
        tagged = TaggedValue(1, b"a")
        late, early = WitnessEntry(tagged, 2, 3), WitnessEntry(tagged, 5, 1)
        wset = WitnessSet(frozenset({late, early}), 3, b"\x01\x02")
        first = WitnessSet(frozenset({late}), 1, b"\xff")
        entry_bytes = b'{"p":3,"s":2,"v":{"k":1,"u":"61"}}'
        wset_bytes = (
            b'{"e":[{"p":1,"s":5,"v":{"k":1,"u":"61"}},' + entry_bytes + b'],"g":3,"sig":"0102"}'
        )
        assert encode_value(Family.INIT, TaggedValue(7, b"xy")) == b'{"k":7,"u":"7879"}'
        assert encode_value(Family.ACK, TaggedValue(0, b"")) == b'{"k":0,"u":""}'
        assert encode_value(Family.WITNESS, late) == entry_bytes
        assert encode_value(Family.INFORM, wset) == wset_bytes
        assert encode_value(Family.FINAL, InformSet(frozenset({wset, first}))) == (
            b'{"m":[{"e":[' + entry_bytes + b'],"g":1,"sig":"ff"},' + wset_bytes + b"]}"
        )

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_read_returns_the_written_object(self, family):
        tagged = TaggedValue(7, b"identity-" + family.value.encode())
        entries = frozenset(WitnessEntry(tagged, 4, p) for p in (1, 2, 3))
        ring = make_keyring(Config(4, 1), "keyed", 0)
        value = {
            Family.INIT: tagged,
            Family.ACK: tagged,
            Family.WITNESS: WitnessEntry(tagged, 4, 1),
            Family.INFORM: sign_entries(ring, 1, entries),
            Family.FINAL: InformSet(frozenset(sign_entries(ring, i, entries) for i in (1, 2, 3))),
        }[family]
        reg, owner, reader = {
            Family.INIT: (init_reg(1), WRITER, 1),
            Family.ACK: (ack_reg(1), 1, WRITER),
            Family.WITNESS: (witness_reg(1, 2), 1, 2),
            Family.INFORM: (inform_reg(1, 2), 1, 2),
            Family.FINAL: (final_reg(1, 2), 1, 2),
        }[family]
        _, _, bank = make_bank(4, 1)
        bank.write(reg, value, ProcessId(owner))
        assert bank.read(reg, ProcessId(reader)) is value

    @pytest.mark.parametrize(
        "family,value",
        [
            (Family.INIT, TaggedValue(-1, b"negative counter")),
            (Family.WITNESS, WitnessEntry(TaggedValue(1, b"x"), 1, 0)),
            (Family.WITNESS, WitnessEntry(TaggedValue(1, b"x"), -1, 1)),
            (
                Family.INFORM,
                WitnessSet(frozenset({WitnessEntry(TaggedValue(1, b"x"), 1, 1)}), 0, b"s"),
            ),
            (Family.FINAL, InformSet(frozenset({WitnessSet(frozenset(), 0, b"s")}))),
            # wider than the signing payload's fields
            (Family.INIT, TaggedValue(2**64, b"x")),
            (Family.WITNESS, WitnessEntry(TaggedValue(1, b"x"), 2**64, 1)),
            (Family.WITNESS, WitnessEntry(TaggedValue(1, b"x"), 1, 2**32)),
            (
                Family.INFORM,
                WitnessSet(frozenset({WitnessEntry(TaggedValue(1, b"x"), 1, 1)}), 2**32, b"s"),
            ),
        ],
        ids=["tagged_k_negative", "entry_p_zero", "entry_s_negative", "wset_signer_zero",
             "iset_member_signer_zero", "tagged_k_2_64", "entry_s_2_64", "entry_p_2_32",
             "wset_signer_2_32"],
    )
    def test_undecodable_values_still_rejected_after_encoding(self, family, value):
        assert decode_value(family, encode_value(family, value)) is None

    def test_widest_fields_decode(self):
        entry = WitnessEntry(TaggedValue(2**64 - 1, b"x"), 2**64 - 1, 2**32 - 1)
        assert decode_value(Family.WITNESS, encode_value(Family.WITNESS, entry)) == entry
        wset = WitnessSet(frozenset({entry}), 2**32 - 1, b"s")
        assert decode_value(Family.INFORM, encode_value(Family.INFORM, wset)) == wset


class TestTrace:
    def test_trace_is_ordered_and_replayable(self):
        cfg, ring, bank = make_bank(2, 0)
        v1 = TaggedValue(1, b"a")
        bank.current_step = 5
        bank.write(init_reg(1), v1, WRITER)
        bank.current_step = 6
        bank.read(init_reg(1), ProcessId.reader(1))
        trace = bank.trace
        assert [e.step for e in trace] == [5, 6]
        final_cells = replay_trace(cfg, b"init", ring, trace)
        assert final_cells[init_reg(1)] == v1

    def test_write_and_read_at_one_step_keep_recording_order(self):
        # nothing here advances current_step, so the logs of a bank stepped
        # in place merge by the writes logged before each read, not by step
        cfg, ring, bank = make_bank(2, 0)
        r1, r2 = ProcessId.reader(1), ProcessId.reader(2)
        v1, v2 = TaggedValue(1, b"a"), TaggedValue(2, b"b")
        ops = [
            ("read", init_reg(1), r1),
            ("write", init_reg(1), v1, WRITER),
            ("read", init_reg(1), r1),
            ("read", init_reg(2), r2),
            ("write", init_reg(2), v1, WRITER),
            ("write", init_reg(1), v2, WRITER),
            ("read", init_reg(1), r1),
            ("read", init_reg(2), r2),
            ("write", init_reg(1), v1, WRITER),
        ]
        for kind, reg, *args in ops:
            getattr(bank, kind)(reg, *args)
        trace = bank.trace
        assert [(ev.op, ev.reg) for ev in trace] == [(kind, reg) for kind, reg, *_ in ops]
        assert [ev.value for ev in trace if ev.op == "read"] == [
            TaggedValue(0, b"init"), v1, TaggedValue(0, b"init"), v2, v1
        ]
        assert {ev.step for ev in trace} == {0}
        events, reads = bank.logs()
        assert all(ev.op == "write" for ev in events)
        assert len(reads) == 5 * READ_FIELDS
        assert atomicity_violations(cfg, b"init", ring, events, reads) == []
        assert atomicity_violations(cfg, b"init", ring, trace) == []
        assert list(export_trace(events, reads)) == list(export_trace(trace))

    def test_atomicity_violations_empty_for_honest_trace(self):
        cfg, ring, bank = make_bank(2, 0)
        v1 = TaggedValue(1, b"a")
        bank.write(init_reg(1), v1, WRITER)
        bank.read(init_reg(1), ProcessId.reader(1))
        assert atomicity_violations(cfg, b"init", ring, bank.trace) == []

    def test_export_has_digests_not_values(self):
        cfg, ring, bank = make_bank(2, 0)
        bank.read(init_reg(1), ProcessId.reader(1))
        lines = list(export_trace(bank.trace))
        assert len(lines) == 1
        assert "value_digest" in lines[0]
        assert "init[w->r1]" in lines[0]
