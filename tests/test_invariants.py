"""Trace-level protocol invariants checked over adversarial runs:
per-reader ack monotonicity, strictly increasing published witness
stamps, and well-formedness of every inform set a correct reader
publishes."""

from __future__ import annotations

import pytest

from byzreg import checker
from byzreg.adversary import (
    CollaborateStabilize,
    FakeWitnessStamp,
    MultiValueBurst,
    StrategyAssignment,
)
from byzreg.core import Config, ws_of
from byzreg.crypto import verify_witness_set
from byzreg.engine import SeededRandom, Workload, run
from byzreg.registers import FAMILY, Family, read_content


def adversarial_histories():
    cfg = Config(4, 1)
    cfg_bw = Config(4, 1, writer_byzantine=True)
    wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 2}, read_gap=1)
    out = []
    for seed in range(8):
        strategies = StrategyAssignment(readers={4: FakeWitnessStamp(offset=7)})
        out.append(
            (
                run(cfg, strategies, wl, SeededRandom(seed=seed), 60000,
                    settle_steps=300, raise_on_limit=False),
                strategies.byzantine_readers(),
            )
        )
        strategies = StrategyAssignment(
            writer=MultiValueBurst(values=(b"p", b"q")),
            readers={4: CollaborateStabilize()},
        )
        out.append(
            (
                run(cfg_bw, strategies, wl, SeededRandom(seed=seed), 60000,
                    settle_steps=400, raise_on_limit=False),
                strategies.byzantine_readers(),
            )
        )
    return out


HISTORIES = adversarial_histories()


@pytest.mark.parametrize("idx", range(len(HISTORIES)))
def test_correct_reader_acks_never_regress(idx):
    # the sequence of values a correct reader acknowledges is
    # non-decreasing under the stabilization order
    history, byz = HISTORIES[idx]
    stabs = checker.Analysis(history, byz).stabilizations
    ordered = checker.sort_stabilizations(stabs, history.cfg)
    rank = {}
    for pos, ev in enumerate(ordered):
        rank.setdefault(ev.value, pos)
    per_reader = {}
    for ev in history.trace:
        if ev.op != "write" or FAMILY[ev.reg] is not Family.ACK:
            continue
        i = ev.caller.index
        if i in byz:
            continue
        value = read_content(Family.ACK, ev.value)
        per_reader.setdefault(i, []).append(value)
    assert per_reader
    for i, values in per_reader.items():
        ranks = [rank[v] for v in values]
        assert ranks == sorted(ranks), f"reader {i} ack ranks {ranks}"


@pytest.mark.parametrize("idx", range(len(HISTORIES)))
def test_correct_reader_witness_stamps_strictly_increase(idx):
    history, byz = HISTORIES[idx]
    stamps_per_reader: dict[int, list[int]] = {}
    for ev in history.trace:
        if ev.op != "write" or FAMILY[ev.reg] is not Family.WITNESS:
            continue
        i = ev.caller.index
        if i in byz:
            continue
        entry = read_content(Family.WITNESS, ev.value)
        if entry is None:
            pytest.fail("correct reader published an undecodable witness entry")
        seq = stamps_per_reader.setdefault(i, [])
        if not seq or seq[-1] != entry.s:
            seq.append(entry.s)
    for i, seq in stamps_per_reader.items():
        assert seq == sorted(set(seq)), f"reader {i} stamps {seq}"


@pytest.mark.parametrize("idx", range(len(HISTORIES)))
def test_correct_reader_final_rows_always_validate(idx):
    history, byz = HISTORIES[idx]
    cfg = history.cfg
    ring = history.keyring()
    checked = 0
    for ev in history.trace:
        if ev.op != "write" or FAMILY[ev.reg] is not Family.FINAL:
            continue
        if ev.caller.index in byz:
            continue
        iset = read_content(Family.FINAL, ev.value)
        core = ws_of(iset, cfg)  # raises InvalidInformSet on a bad publish
        assert len(core) >= cfg.quorum
        assert len(iset.members) >= cfg.quorum
        assert all(verify_witness_set(ring, m) for m in iset.members)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("idx", range(len(HISTORIES)))
def test_successive_witness_sets_nondecreasing_per_source(idx):
    # a correct reader's published witness sets carry non-decreasing
    # source stamps for every witness they share
    history, byz = HISTORIES[idx]
    cfg = history.cfg
    prev_by_reader: dict[int, dict[int, int]] = {}
    for ev in history.trace:
        if ev.op != "write" or FAMILY[ev.reg] is not Family.INFORM:
            continue
        i = ev.caller.index
        if i in byz:
            continue
        wset = read_content(Family.INFORM, ev.value)
        stamps = {e.p: e.s for e in wset.entries}
        prev = prev_by_reader.get(i)
        if prev is not None:
            for q in prev.keys() & stamps.keys():
                assert stamps[q] >= prev[q], (
                    f"reader {i} regressed witness {q}: {prev[q]} -> {stamps[q]}"
                )
        prev_by_reader[i] = stamps
