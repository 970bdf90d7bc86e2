"""Signature schemes: round trips, unforgeability contract, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from byzreg import adversary, crypto, engine, registers
from byzreg.core import Config, ProcessId, TaggedValue, WitnessEntry, WitnessSet, WRITER
from byzreg.crypto import (
    RING_CACHE_SIZE,
    UnknownProcess,
    canonical_entries_payload,
    make_keyring,
    sign,
    sign_entries,
    verify,
    verify_witness_set,
)

CFG = Config(4, 1)


@pytest.fixture(params=["keyed", "ed25519"])
def ring(request):
    return make_keyring(CFG, scheme=request.param, seed=7)


def test_round_trip(ring):
    p = ProcessId.reader(1)
    sig = sign(ring, p, b"payload")
    assert verify(ring, p, b"payload", sig)


def test_wrong_signer_fails(ring):
    sig = sign(ring, ProcessId.reader(1), b"payload")
    assert not verify(ring, ProcessId.reader(2), b"payload", sig)
    assert not verify(ring, WRITER, b"payload", sig)


def test_flipped_payload_fails(ring):
    sig = sign(ring, ProcessId.reader(1), b"payload")
    assert not verify(ring, ProcessId.reader(1), b"pazload", sig)


def test_deterministic_signatures(ring):
    p = ProcessId.reader(3)
    assert sign(ring, p, b"m") == sign(ring, p, b"m")


def test_malformed_signature_returns_false(ring):
    assert not verify(ring, ProcessId.reader(1), b"m", b"garbage")
    assert not verify(ring, ProcessId.reader(1), b"m", None)


def test_unknown_process(ring):
    with pytest.raises(UnknownProcess):
        sign(ring, ProcessId.reader(9), b"m")
    assert not verify(ring, ProcessId.reader(9), b"m", b"sig")


def test_same_seed_same_keys():
    r1 = make_keyring(CFG, "keyed", seed=3)
    r2 = make_keyring(CFG, "keyed", seed=3)
    p = ProcessId.reader(2)
    assert sign(r1, p, b"x") == sign(r2, p, b"x")


def test_ring_cache_keeps_recent_rings_only():
    p = ProcessId.reader(2)
    first = make_keyring(CFG, "keyed", seed=10_000)
    kept = make_keyring(CFG, "keyed", seed=10_001)
    signature = sign(first, p, b"x")
    for seed in range(10_002, 10_002 + RING_CACHE_SIZE):
        assert make_keyring(CFG, "keyed", seed=10_001) is kept  # recently used
        make_keyring(CFG, "keyed", seed=seed)
        assert len(crypto._RING_CACHE) <= RING_CACHE_SIZE
    rebuilt = make_keyring(CFG, "keyed", seed=10_000)
    assert rebuilt is not first
    assert sign(rebuilt, p, b"x") == signature


def test_different_seed_different_signature():
    r1 = make_keyring(CFG, "keyed", seed=3)
    r2 = make_keyring(CFG, "keyed", seed=4)
    p = ProcessId.reader(2)
    assert sign(r1, p, b"x") != sign(r2, p, b"x")


def test_canonical_payload_order_independent():
    a = WitnessEntry(TaggedValue(1, b"v"), 2, 1)
    b = WitnessEntry(TaggedValue(1, b"v"), 2, 2)
    c = WitnessEntry(TaggedValue(1, b"v"), 3, 3)
    assert canonical_entries_payload([a, b, c]) == canonical_entries_payload([c, a, b])
    assert canonical_entries_payload([a, b]) != canonical_entries_payload([a, c])


def test_witness_set_round_trip(ring):
    entries = [WitnessEntry(TaggedValue(1, b"v"), 2, p) for p in (1, 2, 3)]
    ws = sign_entries(ring, 2, entries)
    assert ws.signer == 2
    assert verify_witness_set(ring, ws)


def test_witness_set_forged_signer_fails(ring):
    entries = frozenset(WitnessEntry(TaggedValue(1, b"v"), 2, p) for p in (1, 2, 3))
    honest = sign_entries(ring, 2, entries)
    forged = type(honest)(entries=entries, signer=3, signature=honest.signature)
    assert not verify_witness_set(ring, forged)


def test_verified_set_does_not_vouch_for_altered_copies(ring):
    entries = frozenset(WitnessEntry(TaggedValue(9, b"memo"), 1, p) for p in (1, 2, 3))
    genuine = sign_entries(ring, 2, entries)
    assert verify_witness_set(ring, genuine)
    sig = genuine.signature
    flipped = WitnessSet(entries, 2, bytes([sig[0] ^ 1]) + sig[1:])
    assert not verify_witness_set(ring, flipped)
    assert not verify_witness_set(ring, WitnessSet(entries, 3, sig))
    other_keys = make_keyring(CFG, ring.scheme_name, seed=8)
    assert not verify_witness_set(other_keys, genuine)
    assert verify_witness_set(ring, genuine)


def test_signing_is_memoized_per_signer_and_entries(ring, monkeypatch):
    calls = []
    scheme_sign = type(ring._scheme).sign

    def counted(self, private, payload):
        calls.append(payload)
        return scheme_sign(self, private, payload)

    monkeypatch.setattr(type(ring._scheme), "sign", counted)
    monkeypatch.setattr(ring, "signed", {})  # rings are cached across tests
    entries = [WitnessEntry(TaggedValue(5, b"memo-sign"), 1, p) for p in (1, 2, 3)]
    first = sign_entries(ring, 2, entries)
    assert sign_entries(ring, 2, reversed(entries)) is first
    assert len(calls) == 1
    other = sign_entries(ring, 3, entries)
    assert other.signer == 3 and len(calls) == 2
    assert verify_witness_set(ring, first) and verify_witness_set(ring, other)


@pytest.mark.parametrize("scheme", ["keyed", "ed25519"])
def test_initial_sets_entered_as_verified_verify(scheme):
    # initial_state enters the witness sets it signs into the ring's
    # verify_witness_set memo; each must verify on keys with cold memos
    keys = make_keyring(CFG, scheme, seed=11)

    def cold():
        return crypto.KeyRing(keys.scheme_name, keys._scheme, keys._private, keys._public)

    ring = cold()
    state = registers.initial_state(ring, CFG, b"init")
    assert set(ring.verified) == set(state.witness_sets.values())
    fresh = cold()
    for wset, ok in ring.verified.items():
        payload = canonical_entries_payload(wset.entries)
        assert ok and verify(fresh, ProcessId.reader(wset.signer), payload, wset.signature)


def test_rerun_on_one_key_seed_verifies_nothing_again(monkeypatch):
    calls = []
    scheme_verify = crypto.KeyedDigestScheme.verify

    def counted(self, public, payload, signature):
        calls.append(payload)
        return scheme_verify(self, public, payload, signature)

    monkeypatch.setattr(crypto.KeyedDigestScheme, "verify", counted)
    wl = engine.Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 1}, read_gap=1)

    def run():
        return engine.run(
            CFG, adversary.StrategyAssignment(), wl, engine.SeededRandom(seed=3),
            100_000, key_seed=31_337,
        )

    first = run()
    assert calls
    calls.clear()
    second = run()
    assert calls == []
    assert second.digest() == first.digest()


def test_keyed_runs_never_load_cryptography():
    # only Ed25519Scheme needs the package, so importing the command line
    # (and running a keyed campaign) leaves it unloaded
    script = (
        "import sys\n"
        "import byzreg.cli\n"
        "from byzreg.core import Config\n"
        "from byzreg.crypto import make_keyring, sign_entries\n"
        "sign_entries(make_keyring(Config(4, 1), 'keyed', 1), 1, ())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cryptography'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
