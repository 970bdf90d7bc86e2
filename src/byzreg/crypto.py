"""Pluggable signatures over witness-set payloads.

Two interchangeable schemes sit behind one interface: a keyed-digest
scheme (HMAC-SHA256, fast and reproducible for seeded runs) and Ed25519
for integration confidence.  All key material is derived from a master
seed so identical scenario configs produce identical artifacts.

The model grants unforgeability by assumption: adversary code only ever
signs under its own identity, and the tests pin the unforgeability
contract for both schemes.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .core import Config, ProcessId, WitnessEntry, WitnessSet, WRITER

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )


class UnknownProcess(Exception):
    """Signing was requested for a process with no key pair."""


def canonical_entries_payload(entries: Iterable[WitnessEntry]) -> bytes:
    """Canonical signing payload for a witness entry set.

    Entries are sorted by witness index (then stamp, then value) and
    packed with fixed-width integers so signature equality never depends
    on in-memory set order.
    """
    parts = []
    for e in sorted(entries, key=lambda e: (e.p, e.s, e.value.k, e.value.u)):
        parts.append(struct.pack(">IQQI", e.p, e.s, e.value.k, len(e.value.u)))
        parts.append(e.value.u)
    return b"".join(parts)


def _seed_material(seed: int, pid: ProcessId) -> bytes:
    return hashlib.sha256(f"byzreg/{seed}/{pid}".encode()).digest()


class KeyedDigestScheme:
    """Deterministic HMAC-SHA256 test scheme."""

    name = "keyed"

    def keypair(self, seed: int, pid: ProcessId) -> tuple[bytes, bytes]:
        secret = _seed_material(seed, pid)
        return secret, secret

    def sign(self, private: bytes, payload: bytes) -> bytes:
        return hmac.new(private, payload, hashlib.sha256).digest()

    def verify(self, public: bytes, payload: bytes, signature: bytes) -> bool:
        if not isinstance(signature, (bytes, bytearray)):
            return False
        expected = hmac.new(public, payload, hashlib.sha256).digest()
        return hmac.compare_digest(expected, bytes(signature))


class Ed25519Scheme:
    """Real asymmetric scheme; Ed25519 signatures are deterministic.

    The only user of ``cryptography``, which it imports when first used,
    so that a process signing with the keyed scheme never loads it."""

    name = "ed25519"

    def keypair(self, seed: int, pid: ProcessId):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        private = Ed25519PrivateKey.from_private_bytes(_seed_material(seed, pid))
        return private, private.public_key()

    def sign(self, private: Ed25519PrivateKey, payload: bytes) -> bytes:
        return private.sign(payload)

    def verify(self, public: Ed25519PublicKey, payload: bytes, signature: bytes) -> bool:
        from cryptography.exceptions import InvalidSignature

        if not isinstance(signature, (bytes, bytearray)):
            return False
        try:
            public.verify(bytes(signature), payload)
            return True
        except InvalidSignature:
            return False


SCHEMES = {
    KeyedDigestScheme.name: KeyedDigestScheme,
    Ed25519Scheme.name: Ed25519Scheme,
}


@dataclass(eq=False)
class KeyRing:
    """Per-process signing capability plus public verification material.
    Compared and hashed by identity, so a machine's state key can hold
    it."""

    scheme_name: str
    _scheme: object = field(repr=False)
    _private: dict[ProcessId, object] = field(repr=False)
    _public: dict[ProcessId, object] = field(repr=False)
    # memos of pure functions of these keys, so they live as long as the
    # ring: registers.initial_state per (cfg, u0), the validation of a
    # final register's inform set per (inform set, cfg), the witness set
    # (or None) a reader signs at the end of a witness collect per
    # (reader, cfg, *view) and the form_inform_set result at the end of an
    # inform collect per (cfg, *view), a view being the collected dict's
    # values in reader order, the witness set sign_entries makes per
    # (signer, entries), and the verdict of verify_witness_set per witness
    # set, into which initial_state enters the sets it signs
    initial_states: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _final_validation_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    witnessed: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    formed: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    signed: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    verified: dict = field(default_factory=dict, init=False, repr=False, compare=False)


RING_CACHE_SIZE = 32
_RING_CACHE: dict[tuple, KeyRing] = {}  # least recently used first


def make_keyring(cfg: Config, scheme: str = "keyed", seed: int = 0) -> KeyRing:
    """Build a key ring covering the writer and every reader (Byzantine
    included).  The RING_CACHE_SIZE most recently used rings are
    memoized: they are read-only, and sharing one object lets the memos
    it carries serve every run with the same keys.  An evicted ring is
    rebuilt from its seed with identical keys."""
    key = (cfg, scheme, seed)
    ring = _RING_CACHE.pop(key, None)
    if ring is None:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown signature scheme {scheme!r}")
        impl = SCHEMES[scheme]()
        private: dict[ProcessId, object] = {}
        public: dict[ProcessId, object] = {}
        for pid in [WRITER] + [ProcessId.reader(i) for i in cfg.reader_indices()]:
            priv, pub = impl.keypair(seed, pid)
            private[pid] = priv
            public[pid] = pub
        ring = KeyRing(scheme_name=scheme, _scheme=impl, _private=private, _public=public)
    _RING_CACHE[key] = ring
    if len(_RING_CACHE) > RING_CACHE_SIZE:
        del _RING_CACHE[next(iter(_RING_CACHE))]
    return ring


def sign(ring: KeyRing, pid: ProcessId, payload: bytes) -> bytes:
    if pid not in ring._private:
        raise UnknownProcess(str(pid))
    return ring._scheme.sign(ring._private[pid], payload)


def verify(ring: KeyRing, pid: ProcessId, payload: bytes, signature: bytes) -> bool:
    if pid not in ring._public:
        return False
    return ring._scheme.verify(ring._public[pid], payload, signature)


def sign_entries(ring: KeyRing, signer: int, entries: Iterable[WitnessEntry]) -> WitnessSet:
    """Sign an entry set under a reader's identity, producing its witness set.

    Signatures are deterministic, so the set is memoized on the ring per
    (signer, entries).
    """
    key = (signer, frozenset(entries))
    wset = ring.signed.get(key)
    if wset is None:
        sig = sign(ring, ProcessId.reader(signer), canonical_entries_payload(key[1]))
        wset = ring.signed[key] = WitnessSet(entries=key[1], signer=signer, signature=sig)
    return wset


def verify_witness_set(ring: KeyRing, wset: WitnessSet) -> bool:
    """Check a witness set's signature against its claimed signer.

    The verdict depends only on the ring's keys and the whole set
    (entries, signer and signature), so it is memoized on the ring.
    """
    ok = ring.verified.get(wset)
    if ok is None:
        ok = wset.signer >= 1 and verify(
            ring,
            ProcessId.reader(wset.signer),
            canonical_entries_payload(wset.entries),
            wset.signature,
        )
        ring.verified[wset] = ok
    return ok
