"""The register codec's encoder as one dict per value and one JSON dump.

``registers.encode_value`` joins a value's bytes from its fields and its
parts' memoized bytes.  These builders are the specification it must
match byte for byte: the dict a value stands for, dumped with sorted keys
and no spaces.  A malformed value raises here what it must raise there.
"""

from __future__ import annotations

import json

from byzreg.core import InformSet, TaggedValue, WitnessEntry, WitnessSet
from byzreg.registers import Family


def _tagged_obj(v: TaggedValue):
    return {"k": v.k, "u": v.u.hex()}


def _entry_obj(e: WitnessEntry):
    return {"v": _tagged_obj(e.value), "s": e.s, "p": e.p}


def _entry_key(e: WitnessEntry):
    return (e.p, e.s, e.value.k, e.value.u)


def _wset_obj(w: WitnessSet):
    return {
        "e": [_entry_obj(e) for e in sorted(w.entries, key=_entry_key)],
        "g": w.signer,
        "sig": w.signature.hex(),
    }


def _iset_obj(s: InformSet):
    members = sorted(s.members, key=lambda m: (m.signer, m.signature))
    return {"m": [_wset_obj(m) for m in members]}


ENCODERS = {
    Family.INIT: _tagged_obj,
    Family.ACK: _tagged_obj,
    Family.WITNESS: _entry_obj,
    Family.INFORM: _wset_obj,
    Family.FINAL: _iset_obj,
}


def oracle_bytes(family: Family, value) -> bytes:
    """The canonical bytes of ``value`` under the family's codec."""
    obj = ENCODERS[family](value)
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
