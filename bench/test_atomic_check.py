"""The benchmark's atomic-register check catches hand-built violations and
passes real runs."""

from __future__ import annotations

import atomic_check

from byzreg.adversary import StrategyAssignment
from byzreg.core import Config, ProcessId, TaggedValue, WRITER
from byzreg.engine import HliEvent, SeededRandom, Workload, run

U0 = TaggedValue(0, b"init")
A = TaggedValue(1, b"a")
B = TaggedValue(2, b"b")
R1 = ProcessId.reader(1)
R2 = ProcessId.reader(2)


def op(pid, kind, value, invoke, response):
    """Invoke and response events of one operation."""
    return [
        HliEvent(pid, "invoke", kind, value if kind == "write" else None, invoke),
        HliEvent(pid, "response", kind, value, response),
    ]


def ordered(*ops):
    return sorted((ev for o in ops for ev in o), key=lambda ev: ev.step)


def test_clean_history_passes():
    events = ordered(
        op(WRITER, "write", A, 1, 10),
        op(R1, "read", U0, 2, 5),
        op(R2, "read", A, 6, 12),
        op(R1, "read", A, 13, 15),
    )
    assert atomic_check.violations(events, U0) == []


def test_stale_read_is_caught():
    # write A completes at step 5; a read invoked at step 10 still returns u0
    events = ordered(op(WRITER, "write", A, 1, 5), op(R1, "read", U0, 10, 12))
    bad = atomic_check.violations(events, U0)
    assert len(bad) == 1 and bad[0].startswith("stale read")


def test_new_old_inversion_is_caught():
    # write A is still pending, so each read alone is fine, but r2 reads
    # u0 after r1 already returned A
    events = ordered(
        op(WRITER, "write", A, 1, 50),
        op(R1, "read", A, 2, 5),
        op(R2, "read", U0, 10, 12),
    )
    bad = atomic_check.violations(events, U0)
    assert len(bad) == 1 and bad[0].startswith("new-old inversion")


def test_unwritten_and_future_values_are_caught():
    events = ordered(
        op(R1, "read", A, 2, 3),
        op(WRITER, "write", A, 5, 9),
        op(R2, "read", B, 10, 12),
    )
    bad = atomic_check.violations(events, U0)
    assert any("before its write was invoked" in line for line in bad)
    assert any("never written" in line for line in bad)


def test_byzantine_read_order_cycle_is_caught():
    events = ordered(
        op(R1, "read", A, 1, 2),
        op(R1, "read", B, 3, 4),
        op(R2, "read", B, 5, 6),
        op(R2, "read", A, 7, 8),
    )
    assert atomic_check.violations(events, U0, writer_byzantine=True)
    # without reader 2 the orders agree
    assert not atomic_check.violations(
        events, U0, writer_byzantine=True, byzantine_readers=frozenset({2})
    )


def test_real_fault_free_run_is_atomic():
    wl = Workload.make(writes=[b"a", b"b", b"c"], reads={1: 3, 2: 2}, read_gap=1)
    history = run(Config(4, 0), StrategyAssignment(), wl, SeededRandom(seed=7), 100_000)
    assert history.status == "completed"
    assert atomic_check.violations(history.hli_events, TaggedValue(0, history.u0)) == []
