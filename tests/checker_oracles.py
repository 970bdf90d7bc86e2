"""Pairwise reference versions of the checker passes that became sweeps.

Each function is the all-pairs loop the checker used before its pass was
rewritten as a sweep (see the coverage-pattern notes in checker.py).  They
are quadratic and kept only so that tests can compare verdicts on random
inputs.  Where the checker names a violating pair, the pair it names may
differ from the first one in these loops' order, so the tests compare the
status and run the reference on the named pair alone.
"""

from __future__ import annotations

from byzreg.checker import Kind, NoLinearization, Verdict
from byzreg.core import (
    CommonQuorumTooSmall,
    EqualStampsDifferentValue,
    OrderVerdict,
    TaggedValue,
    mapsto_compare,
)


def total_order(stabs, cfg) -> Verdict:
    for i in range(len(stabs)):
        for j in range(i + 1, len(stabs)):
            a, b = stabs[i], stabs[j]
            try:
                verdict = mapsto_compare(a.ws, b.ws, cfg)
            except (CommonQuorumTooSmall, EqualStampsDifferentValue) as exc:
                return Verdict(
                    "violation",
                    f"{a.value} vs {b.value}: {type(exc).__name__}: {exc}",
                )
            if verdict is OrderVerdict.CONCURRENT:
                return Verdict(
                    "violation",
                    f"concurrent pair {a.value}{a.pt} vs {b.value}{b.pt}",
                )
    return Verdict("pass", f"{len(stabs)} stabilizations totally ordered")


def read_attribution(reads, by_owner):
    out = {}
    for read in reads:
        log = by_owner.get(read.process.index, [])
        chosen = None
        for step, stab in log:
            if step <= read.response_step:
                chosen = stab
            else:
                break
        if chosen is not None:
            out[(read.process, read.index)] = chosen
    return out


def first_inversion(reads, attribution, cfg) -> Verdict | None:
    for i in range(len(reads)):
        for j in range(len(reads)):
            if i == j:
                continue
            r1, r2 = reads[i], reads[j]
            if r1.response_step < r2.invoke_step:
                s1 = attribution.get((r1.process, r1.index))
                s2 = attribution.get((r2.process, r2.index))
                if s1 is None or s2 is None:
                    continue
                try:
                    verdict = mapsto_compare(s1.ws, s2.ws, cfg)
                except (CommonQuorumTooSmall, EqualStampsDifferentValue) as exc:
                    return Verdict(
                        "violation",
                        f"incomparable returns {r1.response_value} vs {r2.response_value}: {exc}",
                    )
                if verdict in (OrderVerdict.AFTER, OrderVerdict.CONCURRENT):
                    return Verdict(
                        "violation",
                        f"new-old inversion: {r1.process} returned {r1.response_value} "
                        f"before {r2.process} returned {r2.response_value}",
                    )
    return None


def register_linearizability(history, stabs, by_owner, classification, cfg) -> Verdict:
    v0 = TaggedValue(0, history.u0)
    reads = history.completed_reads
    attribution = read_attribution(reads, by_owner)
    correct_write_ops = [
        op
        for op in history.writes
        if op.response_step is not None
        and op.invoke_value is not None
        and classification.kind_of(op.invoke_value) is Kind.CORRECT
    ]
    first_stab_of = {}
    for s in stabs:
        first_stab_of.setdefault(s.value, s)
    for read in reads:
        v = read.response_value
        stab = attribution.get((read.process, read.index))
        if v == v0:
            for s in stabs:
                if s.value != v0 and s.step < read.invoke_step:
                    return Verdict(
                        "violation",
                        f"read at {read.process} returned the initial value after "
                        f"{s.value} stabilized at step {s.step}",
                    )
            continue
        if stab is None or stab.value != v:
            return Verdict(
                "violation",
                f"read at {read.process} returned {v} with no matching final-row state",
            )
        if stab.step > read.response_step:
            return Verdict(
                "violation",
                f"read at {read.process} returned {v} before it stabilized",
            )
        preceding = [op for op in correct_write_ops if op.response_step < read.invoke_step]
        if preceding:
            last = max(preceding, key=lambda op: op.response_step)
            w = last.invoke_value
            if w != v:
                w_stab = first_stab_of.get(w)
                if w_stab is None:
                    return Verdict(
                        "violation", f"correct write {w} completed without stabilizing"
                    )
                verdict = mapsto_compare(w_stab.ws, stab.ws, cfg)
                if verdict not in (OrderVerdict.BEFORE, OrderVerdict.EQUAL):
                    return Verdict(
                        "violation",
                        f"read at {read.process} returned {v}, older than the most "
                        f"recent preceding correct write {w}",
                    )
    inversion = first_inversion(reads, attribution, cfg)
    return inversion or Verdict("pass", f"{len(reads)} reads current and inversion-free")


def real_time(real) -> None:
    """``real`` holds the real operations in sequence order."""
    placed = list(enumerate(real))
    for pos_a, op_a in placed:
        for pos_b, op_b in placed:
            if (
                op_a.response_step is not None
                and op_b.invoke_step > op_a.response_step
                and pos_b < pos_a
            ):
                raise NoLinearization(
                    f"real-time order broken between {op_a.process} and {op_b.process}"
                )


def write_stabilization(history, stabs) -> Verdict:
    if history.cfg.writer_byzantine:
        return Verdict("pass", "vacuous: Byzantine writer does not await stabilization")
    for op in history.writes:
        if op.response_step is None or op.invoke_value is None:
            continue
        ok = any(s.value == op.invoke_value and s.step <= op.response_step for s in stabs)
        if not ok:
            return Verdict(
                "violation",
                f"write {op.invoke_value} responded at step {op.response_step} "
                f"without a prior stabilization",
            )
    return Verdict("pass", "completed writes stabilized before responding")


def total_ordering_reads(history) -> Verdict:
    orders = {}
    per_reader = {}
    for r in history.completed_reads:
        per_reader.setdefault(r.process, []).append(r.response_value)
    for pid, seq in sorted(per_reader.items()):
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                a, b = seq[i], seq[j]
                if a == b:
                    continue
                key = (a.k, a.u, b.k, b.u)
                rev = (b.k, b.u, a.k, a.u)
                if rev in orders:
                    other = orders[rev][0]
                    return Verdict(
                        "violation",
                        f"{other} saw {b} before {a}; {pid} saw {a} before {b}",
                    )
                orders.setdefault(key, (pid, pid))
    return Verdict("pass", "common order across readers")
