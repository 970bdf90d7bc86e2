"""Atomic-register check over a run's high-level events alone.

This check is independent of ``byzreg.checker``: it reads only the
invoke/response events a run records (objects with ``process``, ``kind``,
``op``, ``value`` and ``step``, as ``byzreg.engine.HliEvent`` has) and
tests the single-writer register rules directly.

With a correct writer, whose writes are sequential and carry distinct
tagged values:

1. every read returns u0 or a value the writer wrote;
2. no read returns a value whose write was invoked after the read's
   response;
3. no read returns a value older than the last write that completed
   before the read's invocation;
4. no two reads that do not overlap show a new-old inversion.

Rules 1-4 together make a single-writer history atomic.  A Byzantine
writer's invocations say nothing about what it put in the registers, so
for Byzantine-writer runs only this holds:

5. the read orders of all correct readers, taken together, form no cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    process: object
    op: str  # "read" | "write"
    invoke: int
    response: int | None
    value: object  # the written value for writes, the returned one for reads


def pair_ops(events) -> list[Op]:
    """Pair each process's invoke with its response, in invocation order."""
    open_ops: dict[object, object] = {}
    ops: list[Op] = []
    for ev in events:
        if ev.kind == "invoke":
            if ev.process in open_ops:
                raise ValueError(f"nested invoke at {ev.process}")
            open_ops[ev.process] = ev
            continue
        start = open_ops.pop(ev.process, None)
        if start is None or start.op != ev.op:
            raise ValueError(f"response without matching invoke at {ev.process}")
        value = start.value if ev.op == "write" else ev.value
        ops.append(Op(ev.process, ev.op, start.step, ev.step, value))
    for start in open_ops.values():
        value = start.value if start.op == "write" else None
        ops.append(Op(start.process, start.op, start.step, None, value))
    ops.sort(key=lambda o: o.invoke)
    return ops


def violations(
    events,
    u0,
    *,
    writer_byzantine: bool = False,
    byzantine_readers=frozenset(),
) -> list[str]:
    """Every rule broken by the run, as one line each (empty means atomic).

    ``u0`` is the register's initial tagged value; reads by the readers
    whose indices are in ``byzantine_readers`` are ignored.
    """
    ops = pair_ops(events)
    reads = [
        o
        for o in ops
        if o.op == "read"
        and o.response is not None
        and o.process.index not in byzantine_readers
    ]
    if writer_byzantine:
        return _read_order_cycles(reads, u0)
    writes = [o for o in ops if o.op == "write"]
    return _atomicity(writes, reads, u0)


def _atomicity(writes: list[Op], reads: list[Op], u0) -> list[str]:
    bad: list[str] = []
    rank = {u0: 0}
    for i, w in enumerate(writes, 1):
        if w.value in rank:
            bad.append(f"value {w.value} written twice")
        rank[w.value] = i
    # the writer is sequential, so completed writes finish in rank order
    done_steps = [w.response for w in writes if w.response is not None]

    ranked: list[tuple[Op, int]] = []
    for r in reads:
        i = rank.get(r.value)
        if i is None:
            bad.append(f"{r.process} read {r.value} at step {r.response}, never written")
            continue
        if i > 0 and writes[i - 1].invoke > r.response:
            bad.append(
                f"{r.process} read {r.value} at step {r.response}, "
                f"before its write was invoked at step {writes[i - 1].invoke}"
            )
        completed_before = bisect_left(done_steps, r.invoke)
        if i < completed_before:
            bad.append(
                f"stale read: {r.process} read {r.value} at step {r.response}, "
                f"but write {completed_before} completed before step {r.invoke}"
            )
        ranked.append((r, i))

    # new-old inversion: a read must not return an older value than any
    # read that responded before it was invoked
    by_response = sorted(ranked, key=lambda ri: ri[0].response)
    pos = 0
    newest: tuple[Op, int] | None = None
    for r, i in sorted(ranked, key=lambda ri: ri[0].invoke):
        while pos < len(by_response) and by_response[pos][0].response < r.invoke:
            if newest is None or by_response[pos][1] > newest[1]:
                newest = by_response[pos]
            pos += 1
        if newest is not None and i < newest[1]:
            bad.append(
                f"new-old inversion: {newest[0].process} read {newest[0].value} "
                f"by step {newest[0].response}, then {r.process} read {r.value} "
                f"from step {r.invoke}"
            )
    return bad


def _read_order_cycles(reads: list[Op], u0) -> list[str]:
    edges: dict[object, set] = {}
    last: dict[object, object] = {}
    for r in reads:
        prev = last.get(r.process, u0)
        if r.value != prev:
            edges.setdefault(prev, set()).add(r.value)
        last[r.process] = r.value
    cycle = _find_cycle(edges)
    if cycle is None:
        return []
    return ["read orders form a cycle: " + " -> ".join(str(v) for v in cycle)]


def _find_cycle(edges: dict[object, set]) -> list | None:
    """One cycle of the directed graph, closed (first node repeated), or None."""
    state: dict[object, int] = {}  # 1 on the current path, 2 finished
    for root in list(edges):
        if root in state:
            continue
        path = [root]
        state[root] = 1
        todo = [iter(edges.get(root, ()))]
        while todo:
            nxt = next(todo[-1], None)
            if nxt is None:
                state[path.pop()] = 2
                todo.pop()
            elif state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            elif nxt not in state:
                state[nxt] = 1
                path.append(nxt)
                todo.append(iter(edges.get(nxt, ())))
    return None
