"""The checker's sweeps against the pairwise loops they replaced.

Random stabilizations mix coverage patterns (including cores below n-2t
and patterns sharing no witness), stamps that tie on shared witnesses
with different values, and lists out of step order.  Each sweep must give
the pairwise reference's status.  Where the sweeps that name a pair find
a violation, the pair they name must itself violate, but need not be the
first pair in the reference's loop order.  Count guards keep the
checker's comparisons near-linear in run length, on passing runs and on
violating inputs.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations

from hypothesis import example, given, settings, strategies as st

import checker_oracles as oracle
from byzreg import checker
from byzreg.adversary import ForgeInformSet, StrategyAssignment
from byzreg.checker import (
    Kind,
    NoLinearization,
    StabilizationEvent,
    Verdict,
    WriteClassification,
)
from byzreg.core import (
    Config,
    PartialTimestamp,
    ProcessId,
    TaggedValue,
    WitnessEntry,
)
from byzreg.engine import ExecutionHistory, HliEvent, HliOp, SeededRandom, Workload, run

U0 = b"init"
V0 = TaggedValue(0, U0)
VALUES = [TaggedValue(1, b"a"), TaggedValue(2, b"b"), TaggedValue(2, b"c"), TaggedValue(3, b"d")]
CONFIGS = [Config(4, 1), Config(4, 0), Config(4, 2), Config(3, 1), Config(5, 1)]


def stab(value, stamps, step, owner=1, n=4):
    return StabilizationEvent(
        value=value,
        ws=frozenset(WitnessEntry(value, s, p) for p, s in stamps.items()),
        pt=PartialTimestamp.from_mapping(n, dict(stamps)),
        step=step,
        row_owner=owner,
    )


def patterns(n):
    readers = range(1, n + 1)
    return [c for size in range(n + 1) for c in combinations(readers, size)]


@st.composite
def stab_lists(draw, cfg, values=VALUES, max_size=8):
    """Stabilizations over a few coverage patterns, quorum-sized or any.
    Stamps sit near a per-event level, which climbs along the list or is
    drawn at random, so some lists are ordered and others tie or cross."""
    every = patterns(cfg.n)
    pool = draw(st.sampled_from(([c for c in every if len(c) >= cfg.quorum], every)))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    spread = draw(st.sampled_from((0, 1, 3)))
    climb = draw(st.booleans())
    out = []
    for i in range(draw(st.integers(0, max_size))):
        pattern = draw(st.sampled_from(chosen))
        level = 2 * i if climb else draw(st.integers(0, 4))
        stamps = {p: level + draw(st.integers(0, spread)) for p in pattern}
        out.append(stab(draw(st.sampled_from(values)), stamps, draw(st.integers(0, 40)), n=cfg.n))
    return out


@st.composite
def total_order_inputs(draw):
    cfg = draw(st.sampled_from(CONFIGS))
    return draw(stab_lists(cfg)), cfg


# cores over {1,2,3}, {2,3,4} and {1,3,4}: each pair is ordered on the
# witnesses it shares, though the three orders form a cycle
CYCLE = [
    stab(VALUES[0], {1: 2, 2: 0, 3: 5}, 5),
    stab(VALUES[1], {2: 1, 3: 5, 4: 0}, 6),
    stab(VALUES[3], {1: 1, 3: 5, 4: 1}, 7),
]
TIE = [stab(VALUES[1], {1: 2, 2: 2, 3: 1}, 3), stab(VALUES[2], {2: 2, 3: 1, 4: 5}, 4)]
SMALL_CORE = [stab(VALUES[0], {1: 1, 2: 1, 3: 1}, 3), stab(VALUES[1], {4: 2}, 4)]


@given(total_order_inputs())
@example((CYCLE, Config(4, 1)))
@example((TIE, Config(4, 1)))
@example((SMALL_CORE, Config(4, 1)))
@settings(max_examples=400, deadline=None)
def test_total_order_matches_pairwise(case):
    stabs, cfg = case
    expected = oracle.total_order(stabs, cfg)
    verdict = checker.check_total_order(stabs, cfg)
    assert verdict.status == expected.status
    if verdict.passed:
        assert verdict == expected
    else:
        # the named pair, in list order, violates: the reference on that
        # pair alone gives this detail
        assert any(verdict == oracle.total_order([a, b], cfg) for a, b in combinations(stabs, 2))


def test_cyclic_triple_is_pairwise_ordered():
    assert checker.check_total_order(CYCLE, Config(4, 1)).passed


@st.composite
def attributed_reads(draw):
    """Completed reads at readers 1..n, sequential per reader, each maybe
    attributed to one of a list of stabilizations."""
    cfg = draw(st.sampled_from(CONFIGS))
    stabs = draw(stab_lists(cfg))
    # later reads mostly return later stabilizations, or any at random
    follow = draw(st.booleans())
    reads, attribution = [], {}
    for q in range(1, cfg.n + 1):
        step = draw(st.integers(0, 3))
        for index in range(draw(st.integers(0, 4))):
            invoke = step + draw(st.integers(0, 3))
            step = invoke + draw(st.integers(0, 3))
            read = HliOp(ProcessId(q), "read", invoke, step, None, None, index)
            step += 1
            if stabs and draw(st.integers(0, 5)):
                if follow:
                    s = stabs[min(len(stabs) - 1, invoke * len(stabs) // 25)]
                else:
                    s = draw(st.sampled_from(stabs))
                read.response_value = s.value
                attribution[(read.process, index)] = s
            else:
                read.response_value = draw(st.sampled_from(VALUES))
            reads.append(read)
    # shuffled: the sweep's verdict must not depend on the reads' order
    return draw(st.permutations(reads)), attribution, cfg


@given(attributed_reads())
@settings(max_examples=400, deadline=None)
def test_inversions_match_pairwise(case):
    reads, attribution, cfg = case
    expected = oracle.first_inversion(reads, attribution, cfg)
    verdict = checker._first_inversion(reads, attribution, cfg)
    assert (verdict is None) == (expected is None)
    if verdict is not None:
        # the named reads violate: r1 responded before r2 was invoked, and
        # the reference on that pair alone (its compare gives After or
        # Concurrent, or raises) gives this detail
        assert any(
            verdict == oracle.first_inversion([r1, r2], attribution, cfg)
            for r1, r2 in permutations(reads, 2)
            if r1.response_step < r2.invoke_step
        )


@st.composite
def histories(draw, cfg, values=VALUES):
    """A well-formed history: a random interleaving of invoke and response
    events over the writer and the readers, some of them at one step; some
    operations stay pending."""
    ops_left = {p: draw(st.integers(0, 4)) for p in range(cfg.n + 1)}
    open_op: dict[int, str] = {}
    events = []
    step = 0
    for _ in range(draw(st.integers(0, 40))):
        step += draw(st.integers(0, 1))
        ready = [p for p in ops_left if ops_left[p] or p in open_op]
        if not ready:
            break
        p = draw(st.sampled_from(ready))
        pid = ProcessId(p)
        kind = "write" if p == 0 else "read"
        if p in open_op:
            del open_op[p]
            value = draw(st.sampled_from([V0, *values])) if kind == "read" else None
            events.append(HliEvent(pid, "response", kind, value, step))
        else:
            ops_left[p] -= 1
            open_op[p] = kind
            value = draw(st.sampled_from(values)) if kind == "write" else None
            events.append(HliEvent(pid, "invoke", kind, value, step))
    return ExecutionHistory(cfg, U0, events, [])


@st.composite
def linearizability_inputs(draw):
    cfg = draw(st.sampled_from(CONFIGS))
    history = draw(histories(cfg))
    stabs = [stab(V0, {p: 0 for p in cfg.reader_indices()}, 0, n=cfg.n)]
    stabs += draw(stab_lists(cfg, values=[V0, *VALUES]))
    by_owner = {}
    for q in cfg.reader_indices():
        steps = sorted(draw(st.lists(st.integers(0, 40), max_size=4)))
        by_owner[q] = [(-1, stabs[0])] + [(s, draw(st.sampled_from(stabs))) for s in steps]
    # most reads return the value of the final-row state behind them, so
    # that many runs reach the inversion check
    for ev in history.hli_events:
        if ev.kind == "response" and ev.op == "read" and draw(st.integers(0, 5)):
            ev.value = [stab for step, stab in by_owner[ev.process] if step <= ev.step][-1].value
    kinds = {v: draw(st.sampled_from(list(Kind))) for v in VALUES}
    return history, stabs, by_owner, WriteClassification(kinds), cfg


def outcome(fn, *args):
    """The verdict, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the reference raises what mapsto_compare raises
        return type(exc), str(exc)


def write_then_read(read_invoke: int):
    """A correct write of <3,d> responds at step 5; a read invoked at
    ``read_invoke`` returns the older <1,a>."""
    cfg = Config(4, 1)
    w, r = ProcessId(0), ProcessId(1)
    events = [
        HliEvent(w, "invoke", "write", VALUES[3], 1),
        HliEvent(w, "response", "write", None, 5),
        HliEvent(r, "invoke", "read", None, read_invoke),
        HliEvent(r, "response", "read", VALUES[0], 7),
    ]
    events.sort(key=lambda ev: ev.step)
    stabs = [
        stab(V0, {1: 0, 2: 0, 3: 0, 4: 0}, 0),
        stab(VALUES[0], {1: 1, 2: 1, 3: 1}, 2),
        stab(VALUES[3], {1: 3, 2: 3, 3: 3}, 4),
    ]
    by_owner = {q: [(-1, stabs[0])] for q in cfg.reader_indices()}
    by_owner[1].append((3, stabs[1]))
    classification = WriteClassification({VALUES[3]: Kind.CORRECT})
    return ExecutionHistory(cfg, U0, events, []), stabs, by_owner, classification, cfg


@given(linearizability_inputs())
@example(write_then_read(5))  # responded at the invocation: not preceding
@example(write_then_read(6))
@settings(max_examples=400, deadline=None)
def test_register_linearizability_matches_pairwise(case):
    got = outcome(checker._register_linearizability, *case)
    expected = outcome(oracle.register_linearizability, *case)
    if isinstance(expected, Verdict) and expected.detail.startswith(INVERSION_DETAILS):
        # test_inversions_match_pairwise checks the inverted pair named
        assert isinstance(got, Verdict) and got.status == "violation"
        assert got.detail.startswith(INVERSION_DETAILS)
    else:
        assert got == expected


INVERSION_DETAILS = ("new-old inversion: ", "incomparable returns ")


@st.composite
def sequenced_ops(draw):
    """Operations in a candidate sequence order, pending ones included."""
    out = []
    for index in range(draw(st.integers(0, 8))):
        invoke = draw(st.integers(0, 30))
        response = draw(st.one_of(st.none(), st.integers(invoke, 40)))
        out.append(HliOp(ProcessId(draw(st.integers(0, 4))), "read", invoke, response, None, None, index))
    return out


@given(sequenced_ops())
@settings(max_examples=400, deadline=None)
def test_real_time_check_matches_pairwise(real):
    assert outcome(checker._check_real_time, real) == outcome(oracle.real_time, real)


def test_real_time_names_the_pairwise_pair():
    ops = [
        HliOp(ProcessId(1), "read", 10, 12, None, None, 0),
        HliOp(ProcessId(2), "read", 1, 3, None, None, 0),
        HliOp(ProcessId(3), "read", 0, 2, None, None, 0),
    ]
    try:
        checker._check_real_time(ops)
    except NoLinearization as exc:
        assert str(exc) == "real-time order broken between r2 and r1"
    else:
        raise AssertionError("real-time violation missed")


@st.composite
def write_stabilization_inputs(draw):
    cfg = draw(st.sampled_from([Config(4, 1), Config(4, 1, writer_byzantine=True)]))
    history = draw(histories(cfg))
    stabs = draw(stab_lists(cfg))
    # stabilizations of the written values around their responses
    for op in history.ops:
        if op.op == "write" and op.response_step is not None and draw(st.booleans()):
            step = op.response_step + draw(st.integers(-2, 2))
            stabs.append(stab(op.invoke_value, {1: 1, 2: 1, 3: 1}, step))
    # shuffled, so the earliest stabilization of a value need not come first
    return history, draw(st.permutations(stabs))


@given(write_stabilization_inputs())
@settings(max_examples=300, deadline=None)
def test_write_stabilization_matches_pairwise(case):
    history, stabs = case
    assert checker.check_write_stabilization(history, stabs) == oracle.write_stabilization(
        history, stabs
    )


@given(st.sampled_from(CONFIGS).flatmap(lambda cfg: histories(cfg, values=VALUES[:3])))
@settings(max_examples=300, deadline=None)
def test_total_ordering_reads_matches_pairwise(history):
    verdict = checker.check_total_ordering_reads(history)
    expected = oracle.total_ordering_reads(history)
    assert verdict.status == expected.status
    if verdict.passed:
        assert verdict == expected
        return
    seqs: dict[str, list[str]] = {}
    for r in history.completed_reads:
        seqs.setdefault(str(r.process), []).append(str(r.response_value))
    p, a, b, q, b2, a2 = re.fullmatch(
        r"(\S+) saw (\S+) before (\S+); (\S+) saw (\S+) before (\S+)", verdict.detail
    ).groups()
    assert (a, b) == (a2, b2) and a != b
    assert saw_before(seqs[p], a, b) and saw_before(seqs[q], b, a)


def saw_before(seq: list, a, b) -> bool:
    return a in seq and b in seq[seq.index(a) + 1 :]


def long_run(writes: int) -> tuple[ExecutionHistory, frozenset[int]]:
    """n=4, t=1, a forge_inform_set reader 4, W writes and W reads over
    readers 1-3 with read_gap 1, 200 settle steps, seed 1."""
    reads = {i: writes // 3 + (i <= writes % 3) for i in (1, 2, 3)}
    wl = Workload.make(writes=[b"v%d" % k for k in range(writes)], reads=reads, read_gap=1)
    strategies = StrategyAssignment(readers={4: ForgeInformSet()})
    history = run(Config(4, 1), strategies, wl, SeededRandom(1), 1_000_000, settle_steps=200)
    return history, strategies.byzantine_readers()


def test_comparisons_grow_near_linearly_with_run_length(monkeypatch):
    calls = []
    compare = checker.mapsto_compare

    def counted(*args):
        calls.append(None)
        return compare(*args)

    monkeypatch.setattr(checker, "mapsto_compare", counted)
    counts = []
    for writes in (100, 200):
        history, byz = long_run(writes)
        calls.clear()
        report = checker.run_all_checks(history, byz)
        assert all(v.passed for v in report.verdicts.values())
        counts.append(len(calls))
    # the pairwise passes made 5,595 and 22,034 calls (3.9x)
    assert counts[1] <= 2.2 * counts[0], counts


def test_comparisons_stay_near_linear_on_violations(monkeypatch):
    """k chained stabilizations whose last crosses its predecessor, and k
    reads over the chain whose last returns an older core: each input has
    one violation, which a pairwise loop reaches after ~k^2/2 comparisons."""
    calls = []
    compare = checker.mapsto_compare

    def counted(*args):
        calls.append(None)
        return compare(*args)

    monkeypatch.setattr(checker, "mapsto_compare", counted)
    cfg = Config(4, 1)
    counts = []
    for k in (150, 300):
        chain = [stab(TaggedValue(i + 1, b"v"), {1: i, 2: i, 3: i}, i) for i in range(k)]
        crossing = chain[:-1] + [stab(TaggedValue(k, b"v"), {1: k, 2: k, 3: k - 3}, k)]
        initial = stab(V0, {1: 0, 2: 0, 3: 0, 4: 0}, 0)
        by_owner = {q: [(-1, initial)] for q in cfg.reader_indices()}
        events = []
        for i in range(k):
            q = ProcessId(1 + i % 3)
            s = chain[k - 3] if i == k - 1 else chain[i]
            by_owner[q].append((2 * i + 1, s))
            events.append(HliEvent(q, "invoke", "read", None, 2 * i + 1))
            events.append(HliEvent(q, "response", "read", s.value, 2 * i + 2))
        history = ExecutionHistory(cfg, U0, events, [])
        calls.clear()
        assert not checker.check_total_order(crossing, cfg).passed
        verdict = checker._register_linearizability(
            history, chain, by_owner, WriteClassification({}), cfg
        )
        assert verdict.detail.startswith("new-old inversion: "), verdict
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0], counts
