"""Acceptance suite: every criterion at its stated scale, one printed
pass/fail line per criterion (run with -s to watch them live).

The seeded sweeps share one key seed so signature caches carry across
runs; schedule seeds provide all the variation.
"""

from __future__ import annotations

import random
import time

from byzreg import adversary
from byzreg.adversary import (
    CollaborateStabilize,
    CorrectReader,
    CorrectWriter,
    Equivocate,
    FakeWitnessStamp,
    ForgeInformSet,
    MultiValueBurst,
    OutOfOrderWitness,
    OverwriteEarly,
    PartialQuorum,
    Silent,
    SplitValue,
    StaleCounter,
    StrategyAssignment,
    scenario_alternation,
    scenario_forged_quorum,
    scenario_pseudo_correct,
)
from byzreg import checker
from byzreg.checker import Analysis, Kind, brute_force_linearizable, run_all_checks
from byzreg.cli import campaign_digest, load_scenario, run_scenario
from byzreg.core import Config, TaggedValue
from byzreg.crypto import make_keyring
from byzreg.engine import (
    SeededRandom,
    Workload,
    enumerate_schedules,
    run,
)
from byzreg.registers import bank_init

# criterion-8 bookkeeping: every passing run from criteria 1-5 must carry a
# strictly increasing chain isomorphic to the stabilization order
ISO = {"runs": 0, "failures": []}


def _record_iso(report):
    verdict = report.verdicts["timestamp_isomorphism"]
    if verdict.status == "pass":
        ISO["runs"] += 1
    else:
        ISO["failures"].append(verdict.detail)


def _line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


READ_CHECKS = (
    "register_linearizability",
    "total_order",
    "view_consistency",
    "total_ordering_reads",
    "byzantine_linearization",
)


def test_criterion_1_fault_free_atomicity():
    """n=4, t=0, 500 seeded schedules, workloads within 20 writes/40 reads."""
    cfg = Config(4, 0)
    t0 = time.time()
    failures = []
    for seed in range(500):
        rng = random.Random(seed)
        n_writes = rng.randint(1, 20)
        n_reads = rng.randint(1, 40)
        reads = {}
        for _ in range(n_reads):
            i = rng.randint(1, 4)
            reads[i] = reads.get(i, 0) + 1
        wl = Workload.make(
            writes=[b"v%d" % k for k in range(n_writes)],
            reads=reads,
            read_gap=rng.randint(0, 3),
        )
        history = run(
            cfg, StrategyAssignment(), wl, SeededRandom(seed=seed), 200_000,
            settle_steps=0, raise_on_limit=False,
        )
        if history.status != "completed":
            failures.append((seed, history.status))
            continue
        report = run_all_checks(history)
        bad = [name for name in READ_CHECKS if not report.verdicts[name].passed]
        if bad:
            failures.append((seed, bad))
        _record_iso(report)
    elapsed = time.time() - t0
    _line(
        1,
        not failures and elapsed < 60.0,
        f"500 fault-free runs in {elapsed:.1f}s (budget 60s), failures={failures[:3]}",
    )


def test_criterion_2_exhaustive_micro_oracle(monkeypatch):
    """Full schedule enumeration vs the sequential-extension oracle, with
    the final registers scanned once per history."""
    cases = [
        (Config(1, 0), Workload.make(writes=[b"a"], reads={1: 1}), 200),
        (Config(1, 0), Workload.make(writes=[b"a"], reads={1: 2}), 250),
        (Config(2, 0), Workload.make(writes=[b"a"], reads={1: 1}), 250),
        (Config(2, 0), Workload.make(writes=[b"a"], reads={1: 2}), 300),
    ]
    scan_finals = checker._scan_finals
    scans = []

    def counted(*args):
        scans.append(None)
        return scan_finals(*args)

    monkeypatch.setattr(checker, "_scan_finals", counted)
    total = 0
    disagreements = 0
    for cfg, wl, bound in cases:
        for history in enumerate_schedules(cfg, wl, depth_bound=bound, node_cap=600_000):
            total += 1
            verdict = Analysis(history).register_linearizability()
            oracle = brute_force_linearizable(history)
            if verdict.passed != oracle or not verdict.passed:
                disagreements += 1
    _line(
        2,
        total > 1000 and total <= 100_000 and disagreements == 0 and len(scans) == total,
        f"{total} interleavings enumerated, {disagreements} oracle disagreements, "
        f"{len(scans)} final-register scans",
    )


READER_STRATEGIES = {
    "correct": CorrectReader(),
    "silent": Silent(),
    "fake_witness_stamp": FakeWitnessStamp(offset=10),
    "out_of_order_witness": OutOfOrderWitness(),
    "forge_inform_set": ForgeInformSet(),
    "equivocate": Equivocate.make({1: b"zz", 2: b"qq"}),
    "collaborate_stabilize": CollaborateStabilize(),
}


def test_criterion_3_byzantine_readers_within_threshold():
    """n=4, t=1, every reader strategy, 500 seeds each, zero violations."""
    cfg = Config(4, 1)
    wl = Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 2, 3: 1}, read_gap=2)
    failures = []
    for name, strat in READER_STRATEGIES.items():
        strategies = StrategyAssignment(readers={4: strat})
        byz = strategies.byzantine_readers()
        for seed in range(500):
            history = run(
                cfg, strategies, wl, SeededRandom(seed=seed), 100_000,
                settle_steps=200, raise_on_limit=False,
            )
            if history.status != "completed":
                failures.append((name, seed, history.status))
                continue
            report = run_all_checks(history, byz)
            if report.violations():
                failures.append((name, seed, report.violations()))
            _record_iso(report)
    _line(3, not failures, f"7 strategies x 500 seeds, failures={failures[:3]}")


WRITER_STRATEGIES = {
    "correct": CorrectWriter(),
    "split_value": SplitValue.make({1: b"a", 2: b"a", 3: b"b", 4: b"b"}),
    "partial_quorum": PartialQuorum.make({1, 2, 3}),
    "multi_value_burst": MultiValueBurst(values=(b"p", b"q")),
    "overwrite_early": OverwriteEarly(delay=2),
    "stale_counter": StaleCounter(k=5),
}


def test_strategy_tables_cover_the_registry():
    """Criteria 3 and 4 run every registered strategy, under its own name."""
    for table, registry in (
        (READER_STRATEGIES, adversary.READER_STRATEGIES),
        (WRITER_STRATEGIES, adversary.WRITER_STRATEGIES),
    ):
        assert table.keys() == registry.keys()
        for name, strat in table.items():
            assert type(strat) is registry[name]


def test_criterion_4_byzantine_writer_within_threshold():
    """n=4, t=1, every writer strategy with and without a collaborator."""
    cfg = Config(4, 1, writer_byzantine=True)
    wl = Workload.make(writes=[b"x", b"y"], reads={1: 2, 2: 2}, read_gap=2)
    failures = []
    for name, strat in WRITER_STRATEGIES.items():
        for collab in (False, True):
            readers = {4: CollaborateStabilize()} if collab else {}
            strategies = StrategyAssignment(writer=strat, readers=readers)
            byz = strategies.byzantine_readers()
            for seed in range(500):
                history = run(
                    cfg, strategies, wl, SeededRandom(seed=seed), 100_000,
                    settle_steps=400, raise_on_limit=False,
                )
                if history.status != "completed":
                    failures.append((name, collab, seed, history.status))
                    continue
                report = run_all_checks(history, byz)
                if report.violations():
                    failures.append((name, collab, seed, report.violations()))
                    continue
                # only correct and pseudo-correct values may stabilize
                for s in report.stabilizations:
                    if report.classification.kind_of(s.value) not in (
                        Kind.CORRECT,
                        Kind.PSEUDO_CORRECT,
                    ):
                        failures.append((name, collab, seed, str(s.value)))
                _record_iso(report)
    # the collaborating-reader script must stabilize and return a
    # pseudo-correct value
    s = scenario_pseudo_correct()
    history = run(
        s.cfg, s.strategies, s.workload, s.schedule, s.step_limit,
        u0=s.u0, settle_steps=s.settle_steps, raise_on_limit=False,
    )
    report = run_all_checks(history, s.strategies.byzantine_readers())
    x = TaggedValue(1, b"x")
    script_ok = (
        report.classification.kind_of(x) is Kind.PSEUDO_CORRECT
        and any(
            e.kind == "response" and e.op == "read" and e.value == x
            for e in history.hli_events
        )
    )
    _line(
        4,
        not failures and script_ok,
        f"6 writer strategies x 2 x 500 seeds, script_returns_pseudo_correct={script_ok}, "
        f"failures={failures[:3]}",
    )


def test_criterion_5_liveness_surrogate():
    """Fair schedules with one silent Byzantine reader: every write
    completes within budget and stabilizes before responding."""
    cfg = Config(4, 1)
    wl = Workload.make(writes=[b"a", b"b", b"c"], reads={1: 1, 2: 1}, read_gap=1)
    step_budget = 30_000
    failures = []
    for seed in range(200):
        strategies = StrategyAssignment(readers={4: Silent()})
        history = run(
            cfg, strategies, wl, SeededRandom(seed=seed, fair=True), step_budget,
            raise_on_limit=False,
        )
        if history.status != "completed":
            failures.append((seed, history.status))
            continue
        report = run_all_checks(history, frozenset({4}))
        if not report.verdicts["write_stabilization"].passed:
            failures.append((seed, report.verdicts["write_stabilization"].detail))
        if report.violations():
            failures.append((seed, report.violations()))
        _record_iso(report)
    _line(5, not failures, f"200 seeds within {step_budget} steps, failures={failures[:3]}")


def test_criterion_6_alternation_below_3t():
    """n=3, t=1 scripted alternation: a genuine-advance violation with at
    least three alternating stabilized returns, replayable."""
    s = scenario_alternation()

    def once():
        history = run(
            s.cfg, s.strategies, s.workload, s.schedule, s.step_limit,
            u0=s.u0, settle_steps=s.settle_steps, raise_on_limit=False,
        )
        return history, run_all_checks(history, s.strategies.byzantine_readers())

    history, report = once()
    a, b = TaggedValue(1, b"va"), TaggedValue(2, b"vb")
    seq = [
        e.value
        for e in history.hli_events
        if e.kind == "response" and e.op == "read" and e.value in (a, b)
    ]
    dedup = [seq[0]] + [v for i, v in enumerate(seq[1:], 1) if v != seq[i - 1]]
    alternations = len(dedup) - 1
    history2, _ = once()
    replayable = history.digest() == history2.digest()
    ok = (
        "genuine_advance" in report.violations()
        and alternations >= 3
        and replayable
    )
    _line(
        6,
        ok,
        f"genuine_advance violated, {alternations} alternating returns, "
        f"replayable={replayable}",
    )


def test_criterion_7_forged_quorum_below_2t():
    """n=4, t=2 scripted forgery: a concurrent pair of stabilized sets."""
    s = scenario_forged_quorum()
    history = run(
        s.cfg, s.strategies, s.workload, s.schedule, s.step_limit,
        u0=s.u0, settle_steps=s.settle_steps, raise_on_limit=False,
    )
    report = run_all_checks(history, s.strategies.byzantine_readers())
    concurrent_surfaced = (
        history.status == "protocol_violation"
        and "concurrent_final_sets" in (history.violation or "")
    )
    order_violated = "total_order" in report.violations()
    values = {str(e.value) for e in report.stabilizations}
    ok = (concurrent_surfaced or order_violated) and {"<1,qa>", "<2,qb>"} <= values
    _line(
        7,
        ok,
        f"concurrent_final_sets={concurrent_surfaced}, total_order_violation={order_violated}",
    )


def test_criterion_8_timestamp_isomorphism():
    """Zero isomorphism failures across every passing run from criteria 1-5."""
    if ISO["runs"] == 0:
        # standalone invocation: draw a fresh sample
        cfg = Config(4, 1)
        wl = Workload.make(writes=[b"a", b"b"], reads={1: 2}, read_gap=1)
        for seed in range(50):
            strategies = StrategyAssignment(readers={4: FakeWitnessStamp(offset=3)})
            history = run(
                cfg, strategies, wl, SeededRandom(seed=seed), 60_000,
                settle_steps=200, raise_on_limit=False,
            )
            _record_iso(run_all_checks(history, frozenset({4})))
    _line(
        8,
        ISO["runs"] > 0 and not ISO["failures"],
        f"{ISO['runs']} chains strictly increasing, {len(ISO['failures'])} broken",
    )


def test_criterion_9_space_accounting():
    """Register counts 3n^2+2n for n in {1,2,4,7}; report prints the count
    and the footnote about the init/ack family size."""
    import io

    from byzreg.cli import emit_human

    counts_ok = True
    for n in (1, 2, 4, 7):
        cfg = Config(n, 0)
        bank = bank_init(cfg, b"init", make_keyring(cfg, "keyed", 0))
        if len(bank.cells) != 3 * n * n + 2 * n:
            counts_ok = False
    scenario = load_scenario("scenarios/fault_free_n4.json")
    scenario.seeds = [0]
    campaign = run_scenario(scenario)
    buf = io.StringIO()
    emit_human(campaign, buf)
    text = buf.getvalue()
    report_ok = "3n^2+2n = 56" in text and "not 2n^2" in text
    _line(9, counts_ok and report_ok, f"counts_ok={counts_ok}, report_footnote={report_ok}")


def test_criterion_10_determinism():
    """Identical config and seed produce a byte-identical report digest."""
    ok = True
    details = []
    for name in ("fault_free_n4", "byz_writer_partial_quorum_n4t1", "alternation_n3t1"):
        scenario1 = load_scenario(f"scenarios/{name}.json")
        scenario1.seeds = scenario1.seeds[:2]
        scenario2 = load_scenario(f"scenarios/{name}.json")
        scenario2.seeds = scenario2.seeds[:2]
        d1 = campaign_digest(run_scenario(scenario1))
        d2 = campaign_digest(run_scenario(scenario2))
        if d1 != d2:
            ok = False
        details.append(f"{name}:{d1[:8]}")
    _line(10, ok, " ".join(details))
