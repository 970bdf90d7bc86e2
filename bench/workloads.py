"""The benchmark's workloads.

Each workload is a closed loop with one caller: an operation simulates
and checks one run (on ``enumerate_n2``, one whole enumeration), and the
next starts only when it has finished.
Operations come in rounds of a fixed make-up, all inputs drawn from the
workload seed and the round number, so a run always attempts whole
rounds.  The program is reached only through module attributes
(``engine.run``, not a copied name), so the wrappers of a traced run see
every call.

Only the program's own work is timed: the benchmark's checks and digests,
and the speed probes of speed.py, run between timed regions.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from pathlib import Path

from byzreg import adversary, checker, cli, engine
from byzreg.core import Config, TaggedValue

import atomic_check

clock = time.perf_counter


class Tally:
    """What one measured phase did, operation by operation.  Each timed
    region is kept with the time it ended, so that it can be put at
    reference speed afterwards (see speed.py)."""

    def __init__(self, keep_digests: bool = False, speed=None):
        self.keep_digests = keep_digests
        self.speed = speed  # a Speedometer probed between regions, or None
        self.digests: list[str] = []
        self.regions: list[tuple[float, float, float, float, int]] = []
        self.op_steps: list[int] = []
        self.runs = 0  # simulated runs or enumerated histories checked
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = None
        self.after_region = None  # called once each region is recorded

    def region(self, run_s: float, engine_s: float, check_s: float, runs: int = 1):
        """One timed region of the current operation: program time, the
        engine's and the checker's parts of it, and the runs it checked."""
        self.regions.append((clock(), run_s, engine_s, check_s, self.attempted))
        self.runs += runs
        if self.after_region is not None:
            self.after_region()
        if self.speed is not None:
            self.speed.tick()

    def op(self, steps: int, problems: list[str]):
        self.op_steps.append(steps)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    @property
    def raw_s(self) -> float:
        return sum(r[1] for r in self.regions)

    def op_times(self) -> list[tuple[float, float, float]]:
        """(run, engine, check) seconds of each operation, at reference speed."""
        out = [[0.0, 0.0, 0.0] for _ in range(self.attempted)]
        for t, run_s, engine_s, check_s, k in self.regions:
            f = self.speed.scale(t) if self.speed is not None else 1.0
            o = out[k]
            o[0] += f * run_s
            o[1] += f * engine_s
            o[2] += f * check_s
        return [tuple(o) for o in out]


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _campaign_problems(history, report, byz: frozenset, label: str) -> list[str]:
    out = []
    if history.status != "completed":
        out.append(f"{label}: status {history.status}")
    if report.violations():
        out.append(f"{label}: violations {report.violations()}")
    bad = atomic_check.violations(
        history.hli_events,
        TaggedValue(0, history.u0),
        writer_byzantine=history.cfg.writer_byzantine,
        byzantine_readers=byz,
    )
    out.extend(f"{label}: {line}" for line in bad[:3])
    return out


class Workload:
    name = ""
    rss_rounds = 1  # rounds after which peak memory is read, whatever the run length
    # True where a run holds at least 200 operations, so that its p95 has
    # ten samples beyond it.  Elsewhere run_ms_p95 repeats the median: a
    # p95 from fewer samples is no tail.
    reports_tail = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{r}")

    def run_round(self, r: int, tally: Tally, quiet=nullcontext) -> None:
        raise NotImplementedError


class SeededCampaign(Workload):
    """Seeded fair runs of engine.run, each checked by run_all_checks.
    With ``shared_keys``, every run of a process uses one key seed drawn
    from the workload seed, as criterion 1 does, so that the key ring and
    the caches keyed on it serve every run.  Otherwise each run's schedule
    seed is also its key seed, as in scenario files."""

    step_limit = 200_000
    shared_keys = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.key_seed = random.Random(f"{self.name}/{seed}/keys").getrandbits(31)

    def runs(self, r: int):
        """(label, cfg, strategies, workload, schedule seed, settle steps) per run."""
        raise NotImplementedError

    def run_round(self, r, tally, quiet=nullcontext):
        for label, cfg, strategies, wl, s, settle in self.runs(r):
            byz = strategies.byzantine_readers()
            a = clock()
            history = engine.run(
                cfg, strategies, wl, engine.SeededRandom(seed=s), self.step_limit,
                key_seed=self.key_seed if self.shared_keys else s, settle_steps=settle, raise_on_limit=False,
            )
            b = clock()
            report = checker.run_all_checks(history, byz)
            c = clock()
            tally.region(c - a, b - a, c - b)
            with quiet():
                problems = _campaign_problems(history, report, byz, label)
                if tally.keep_digests:
                    tally.digests.append(_digest(history.digest(), report.digest()))
            tally.op(history.steps, problems)


class FaultFreeN4(SeededCampaign):
    """Criterion 1's input shape: n=4, t=0, 1-20 writes, 1-40 reads spread
    over the readers, read_gap 0-3.  Each round is stratified so that seeds
    differ in order and schedule, not in how much work a round holds: its
    20 runs take every write count 1..20 once, one read count from each
    pair (1, 2), (3, 4) .. (39, 40), and each read_gap five times."""

    name = "fault_free_n4"
    rss_rounds = 4
    reports_tail = True

    def runs(self, r):
        rng = self.rng(r)
        cfg = Config(4, 0)
        write_counts = list(range(1, 21))
        read_counts = [rng.choice((2 * k - 1, 2 * k)) for k in range(1, 21)]
        gaps = [k % 4 for k in range(20)]
        for column in (write_counts, read_counts, gaps):
            rng.shuffle(column)
        for n_writes, n_reads, gap in zip(write_counts, read_counts, gaps):
            reads: dict[int, int] = {}
            for _ in range(n_reads):
                i = rng.randint(1, 4)
                reads[i] = reads.get(i, 0) + 1
            wl = engine.Workload.make(
                writes=[b"v%d" % k for k in range(n_writes)], reads=reads, read_gap=gap
            )
            s = rng.getrandbits(31)
            yield f"ff seed {s}", cfg, adversary.StrategyAssignment(), wl, s, 0


class ScaleN10(SeededCampaign):
    """n=10, t=3, 1 write and one read at each of 3 readers; each round
    runs one fault-free schedule and one with two Byzantine readers, so
    quorum members do not always share one core."""

    name = "scale_n10"
    rss_rounds = 12
    step_limit = 400_000
    shared_keys = False  # every run pays its own formation cache misses

    def runs(self, r):
        rng = self.rng(r)
        cfg = Config(10, 3)
        byzantine = {
            9: adversary.Equivocate.make({1: b"zz", 2: b"qq"}),
            10: adversary.FakeWitnessStamp(offset=10),
        }
        for readers in ({}, byzantine):
            s = rng.getrandbits(31)
            reads = {i: 1 for i in rng.sample(range(1, 9), 3)}
            wl = engine.Workload.make(writes=[b"a"], reads=reads, read_gap=1)
            label = f"n10 {'byzantine' if readers else 'fault-free'} seed {s}"
            yield label, cfg, adversary.StrategyAssignment(readers=readers), wl, s, 0


READER_SPECS = {
    "correct": {"strategy": "correct"},
    "silent": {"strategy": "silent"},
    "fake_witness_stamp": {"strategy": "fake_witness_stamp", "offset": 10},
    "out_of_order_witness": {"strategy": "out_of_order_witness"},
    "forge_inform_set": {"strategy": "forge_inform_set"},
    "equivocate": {"strategy": "equivocate", "values": {"1": "zz", "2": "qq"}},
    "collaborate_stabilize": {"strategy": "collaborate_stabilize"},
}
WRITER_SPECS = {
    "correct": {"strategy": "correct"},
    "split_value": {"strategy": "split_value", "assignment": {"1": "a", "2": "a", "3": "b", "4": "b"}},
    "partial_quorum": {"strategy": "partial_quorum", "targets": [[1, 2, 3]]},
    "multi_value_burst": {"strategy": "multi_value_burst", "values": ["p", "q"]},
    "overwrite_early": {"strategy": "overwrite_early", "delay": 2},
    "stale_counter": {"strategy": "stale_counter", "k": 5},
}


def byzantine_scenarios() -> dict[str, dict]:
    """Criteria 3 and 4 as scenario files: each reader strategy on reader 4,
    and each writer strategy with and without a collaborating reader."""
    out = {}
    for name, spec in READER_SPECS.items():
        out[f"reader_{name}"] = {
            "name": f"bench_reader_{name}",
            "config": {"n": 4, "t": 1},
            "readers": {"4": spec},
            "workload": {"writes": ["a", "b"], "reads": {"1": 2, "2": 2, "3": 1}, "read_gap": 2},
            "settle_steps": 200,
        }
    for name, spec in WRITER_SPECS.items():
        for collab in (False, True):
            out[f"writer_{name}{'_collab' if collab else ''}"] = {
                "name": f"bench_writer_{name}{'_collab' if collab else ''}",
                "config": {"n": 4, "t": 1, "writer_byzantine": True},
                "writer": spec,
                "readers": {"4": READER_SPECS["collaborate_stabilize"]} if collab else {},
                "workload": {"writes": ["x", "y"], "reads": {"1": 2, "2": 2}, "read_gap": 2},
                "settle_steps": 400,
            }
    for raw in out.values():
        raw.update(
            schedule={"kind": "seeded", "fair": True},
            seeds={"start": 0, "count": 1},
            step_limit=100_000,
            expected={"status": "completed"},
        )
    return out


class ByzantineN4T1(Workload):
    """Every run goes through the scenario runner, on generated files.  As
    in a scenario file, each run's schedule seed is also its key seed."""

    name = "byzantine_n4t1"
    rss_rounds = 16
    reports_tail = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.paths = []
        for stem, raw in byzantine_scenarios().items():
            path = workdir / f"{stem}.json"
            path.write_text(json.dumps(raw, indent=1, sort_keys=True))
            cli.load_scenario(path)  # reject a bad file before measuring
            self.paths.append(path)
        self.calls: list = []
        run, run_all_checks = engine.run, checker.run_all_checks

        # two timer reads per run, so the engine and checker shares of
        # run_scenario can be told apart
        def timed_run(*args, **kwargs):
            a = clock()
            history = run(*args, **kwargs)
            self.calls.append((history, clock() - a))
            return history

        def timed_checks(*args, **kwargs):
            a = clock()
            report = run_all_checks(*args, **kwargs)
            self.calls.append((report, clock() - a))
            return report

        engine.run, checker.run_all_checks = timed_run, timed_checks

    def run_round(self, r, tally, quiet=nullcontext):
        rng = self.rng(r)
        for path in self.paths:
            s = rng.getrandbits(31)
            self.calls.clear()
            a = clock()
            scenario = cli.load_scenario(path)
            scenario.seeds = [s]
            campaign = cli.run_scenario(scenario)
            digest = cli.campaign_digest(campaign)
            total = clock() - a
            (history, engine_s), (report, check_s) = self.calls
            tally.region(total, engine_s, check_s)
            with quiet():
                label = f"{path.stem} seed {s}"
                problems = _campaign_problems(history, report, scenario.byz_readers, label)
                if campaign.exit_code() != cli.EXIT_OK:
                    problems.append(f"{label}: exit code {campaign.exit_code()}")
                if tally.keep_digests:
                    tally.digests.append(_digest(digest, history.digest()))
            tally.op(history.steps, problems)


class EnumerateN2(Workload):
    """Exhaustive enumeration at n=2, t=0, 1 write and 1 read.  An
    operation is one whole enumeration with every history it yields
    checked, so that each rate moves with the enumeration's time and a
    reduction that yields fewer histories counts as a gain.  Its steps are
    the depth bound, a constant of the instance."""

    name = "enumerate_n2"
    depth_bound = 60

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(f"{self.name}/{seed}")
        self.key_seed = rng.getrandbits(31)
        self.cfg = Config(2, 0)
        self.wl = engine.Workload.make(writes=[b"w%d" % rng.randrange(1000)], reads={1: 1})
        self.histories = None  # fixed by the first enumeration

    def run_round(self, r, tally, quiet=nullcontext):
        cfg = self.cfg
        histories = engine.enumerate_schedules(
            cfg, self.wl, depth_bound=self.depth_bound, key_seed=self.key_seed
        )
        seen: set[str] = set()
        problems: list[str] = []
        count = 0
        while True:
            a = clock()
            history = next(histories, None)
            b = clock()
            if history is None:
                tally.region(b - a, b - a, 0.0, runs=0)
                break
            ring = history.keyring()
            stabs = checker.detect_stabilizations(history.trace, cfg, ring, history.u0)
            classes = checker.classify_writes(history, stabs, cfg)
            verdict = checker.check_register_linearizability(history, stabs, classes, cfg, ring)
            oracle = checker.brute_force_linearizable(history)
            c = clock()
            tally.region(c - a, b - a, c - b)
            count += 1
            with quiet():
                label = f"history {count}"
                if not verdict.passed:
                    problems.append(f"{label}: {verdict.detail}")
                if not oracle:
                    problems.append(f"{label}: brute_force_linearizable failed")
                if history.status != "completed":
                    problems.append(f"{label}: status {history.status}")
                problems += atomic_check.violations(history.hli_events, TaggedValue(0, history.u0))
                digest = history.digest()
                if digest in seen:
                    problems.append(f"{label}: digest repeats an earlier history")
                seen.add(digest)
                if tally.keep_digests:
                    tally.digests.append(digest)
        if self.histories is None:
            self.histories = count
        elif count != self.histories:
            problems.append(f"enumeration found {count} histories, earlier {self.histories}")
        tally.op(self.depth_bound, problems)


WORKLOADS = {
    w.name: w for w in (FaultFreeN4, ByzantineN4T1, ScaleN10, EnumerateN2)
}

