"""Benchmark for byzreg: seeded campaigns, Byzantine scenario runs and
exhaustive enumeration, with an outside-in per-layer trace.

Run from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload fault_free_n4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, each in a fresh process
    python3 bench/run.py --trace 1        # the traced run of every workload
    python3 bench/run.py --repeat 10      # seeds 1..10: median and quartile spread
    python3 bench/run.py --baseline       # the reference figures in README.md

With ``--workload`` the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7  # fresh processes timed for setup_s
REFERENCE_SHARE = 0.25  # of --seconds, spent on the traced run's untraced reference


def _import_program():
    if not (SRC / "byzreg" / "__init__.py").is_file():
        sys.exit(f"bench: no byzreg sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import byzreg

    if Path(byzreg.__file__).resolve().parent != SRC / "byzreg":
        sys.exit(f"bench: imported byzreg from {byzreg.__file__}, not {SRC}")


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def measure(workload, tally, *, seconds=None, rounds=None, quiet=None) -> int:
    """Run whole rounds until the time or the round count is used up.  A
    timed measurement runs at least ``workload.rss_rounds`` rounds and
    reads the peak memory after that many, so that the figure does not
    depend on how many rounds the machine's speed allows."""
    r = 0
    start = time.perf_counter()
    while True:
        workload.run_round(r, tally, quiet or nullcontext)
        r += 1
        if r == workload.rss_rounds:
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rounds is not None:
            if r >= rounds:
                return r
        elif r >= workload.rss_rounds and time.perf_counter() - start >= seconds:
            return r


def setup_times(name: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to a workload ready to run,
    for SETUP_SAMPLES interpreters, each put at reference speed by the
    start of a bare interpreter timed just before it (see speed.py)."""
    from speed import START_NOMINAL_S, bare_start

    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        bare_s = bare_start()
        a = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        out.append((time.perf_counter() - a) * START_NOMINAL_S / bare_s)
    return out


def end_to_end(workload, tally, rounds: int, setup: list[float]) -> dict:
    ops = tally.op_times()
    run_ms = sorted(o[0] * 1000 for o in ops)
    timed_s = sum(o[0] for o in ops)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (timed_s / rounds, "s"),
        "runs_per_s": (tally.attempted / timed_s, "runs/s"),
        "run_ms_p50": (statistics.median(run_ms), "ms"),
        "run_ms_p95": (
            nearest_rank(run_ms, 0.95) if workload.reports_tail else statistics.median(run_ms), "ms"
        ),
        "steps_per_s": (sum(tally.op_steps) / sum(o[1] for o in ops), "steps/s"),
        "check_ms_p50": (statistics.median(o[2] for o in ops) * 1000, "ms"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }


def emit(correct: bool, tally, metrics: dict) -> None:
    for line in tally.problems[:10]:
        print(f"problem: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def run_one(args) -> int:
    from speed import Speedometer
    from workloads import WORKLOADS, Tally

    cls = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as tmp:
        if args.setup_only:
            cls(args.seed, Path(tmp))
            return 0
        if args.trace:
            return run_traced(args, cls, Path(tmp))
        workload = cls(args.seed, Path(tmp))
        if args.emit_digests:
            tally = Tally(keep_digests=True)
            rounds = measure(workload, tally, seconds=args.seconds)
            print(json.dumps({"rounds": rounds, "raw_s": tally.raw_s,
                              "digests": tally.digests, "problems": tally.problems}))
            return 0
        setup = setup_times(args.workload, args.seed)
        tally = Tally(speed=Speedometer())
        rounds = measure(workload, tally, seconds=args.seconds)
    metrics = end_to_end(workload, tally, rounds, setup)
    probes = tally.speed.probes
    print(f"{args.workload}: {rounds} rounds, {tally.attempted} operations, {tally.failed} failed; "
          f"program time {tally.raw_s:.3f} s measured, {sum(o[0] for o in tally.op_times()):.3f} s "
          f"at reference speed; probe median {1000 * statistics.median(probes):.3f} ms, "
          f"range {1000 * min(probes):.3f}-{1000 * max(probes):.3f} ms")
    emit(not tally.problems, tally, metrics)
    return 0


def run_traced(args, cls, tmp: Path) -> int:
    """An untraced reference run in one fresh process, then the same rounds
    traced in another; both start with cold caches and one hash seed."""
    if args.reference is None:
        env = {**os.environ, "PYTHONHASHSEED": str(args.seed % 4_294_967_296)}
        base = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed)]
        out = subprocess.run(
            base + ["--seconds", str(args.seconds * REFERENCE_SHARE), "--emit-digests"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        reference = tmp / "reference.json"
        reference.write_text(out.strip().splitlines()[-1])
        return subprocess.run(
            base + ["--trace", "1", "--reference", str(reference)], cwd=ROOT, env=env
        ).returncode

    from tracing import Tracer
    from workloads import Tally

    reference = json.loads(Path(args.reference).read_text())
    tracer = Tracer()
    tracer.install()
    with tracer.paused():
        workload = cls(args.seed, tmp)
    tally = Tally(keep_digests=True)
    tally.after_region = tracer.flush
    measure(workload, tally, rounds=reference["rounds"], quiet=tracer.paused)
    tracer.flush()

    same = tally.digests == reference["digests"]
    if not same:
        tally.problems.append("traced run digests differ from the untraced run")
    tally.problems.extend(reference["problems"])
    metrics = tracer.per_layer(tally.runs, tally.raw_s, reference["raw_s"])
    print(f"{args.workload} traced: {reference['rounds']} rounds, {tally.runs} runs, "
          f"digests {'equal' if same else 'DIFFER'}; top self time:")
    for name, calls, self_s in tracer.top():
        print(f"  {self_s:9.4f} s {calls:10d}  {name}")
    emit(not tally.problems, tally, dict(sorted(metrics.items())))
    return 0


# --- orchestration: every workload, each in its own fresh process ------------


def child_result(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_all(args, names) -> int:
    ok = True
    for name in names:
        res = child_result(name, args.seed, args.seconds, args.trace)
        ok &= res["correct"] and res["failed"] == 0
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.4f} {m['unit']}")
    return 0 if ok else 1


def run_repeat(args, names) -> int:
    """Each workload once per seed S..S+N-1; per metric the median and the
    quartile spread (Q3 - Q1) / median that the bounds are set from."""
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        fail_shares = set()
        for seed in range(args.seed, args.seed + args.repeat):
            res = child_result(name, seed, args.seconds, 0)
            ok &= res["correct"]
            fail_shares.add(res["failed"] / res["attempted"])
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        print(f"{name}: {args.repeat} runs, failed shares {sorted(fail_shares)}")
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {metric:14s} median {med:12.4f}  Q1 {q1:12.4f}  Q3 {q3:12.4f}  "
                  f"spread {(q3 - q1) / med:.4f}  all {' '.join(f'{v:.4g}' for v in vals)}")
    return 0 if ok else 1


def baseline() -> int:
    """Engine throughput at n in {4, 7, 10, 13}, the checker's share of run
    time, and call counts per checker report on a fault-free n=4, t=1 run."""
    from byzreg import adversary, checker, engine
    from byzreg.core import Config

    from speed import Speedometer
    from tracing import Tracer
    from workloads import SeededCampaign, Tally

    class Baseline(SeededCampaign):
        """Fault-free runs at t = (n-1)/3, 10 writes (4 at n=13), reads {1:2, 2:2}."""

        name = "baseline"
        step_limit = 400_000

        def __init__(self, n):
            super().__init__(1, None)
            self.n = n

        def runs(self, r):
            cfg = Config(self.n, (self.n - 1) // 3)
            writes = [b"v%d" % k for k in range(4 if self.n == 13 else 10)]
            wl = engine.Workload.make(writes=writes, reads={1: 2, 2: 2}, read_gap=1)
            yield f"n={self.n} seed {r + 1}", cfg, adversary.StrategyAssignment(), wl, r + 1, 0

    for n in (4, 7, 10, 13):
        tally = Tally(speed=Speedometer())
        rounds = measure(Baseline(n), tally, rounds=5 if n < 13 else 2)
        ops = tally.op_times()
        run_s, engine_s, check_s = (sum(o[k] for o in ops) for k in range(3))
        print(f"n={n:2d} t={(n - 1) // 3} writes={4 if n == 13 else 10} runs={rounds} failed={tally.failed}: "
              f"{sum(tally.op_steps) / engine_s:8.0f} steps/s, "
              f"checker {100 * check_s / run_s:4.1f} % of run time")

    tracer = Tracer()
    tracer.install()
    cfg = Config(4, 1)
    wl = engine.Workload.make(writes=[b"a", b"b"], reads={1: 2, 2: 2, 3: 1}, read_gap=2)
    history = engine.run(cfg, adversary.StrategyAssignment(), wl, engine.SeededRandom(seed=1),
                         100_000, key_seed=1)
    tracer.flush()
    before = {q: tracer.calls_of(q) for q in ("checker.hli_ops", "checker.sort_stabilizations",
                                              "checker.build_full_timestamps")}
    scans = tracer.counts["checker._scan_finals"]
    checker.run_all_checks(history)
    tracer.flush()
    print("calls per run_all_checks report (fault-free n=4, t=1):")
    for q, was in before.items():
        print(f"  {q.split('.', 1)[1]:24s} {tracer.calls_of(q) - was}")
    print(f"  {'_scan_finals':24s} {tracer.counts['checker._scan_finals'] - scans}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, seeds S..S+N-1")
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--emit-digests", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.baseline:
        return baseline()
    if args.repeat:
        return run_repeat(args, names)
    if args.workload is None:
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
