"""Scenario runner: parse a config, execute a seeded campaign, check every
run, and emit human or machine reports with a stable digest.

Exit codes: 0 outcomes matched expectations, 2 config error, 3 unexpected
safety violation, 4 unexpected liveness failure, 5 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import adversary, checker, crypto, engine
from .adversary import by_reader, json_int
from .core import Config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SAFETY = 3
EXIT_LIVENESS = 4
EXIT_INTERNAL = 5

RUN_STATUSES = ("completed", "step_limit", "protocol_violation")


class ConfigError(Exception):
    pass


def _strategy(block: dict, registry: dict, correct: type, role: str, cfg: Config):
    """The spec a scenario-file strategy block names, parsed from it and
    checked against the config."""
    kind = block.get("strategy", correct.name)
    spec_class = registry.get(kind)
    if spec_class is None:
        raise ConfigError(f"unknown {role} strategy {kind!r}")
    spec = spec_class.parse(block)
    spec.check(cfg)
    return spec


def _flag(block: dict, key: str, default: bool) -> bool:
    """A JSON boolean field: the string "false" would be read as true."""
    value = block.get(key, default)
    if type(value) is not bool:
        raise ConfigError(f"{key} must be true or false, not {value!r}")
    return value


def _strings(value, name: str) -> list[str]:
    """A JSON list of strings: a string would be read as its characters
    and an object as its keys."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ConfigError(f"{name} must be a list of strings, not {value!r}")
    return value


def _schedule(spec: dict) -> engine.Schedule:
    """A scenario file's schedule block; a seeded schedule's seed is set
    per run."""
    kind = spec.get("kind", "seeded")
    if kind == "seeded":
        return engine.SeededRandom(seed=0, fair=_flag(spec, "fair", True))
    if kind == "round_robin":
        return engine.RoundRobin()
    if kind == "scripted":
        then = spec.get("then", "round_robin")
        if then not in ("round_robin", "stop"):
            raise ConfigError(f"unknown scripted schedule fallback {then!r}")
        steps = _strings(spec["steps"], "scripted schedule steps")
        return engine.Scripted(steps=tuple(steps), then=then)
    raise ConfigError(f"unknown schedule kind {kind!r}")


def _seeds(raw) -> list[int]:
    """The seeds a file lists, or counts from a start: JSON ints of at
    least 0, since Random(-s) draws what Random(s) draws."""
    if isinstance(raw, dict):
        start = json_int(raw.get("start", 0), "seed start")
        raw = range(start, start + json_int(raw.get("count", 1), "seed count"))
    return [json_int(seed, "a seed") for seed in raw]


def load_scenario(path: str | Path) -> adversary.Scenario:
    """A scenario file: a scripted attack, or a system built from the
    file's blocks, with the file's overrides applied."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a scenario is a JSON object, not {type(raw).__name__}")

    scripted = raw.get("scripted")
    if scripted is not None:
        factory = isinstance(scripted, str) and adversary.SCENARIO_SCRIPTS.get(scripted)
        if not factory:
            raise ConfigError(f"unknown scripted scenario {scripted!r}")
        scenario = factory()
    else:
        scenario = _system(raw, Path(path).stem)

    try:
        expected = raw.get("expected", {})
        scenario = dataclasses.replace(
            scenario,
            name=raw.get("name", scenario.name),
            scheme=raw.get("crypto", scenario.scheme),
            seeds=_seeds(raw.get("seeds", [0])),
            step_limit=json_int(raw.get("step_limit", scenario.step_limit), "step_limit", 1),
            settle_steps=json_int(raw.get("settle_steps", scenario.settle_steps), "settle_steps"),
            expected_status=expected.get("status", scenario.expected_status),
            expected_violations=tuple(_strings(
                expected.get("violations", [*scenario.expected_violations]), "expected violations"
            )),
        )
        if raw.get("schedule") is not None:
            scenario.schedule = _schedule(raw["schedule"])
        if scenario.expected_status not in RUN_STATUSES:
            raise ConfigError(f"unknown expected status {scenario.expected_status!r}")
        unknown = set(scenario.expected_violations) - set(checker.PROPERTIES)
        if unknown:
            raise ConfigError(f"unknown expected violation {min(unknown)!r}")
        if scenario.scheme not in crypto.SCHEMES:
            raise ConfigError(f"unknown signature scheme {scenario.scheme!r}")
        if not scenario.seeds:
            raise ConfigError("the seed list is empty")
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad scenario field: {type(exc).__name__}: {exc}") from exc
    return scenario


def _system(raw: dict, name: str) -> adversary.Scenario:
    """A non-scripted scenario as its blocks describe it, before the
    overrides it shares with scripted ones."""
    try:
        cfg_raw = raw["config"]
        cfg = Config(
            n=json_int(cfg_raw["n"], "config n", 1),
            t=json_int(cfg_raw["t"], "config t"),
            writer_byzantine=_flag(cfg_raw, "writer_byzantine", False),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad config block: {exc}") from exc

    readers: dict[int, adversary.ReaderStrategy] = {}
    try:
        for i, block in by_reader(raw.get("readers", {}), "readers").items():
            if not 1 <= i <= cfg.n:
                raise ConfigError(f"reader index {i} outside 1..{cfg.n}")
            readers[i] = _strategy(
                block, adversary.READER_STRATEGIES, adversary.CorrectReader, "reader", cfg
            )
        writer = _strategy(
            raw.get("writer", {}),
            adversary.WRITER_STRATEGIES,
            adversary.CorrectWriter,
            "writer",
            cfg,
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad strategy block: {exc}") from exc
    strategies = adversary.StrategyAssignment(writer=writer, readers=readers)
    if not (cfg.writer_byzantine or isinstance(writer, adversary.CorrectWriter)):
        raise ConfigError(f"writer strategy {writer.name!r} needs writer_byzantine")

    warnings: list[str] = []
    byz = strategies.byzantine_readers()
    allow_sub_threshold = _flag(raw, "allow_sub_threshold", False)
    if len(byz) > cfg.t:
        if not allow_sub_threshold:
            raise ConfigError(
                f"{len(byz)} Byzantine readers exceed t={cfg.t}; "
                "set allow_sub_threshold to proceed"
            )
        warnings.append(f"sub-threshold override: {len(byz)} Byzantine readers, t={cfg.t}")
    if cfg.n <= 3 * cfg.t:
        warnings.append(f"n={cfg.n} <= 3t={3 * cfg.t}: genuine advance not guaranteed")
    if cfg.n <= 2 * cfg.t:
        warnings.append(f"n={cfg.n} <= 2t={2 * cfg.t}: total order not guaranteed")

    try:
        wl_raw = raw.get("workload", {})
        workload = engine.Workload.make(
            writes=[w.encode() for w in _strings(wl_raw.get("writes", []), "workload writes")],
            reads={
                i: json_int(v, f"read count of reader {i}")
                for i, v in by_reader(wl_raw.get("reads", {}), "workload reads").items()
            },
            read_gap=json_int(wl_raw.get("read_gap", 0), "read_gap"),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad workload block: {exc}") from exc
    for i, _ in workload.reads:
        if not 1 <= i <= cfg.n:
            raise ConfigError(f"reads for reader {i} outside 1..{cfg.n}")
        if i in byz:
            warnings.append(f"reads assigned to Byzantine reader {i} are dropped")
    try:
        u0 = raw.get("u0", "init").encode()
    except (AttributeError, UnicodeEncodeError) as exc:
        raise ConfigError(f"bad u0: {exc}") from exc
    return adversary.Scenario(
        name, cfg, u0, strategies, workload, engine.SeededRandom(seed=0), warnings=warnings
    )


@dataclass
class SeedResult:
    seed: int
    status: str
    report: checker.CheckReport

    def matches(self, scenario: adversary.Scenario) -> bool:
        """The run ended in the expected status with exactly the expected
        violations."""
        return self.status == scenario.expected_status and set(
            self.report.violations()
        ) == set(scenario.expected_violations)


@dataclass
class CampaignResult:
    scenario: adversary.Scenario
    results: list[SeedResult]

    def matches_expected(self) -> bool:
        return all(r.matches(self.scenario) for r in self.results)

    def exit_code(self) -> int:
        if self.matches_expected():
            return EXIT_OK
        for r in self.results:
            if r.status == "step_limit" and self.scenario.expected_status != "step_limit":
                return EXIT_LIVENESS
        return EXIT_SAFETY


def run_scenario(scenario: adversary.Scenario, fail_fast: bool = False) -> CampaignResult:
    """Run and check each seed; ``fail_fast`` stops after the first mismatch."""
    results: list[SeedResult] = []
    for seed in scenario.seeds:
        schedule = scenario.schedule
        if isinstance(schedule, engine.SeededRandom):
            schedule = dataclasses.replace(schedule, seed=seed)
        history = engine.run(
            scenario.cfg,
            scenario.strategies,
            scenario.workload,
            schedule,
            scenario.step_limit,
            u0=scenario.u0,
            scheme=scenario.scheme,
            key_seed=seed,
            settle_steps=scenario.settle_steps,
            raise_on_limit=False,
        )
        report = checker.run_all_checks(history, scenario.byz_readers)
        results.append(SeedResult(seed=seed, status=history.status, report=report))
        if fail_fast and not results[-1].matches(scenario):
            break
    return CampaignResult(scenario=scenario, results=results)


def emit_records(campaign: CampaignResult):
    s = campaign.scenario
    yield json.dumps(
        {
            "scenario": s.name,
            "n": s.cfg.n,
            "t": s.cfg.t,
            "writer_byzantine": s.cfg.writer_byzantine,
            "seeds": len(s.seeds),
            "expected_status": s.expected_status,
            "expected_violations": sorted(s.expected_violations),
            "registers": 3 * s.cfg.n**2 + 2 * s.cfg.n,
        },
        sort_keys=True,
    )
    for w in s.warnings:
        yield json.dumps({"warning": w}, sort_keys=True)
    for r in campaign.results:
        yield json.dumps({"seed": r.seed, "status": r.status}, sort_keys=True)
        yield from r.report.records()
    yield json.dumps({"matches_expected": campaign.matches_expected()}, sort_keys=True)


def campaign_digest(campaign: CampaignResult) -> str:
    return engine.records_digest(emit_records(campaign))


def emit_human(campaign: CampaignResult, out) -> None:
    s = campaign.scenario
    n = s.cfg.n
    print(f"scenario {s.name}: n={n}, t={s.cfg.t}, "
          f"writer {'Byzantine' if s.cfg.writer_byzantine else 'correct'}", file=out)
    print(f"  registers: 3n^2+2n = {3 * n * n + 2 * n}", file=out)
    print("  note: the witness/inform/final families hold 3n^2 registers; the "
          "init/ack families add 2n (a per-reader pair, not 2n^2).", file=out)
    for w in s.warnings:
        print(f"  warning: {w}", file=out)
    ok = 0
    for r in campaign.results:
        if r.matches(s):
            ok += 1
        else:
            print(f"  seed {r.seed}: status={r.status} violations={r.report.violations()}",
                  file=out)
            for name, v in r.report.verdicts.items():
                if v.status == "violation":
                    print(f"    {name}: {v.detail}", file=out)
    last = campaign.results[-1] if campaign.results else None
    if last is not None:
        chain = " -> ".join(str(v) for v in last.report.chain)
        order = " -> ".join(str(s_.value) for s_ in last.report.stabilizations)
        print(f"  last seed stabilization order: {order}", file=out)
        if chain:
            print(f"  last seed timestamp chain:   {chain}", file=out)
        invisible = last.report.invisible_stabilizations()
        if invisible:
            names = ", ".join(str(s_.value) for s_ in invisible)
            print(f"  stabilized but never returned (no check applies): {names}", file=out)
    print(f"  {ok}/{len(campaign.results)} seeds matched expectations", file=out)
    print(f"  digest: {campaign_digest(campaign)}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="byzreg",
        description="Run a register-emulation scenario and check every property.",
    )
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--seeds", type=int, default=None, help="override seed count")
    parser.add_argument("--step-limit", type=int, default=None)
    parser.add_argument(
        "--format", choices=("human", "records"), default="human", dest="fmt"
    )
    parser.add_argument(
        "--fail-fast", action="store_true", help="stop at the first mismatching seed"
    )
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        if args.seeds is not None:
            if args.seeds <= 0:
                raise ConfigError(f"--seeds must be positive, got {args.seeds}")
            scenario.seeds = list(range(args.seeds))
        if args.step_limit is not None:
            if args.step_limit <= 0:
                raise ConfigError(f"--step-limit must be positive, got {args.step_limit}")
            scenario.step_limit = args.step_limit
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        campaign = run_scenario(scenario, args.fail_fast)
    except Exception as exc:  # noqa: BLE001 - checker failures are exit 5
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.fmt == "records":
        for line in emit_records(campaign):
            print(line)
        print(json.dumps({"digest": campaign_digest(campaign)}, sort_keys=True))
    else:
        emit_human(campaign, sys.stdout)
    return campaign.exit_code()


if __name__ == "__main__":
    sys.exit(main())
