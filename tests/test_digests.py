"""Golden digests: behaviour pinned across commits.

Criterion 10 compares two runs inside one process, so it cannot see a
change that shifts every run the same way.  This file compares today's
digests with ones committed in ``golden_digests.json``:

* the campaign digest and exit code of every ``scenarios/*.json``;
* ``history.digest()`` and ``report.digest()`` of a few fixed runs;
* the history count and a combined digest of one small enumeration.

Every pinned digest is independent of ``PYTHONHASHSEED``;
``test_digests_independent_of_hash_seed`` checks that for the fixed runs
in two fresh interpreters.  A change that alters behaviour on purpose
regenerates the file with ``python tests/test_digests.py --write`` (from
the repository root), which prints each entry that moves, and says which
digests moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from byzreg.adversary import (
    CollaborateStabilize,
    Equivocate,
    FakeWitnessStamp,
    PartialQuorum,
    StrategyAssignment,
)
from byzreg.checker import run_all_checks
from byzreg.cli import campaign_digest, load_scenario, run_scenario
from byzreg.core import Config
from byzreg.engine import SeededRandom, Workload, enumerate_schedules, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def _fault_free_n4():
    cfg = Config(4, 0)
    wl = Workload.make(writes=[b"a", b"b", b"c"], reads={1: 2, 2: 1, 3: 2, 4: 1}, read_gap=1)
    return cfg, StrategyAssignment(), wl, SeededRandom(seed=3), 7


def _byzantine_readers_n10t3():
    cfg = Config(10, 3)
    strategies = StrategyAssignment(
        readers={2: Equivocate.make({1: b"zz", 5: b"qq"}), 7: FakeWitnessStamp(offset=10)}
    )
    wl = Workload.make(writes=[b"a"], reads={1: 1, 4: 1, 9: 1}, read_gap=0)
    return cfg, strategies, wl, SeededRandom(seed=5), 11


def _byzantine_writer_n4t1():
    cfg = Config(4, 1, writer_byzantine=True)
    strategies = StrategyAssignment(
        writer=PartialQuorum.make({1, 2}, {3}),
        readers={4: CollaborateStabilize()},
    )
    wl = Workload.make(writes=[b"x", b"x"], reads={1: 2, 2: 2}, read_gap=2)
    return cfg, strategies, wl, SeededRandom(seed=2), 4


RUNS = {
    "fault_free_n4": _fault_free_n4,
    "byzantine_readers_n10t3": _byzantine_readers_n10t3,
    "byzantine_writer_n4t1": _byzantine_writer_n4t1,
}


def scenario_digest(path: Path) -> dict:
    campaign = run_scenario(load_scenario(path))
    return {"digest": campaign_digest(campaign), "exit_code": campaign.exit_code()}


def run_digest(name: str) -> dict:
    cfg, strategies, wl, schedule, key_seed = RUNS[name]()
    history = run(
        cfg, strategies, wl, schedule, 60_000,
        key_seed=key_seed, settle_steps=200, raise_on_limit=False,
    )
    report = run_all_checks(history, strategies.byzantine_readers())
    return {
        "status": history.status,
        "steps": history.steps,
        "history": history.digest(),
        "report": report.digest(),
    }


def enumeration_digest() -> dict:
    cfg = Config(2, 0)
    wl = Workload.make(writes=[b"a"], reads={1: 1})
    h = hashlib.sha256()
    count = 0
    for history in enumerate_schedules(cfg, wl, depth_bound=60):
        count += 1
        h.update(history.digest().encode())
        h.update(run_all_checks(history).digest().encode())
    return {"histories": count, "digest": h.hexdigest()}


def compute_all() -> dict:
    return {
        "scenarios": {p.name: scenario_digest(p) for p in SCENARIOS},
        "runs": {name: run_digest(name) for name in RUNS},
        "enumeration": enumeration_digest(),
    }


def moved_entries(old: dict, new: dict) -> list[str]:
    """Each leaf whose value differs between two digest trees, as
    ``path: old -> new``; an entry on one side only shows None on the other."""

    def leaves(tree, path=()):
        if not isinstance(tree, dict):
            return {path: tree}
        return {k: v for key, sub in tree.items() for k, v in leaves(sub, path + (key,)).items()}

    a, b = leaves(old), leaves(new)
    return [
        f"{'/'.join(map(str, path))}: {a.get(path)} -> {b.get(path)}"
        for path in sorted(a.keys() | b.keys())
        if a.get(path) != b.get(path)
    ]


def test_moved_entries_lists_changed_leaves():
    old = {"runs": {"x": {"report": "r1", "steps": 5}}, "gone": 1}
    new = {"runs": {"x": {"report": "r2", "steps": 5}}, "added": {"d": "h"}}
    assert moved_entries(old, new) == [
        "added/d: None -> h",
        "gone: 1 -> None",
        "runs/x/report: r1 -> r2",
    ]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden["scenarios"]) == [p.name for p in SCENARIOS]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_campaign_digest(path, golden):
    assert scenario_digest(path) == golden["scenarios"][path.name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_digests(name, golden):
    assert run_digest(name) == golden["runs"][name]


def test_enumeration_digest(golden):
    assert enumeration_digest() == golden["enumeration"]


def test_digests_independent_of_hash_seed(golden):
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import test_digests as t\n"
        "print(json.dumps({n: t.run_digest(n) for n in sorted(t.RUNS)}))\n"
    )
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        assert json.loads(out.stdout) == golden["runs"], f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_digests.py --write")
    digests = compute_all()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for line in moved_entries(old, digests):
        print(line)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
