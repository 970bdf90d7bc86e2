"""Scenario runner: config parsing, campaign execution, report formats,
exit codes, digest stability."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from byzreg.adversary import READER_STRATEGIES, WRITER_STRATEGIES
from byzreg.engine import SeededRandom
from byzreg.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SAFETY,
    ConfigError,
    campaign_digest,
    load_scenario,
    main,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, obj, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


BASE = {
    "name": "mini",
    "config": {"n": 4, "t": 0},
    "u0": "init",
    "writer": {"strategy": "correct"},
    "workload": {"writes": ["a"], "reads": {"1": 1}, "read_gap": 1},
    "schedule": {"kind": "seeded", "fair": True},
    "seeds": [0, 1],
    "step_limit": 30000,
    "expected": {"status": "completed"},
}


class TestLoading:
    def test_minimal_scenario_loads(self, tmp_path):
        s = load_scenario(write_scenario(tmp_path, BASE))
        assert s.cfg.n == 4 and s.seeds == [0, 1]

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/path.json")

    def test_bad_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(p)

    def test_unknown_strategy_rejected(self, tmp_path):
        obj = dict(BASE)
        obj["readers"] = {"1": {"strategy": "mystery"}}
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, obj))

    def test_byzantine_count_over_t_needs_override(self, tmp_path):
        obj = dict(BASE)
        obj["config"] = {"n": 4, "t": 0}
        obj["readers"] = {"1": {"strategy": "silent"}}
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, obj))
        obj["allow_sub_threshold"] = True
        s = load_scenario(write_scenario(tmp_path, obj))
        assert any("sub-threshold" in w for w in s.warnings)

    def test_scripted_file_overrides(self, tmp_path):
        obj = {
            "scripted": "pseudo_correct",
            "schedule": {"kind": "seeded", "fair": False},
            "step_limit": 1234,
            "seeds": {"start": 3, "count": 2},
        }
        s = load_scenario(write_scenario(tmp_path, obj))
        assert s.schedule == SeededRandom(seed=0, fair=False)
        assert s.step_limit == 1234 and s.seeds == [3, 4]
        # what the file leaves out comes from the scripted attack
        assert (s.name, s.settle_steps) == ("pseudo_correct_n4t1", 600)
        assert s.byz_readers == frozenset({4})

    def test_sub_threshold_config_warns(self, tmp_path):
        obj = dict(BASE)
        obj["config"] = {"n": 3, "t": 1}
        obj["readers"] = {"3": {"strategy": "silent"}}
        obj["workload"] = {"writes": ["a"], "reads": {"1": 1}}
        s = load_scenario(write_scenario(tmp_path, obj))
        assert any("3t" in w for w in s.warnings)


class TestCampaigns:
    def test_passing_campaign_exit_zero(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        assert main([str(path)]) == EXIT_OK

    def test_records_format(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASE)
        assert main([str(path), "--format", "records"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        parsed = [json.loads(line) for line in out]
        assert any("scenario" in rec for rec in parsed)
        assert any("property" in rec for rec in parsed)
        assert any("digest" in rec for rec in parsed)
        head = next(rec for rec in parsed if "scenario" in rec)
        assert head["registers"] == 56

    def test_digest_stable_across_reruns(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        d1 = campaign_digest(run_scenario(load_scenario(path)))
        d2 = campaign_digest(run_scenario(load_scenario(path)))
        assert d1 == d2

    def test_expected_violation_is_success(self):
        scenario = load_scenario(SCENARIOS / "alternation_n3t1.json")
        campaign = run_scenario(scenario)
        assert campaign.matches_expected()
        assert campaign.exit_code() == EXIT_OK

    def test_unexpected_pass_when_violation_expected_fails(self, tmp_path):
        obj = dict(BASE)
        obj["expected"] = {"status": "completed", "violations": ["genuine_advance"]}
        path = write_scenario(tmp_path, obj)
        assert main([str(path)]) == EXIT_SAFETY

    def test_step_limit_expected(self, tmp_path):
        obj = dict(BASE)
        obj["workload"] = {"writes": ["a"]}
        obj["schedule"] = {"kind": "scripted", "steps": ["w"] * 50, "then": "stop"}
        obj["step_limit"] = 60
        obj["expected"] = {"status": "step_limit"}
        path = write_scenario(tmp_path, obj)
        assert main([str(path)]) == EXIT_OK

    def test_unexpected_step_limit_is_liveness_exit(self, tmp_path):
        from byzreg.cli import EXIT_LIVENESS

        obj = dict(BASE)
        obj["workload"] = {"writes": ["a"]}
        obj["schedule"] = {"kind": "scripted", "steps": ["w"] * 50, "then": "stop"}
        obj["step_limit"] = 60
        path = write_scenario(tmp_path, obj)
        assert main([str(path)]) == EXIT_LIVENESS

    def test_bad_config_exit_two(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{}")
        assert main([str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "blocks",
        [
            {"writer": {"strategy": "split_value"}},
            {"readers": {"4": {"strategy": "fake_witness_stamp", "offset": "abc"}}},
            {"readers": {"x": {"strategy": "silent"}}},
            {"workload": {"writes": [1]}},
            {"writer": {"strategy": "partial_quorum", "targets": []}},
            {"writer": {"strategy": "partial_quorum", "targets": [[1, 9]]}},
            {"writer": {"strategy": "partial_quorum", "targets": [[0, 1]]}},
            {"writer": {"strategy": "split_value", "assignment": {"9": "a"}}},
            {"writer": {"strategy": "split_value", "assignment": {"0": "a"}}},
            {"writer": {"strategy": "multi_value_burst", "values": []}},
            {"seeds": ["a"]},
            {"step_limit": "x"},
            {"u0": 5},
            {"schedule": {"kind": "scripted"}},
            {"schedule": {"kind": "scripted", "steps": ["w"], "then": "round-robin"}},
            {"schedule": {"kind": "scripted", "steps": [["w"], 3]}},
            {"schedule": {"kind": "scripted", "steps": "r1"}},
            {"expected": {"status": "complete"}},
            {"expected": {"violations": ["total_ordr"]}},
            {"workload": {"writes": ["a"], "reads": {"1": -1}}},
            {"workload": {"writes": ["a"], "read_gap": -3}},
            {"workload": {"writes": ["a"], "reads": {"9": 2}}},
            {"workload": {"writes": ["a"], "reads": {"0": 1}}},
            {"seeds": []},
            {"seeds": {"count": 0}},
            {"readers": {"4": {"strategy": "equivocate", "values": {"9": "zz"}}}},
            {"writer": {"strategy": "overwrite_early", "delay": 2**70}},
            {"writer": {"strategy": "overwrite_early", "delay": -5}},
            {"u0": "\udc80"},
            {"settle_steps": -4},
            {"config": {"n": 4, "t": 1, "writer_byzantine": "false"}},
            {"schedule": {"kind": "seeded", "fair": "false"}},
            {"allow_sub_threshold": "false",
             "readers": {"1": {"strategy": "silent"}, "2": {"strategy": "silent"}}},
            {"seeds": [-5]},
            {"seeds": {"start": -5, "count": 2}},
            {"seeds": [1.5]},
            {"seeds": {"start": "3", "count": 2}},
            {"step_limit": True},
            {"step_limit": 2.9},
            {"step_limit": "50000"},
            {"step_limit": 0},
            {"settle_steps": 1.5},
            {"config": {"n": 4.0, "t": 1}},
            {"config": {"n": 4, "t": True}},
            {"config": {"n": "4", "t": 1}},
            {"workload": {"writes": ["a"], "reads": {"1": 1.0}}},
            {"workload": {"writes": ["a"], "reads": {"1": "2"}}},
            {"workload": {"writes": ["a"], "reads": {"1": False}}},
            {"workload": {"writes": ["a"], "read_gap": 0.5}},
            {"workload": {"writes": ["a"], "read_gap": True}},
            {"workload": {"writes": "ab"}},
            {"expected": {"violations": "total_order"}},
            {"expected": {"violations": {"total_order": 1}}},
            {"readers": {"4": {"strategy": "silent"}, "04": {"strategy": "correct"}}},
            {"workload": {"writes": ["a"], "reads": {"1": 1, "01": 2}}},
            {"readers": {"4": {"strategy": "fake_witness_stamp", "offset": True}}},
            {"readers": {"4": {"strategy": "fake_witness_stamp", "offset": 2.9}}},
            {"readers": {"4": {"strategy": "fake_witness_stamp", "offset": "7"}}},
            {"writer": {"strategy": "stale_counter", "k": True}},
            {"writer": {"strategy": "overwrite_early", "delay": 1.5}},
            {"readers": {"4": {"strategy": "equivocate", "values": {"1": "a", "01": "b"}}}},
            {"writer": {"strategy": "split_value", "assignment": {"1": "a", "01": "b"}}},
            {"writer": {"strategy": "partial_quorum", "targets": [[1, 2, True]]}},
            {"config": {"n": 4, "t": 1},
             "writer": {"strategy": "split_value", "assignment": {"1": "a", "2": "b"}}},
        ],
        ids=[
            "assignment_missing",
            "offset_not_int",
            "reader_key_not_int",
            "write_not_str",
            "targets_empty",
            "targets_reader_9",
            "targets_reader_0",
            "assignment_reader_9",
            "assignment_reader_0",
            "values_empty",
            "seed_not_int",
            "step_limit_not_int",
            "u0_not_str",
            "scripted_schedule_without_steps",
            "scripted_fallback_unknown",
            "scripted_steps_not_names",
            "scripted_steps_a_string",
            "expected_status_unknown",
            "expected_violation_unknown",
            "reads_negative",
            "read_gap_negative",
            "reads_reader_9",
            "reads_reader_0",
            "seeds_empty",
            "seeds_count_zero",
            "equivocate_peer_9",
            "delay_too_large",
            "delay_negative",
            "u0_surrogate",
            "settle_steps_negative",
            "writer_byzantine_string",
            "fair_string",
            "allow_sub_threshold_string",
            "seed_negative",
            "seed_start_negative",
            "seed_float",
            "seed_start_string",
            "step_limit_bool",
            "step_limit_float",
            "step_limit_string",
            "step_limit_zero",
            "settle_steps_float",
            "n_float",
            "t_bool",
            "n_string",
            "reads_float",
            "reads_string",
            "reads_bool",
            "read_gap_float",
            "read_gap_bool",
            "writes_a_string",
            "expected_violations_a_string",
            "expected_violations_an_object",
            "readers_index_repeated",
            "reads_index_repeated",
            "offset_bool",
            "offset_float",
            "offset_string",
            "k_bool",
            "delay_float",
            "equivocate_index_repeated",
            "assignment_index_repeated",
            "targets_bool",
            "byzantine_writer_unflagged",
        ],
    )
    def test_malformed_block_exit_two(self, tmp_path, blocks):
        obj = {**BASE, "config": {"n": 4, "t": 1, "writer_byzantine": True}, **blocks}
        path = write_scenario(tmp_path, obj)
        with pytest.raises(ConfigError):
            load_scenario(path)
        assert main([str(path)]) == EXIT_CONFIG

    def test_top_level_array_exit_two(self, tmp_path):
        path = write_scenario(tmp_path, [BASE])
        with pytest.raises(ConfigError):
            load_scenario(path)
        assert main([str(path)]) == EXIT_CONFIG

    def test_seed_override(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        assert main([str(path), "--seeds", "1"]) == EXIT_OK

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_seed_override_without_seeds_exit_two(self, tmp_path, count):
        path = write_scenario(tmp_path, BASE)
        assert main([str(path), "--seeds", count]) == EXIT_CONFIG

    def test_equivocate_without_values_loads(self, tmp_path):
        obj = {**BASE, "config": {"n": 4, "t": 1},
               "readers": {"4": {"strategy": "equivocate"}}}
        s = load_scenario(write_scenario(tmp_path, obj))
        assert s.strategies.reader_strategy(4).values == ()

    def test_fail_fast_stops_at_first_mismatch(self, tmp_path, capsys):
        obj = dict(BASE)
        obj["seeds"] = [0, 1, 2, 3]
        obj["expected"] = {"status": "step_limit"}  # wrong on purpose
        path = write_scenario(tmp_path, obj)
        assert main([str(path), "--fail-fast"]) != EXIT_OK
        capsys.readouterr()
        assert main([str(path), "--fail-fast", "--format", "records"]) != EXIT_OK
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["seed"] for r in records if "seed" in r] == [0]


class TestAdversaryChosenIntegers:
    """Counters and stamps wider than the signing payload's 64-bit fields
    do not decode, so a correct reader never signs one."""

    @pytest.mark.parametrize(
        "blocks",
        [
            {
                "config": {"n": 4, "t": 1, "writer_byzantine": True},
                "writer": {"strategy": "stale_counter", "k": 2**70},
            },
            {
                "config": {"n": 4, "t": 1},
                "readers": {"4": {"strategy": "fake_witness_stamp", "offset": 2**70}},
            },
        ],
        ids=["stale_counter_k", "fake_witness_stamp_offset"],
    )
    def test_huge_integer_is_not_an_internal_error(self, tmp_path, blocks):
        obj = {**BASE, **blocks, "workload": {"writes": ["a"], "reads": {"1": 1, "2": 1}},
               "settle_steps": 300}
        assert main([str(write_scenario(tmp_path, obj))]) != EXIT_INTERNAL


class TestScenarioLibrary:
    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIOS.glob("*.json"))])
    def test_library_file_loads(self, name):
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        assert scenario.name

    def test_library_uses_every_registered_strategy(self):
        used = {"writer": set(), "reader": set()}
        for path in SCENARIOS.glob("*.json"):
            s = load_scenario(path)
            used["writer"].add(s.strategies.writer.name)
            used["reader"] |= {
                s.strategies.reader_strategy(i).name for i in s.cfg.reader_indices()
            }
        assert set(WRITER_STRATEGIES) <= used["writer"]
        assert set(READER_STRATEGIES) <= used["reader"]

    def test_library_covers_named_attacks(self):
        names = {p.stem for p in SCENARIOS.glob("*.json")}
        assert {"fault_free_n4", "alternation_n3t1", "forged_quorum_n4t2",
                "pseudo_correct", "pseudo_correct_overwrite",
                "liveness_silent_n4t1"} <= names
