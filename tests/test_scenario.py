"""Scenario serialization and the two shipped presets."""

import json
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meowsim.engine import SplitMix64
from meowsim.errors import WrongType
from meowsim.scenario import (
    ARRIVAL_GRID_NS,
    PRESET_NAMES,
    Scenario,
    arrival_phase_ns,
    load_preset,
    load_scenario,
    load_scenario_text,
    resolve_scenario,
)
from meowsim.topology import MAX_PDO_CYCLE_NS, SegmentSpec, TimingParams, Topology


def small_topology(cycle_ns=32_000, phase_ns=0):
    return Topology(
        segments=(SegmentSpec(device_count=2, phase_ns=phase_ns),),
        timing=TimingParams(pdo_cycle_ns=cycle_ns),
    )


class TestArrivalLaw:
    @given(slots=st.integers(1, MAX_PDO_CYCLE_NS // ARRIVAL_GRID_NS),
           seed=st.integers(0, (1 << 64) - 1), draws=st.integers(1, 20))
    def test_phases_lie_on_the_grid_inside_the_cycle(self, slots, seed, draws):
        cycle = slots * ARRIVAL_GRID_NS
        rng = SplitMix64(seed)
        for _ in range(draws):
            phase = arrival_phase_ns(rng, cycle)
            assert phase % ARRIVAL_GRID_NS == 0
            assert 0 <= phase < cycle

    @given(slots=st.integers(1, MAX_PDO_CYCLE_NS // ARRIVAL_GRID_NS),
           seed=st.integers(0, (1 << 64) - 1))
    def test_each_phase_takes_one_step_of_the_generator(self, slots, seed):
        # a one-slot cycle too: its draw has one value, and still steps
        rng, twin = SplitMix64(seed), SplitMix64(seed)
        phase = arrival_phase_ns(rng, slots * ARRIVAL_GRID_NS)
        assert phase == ARRIVAL_GRID_NS * twin.uniform_draw(0, slots - 1)
        assert rng.state == twin.state
        twin.next_u64()
        arrival_phase_ns(rng, slots * ARRIVAL_GRID_NS)
        assert rng.state == twin.state

    def test_every_slot_is_reached(self):
        rng = SplitMix64(7)
        phases = {arrival_phase_ns(rng, 500) for _ in range(200)}
        assert phases == {0, 100, 200, 300, 400}


class TestPresets:
    def test_preset_names(self):
        assert PRESET_NAMES == ("exp1", "exp2")

    def test_exp1_shape(self):
        s = load_preset("exp1")
        assert s.topology.segment_count == 1
        assert s.topology.segments[0].device_count == 8
        assert s.topology.timing.pdo_cycle_ns == 32_000
        assert s.topology.timing.d_mm_ns == 0
        assert s.topology.timing.d_jitter_max_ns == 0
        assert s.num_requests == 1_000
        assert s.measurement == (0, 7)
        assert set(s.outputs) == {"csv", "trace", "stats"}

    def test_exp2_shape(self):
        s = load_preset("exp2")
        assert s.topology.segment_count == 4
        assert all(seg.device_count == 2 for seg in s.topology.segments)
        assert s.topology.timing.pdo_cycle_ns == 80_000
        assert s.topology.timing.d_mm_ns == 15_400
        assert s.topology.timing.d_jitter_max_ns == 7_000
        assert s.num_requests == 1_000
        assert s.measurement == (0, 1)  # rank-2 device, same rank on every chain

    def test_shared_calibration_constants(self):
        for name in PRESET_NAMES:
            t = load_preset(name).topology.timing
            assert t.d_sb_ns == 70_000
            assert t.d_frame_head_ns == 12_000
            assert t.d_hop_ns == 900
            assert t.d_latch_ns == 800

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_file_is_its_loaded_scenario(self, name):
        # a preset carries no field the loader drops or fills in from a default
        path = files("meowsim").joinpath("data").joinpath("presets").joinpath(f"{name}.json")
        assert json.loads(path.read_text(encoding="utf-8")) == load_preset(name).to_dict()

    def test_readme_example_is_exp1(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Scenario files", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert load_scenario_text(block) == load_preset("exp1")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            load_preset("exp3")

    def test_resolve_accepts_preset_name_and_path(self, tmp_path):
        by_name = resolve_scenario("exp1")
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(by_name.to_dict()), encoding="utf-8")
        by_path = resolve_scenario(str(path))
        assert by_path == by_name


class TestRoundtrip:
    def test_to_dict_from_dict_identity(self):
        s = Scenario(
            topology=small_topology(),
            num_requests=10,
            seed=7,
            measurement=(0, 1),
            outputs={"csv": "out.csv"},
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_load_scenario_file(self, tmp_path):
        s = load_preset("exp2")
        path = tmp_path / "exp2.json"
        path.write_text(json.dumps(s.to_dict()), encoding="utf-8")
        assert load_scenario(str(path)) == s

    def test_with_changes(self):
        s = load_preset("exp1")
        faster = s.with_changes(seed=99, num_requests=5)
        assert faster.seed == 99
        assert faster.num_requests == 5
        assert faster.topology == s.topology


class TestValidation:
    def doc(self, **overrides):
        base = {
            "topology": small_topology().to_dict(),
            "workload": {"num_requests": 3, "seed": 1},
            "measurement": {"segment": 0, "device": 1},
        }
        base.update(overrides)
        return base

    def test_seed_is_required(self):
        doc = self.doc()
        del doc["workload"]["seed"]
        with pytest.raises(ValueError, match="seed"):
            Scenario.from_dict(doc)

    def test_output_path_not_a_string_quoted_to_200_characters(self):
        path = ["x" * 100_000]
        with pytest.raises(WrongType) as info:
            Scenario.from_dict(self.doc(outputs={"csv": path}))
        assert str(info.value) == "output csv must be a path string, got " + repr(path)[:200]

    def test_unknown_scenario_key(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            Scenario.from_dict(self.doc(extra=1))

    def test_unknown_workload_key(self):
        doc = self.doc()
        doc["workload"]["burst"] = True
        with pytest.raises(ValueError, match="unknown workload keys"):
            Scenario.from_dict(doc)

    def test_unknown_measurement_key(self):
        doc = self.doc()
        doc["measurement"]["port"] = 1
        with pytest.raises(ValueError, match="unknown measurement keys"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("part, key, value", [
        ("workload", "arrival", "uniform-phase"),
        ("timing", "link_mbps", 100),
    ], ids=["workload.arrival", "timing.link_mbps"])
    def test_retired_field_rejected(self, part, key, value):
        # both once had a field and decided nothing; a file that still
        # carries one is rejected like any unknown key, not read without it
        doc = self.doc()
        (doc["topology"] if part == "timing" else doc)[part][key] = value
        with pytest.raises(ValueError, match=rf"^unknown {part} keys: \['{key}'\]$"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("part, key", [
        ("scenario", "workload"), ("measurement", "device"), ("segment 0", "device_count"),
        ("timing", "pdo_cycle_ns"),
    ])
    def test_required_key_missing(self, part, key):
        doc = self.doc()
        owner = {"scenario": doc, "measurement": doc["measurement"],
                 "segment 0": doc["topology"]["segments"][0],
                 "timing": doc["topology"]["timing"]}[part]
        del owner[key]
        with pytest.raises(ValueError, match=rf"^{part} needs '{key}'$"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("part", ["workload", "measurement", "outputs"])
    def test_part_must_be_an_object(self, part):
        with pytest.raises(WrongType, match=rf"^{part} must be an object"):
            Scenario.from_dict(self.doc(**{part: [["csv", "x.csv"]]}))

    def test_measurement_must_be_in_topology(self):
        doc = self.doc(measurement={"segment": 0, "device": 9})
        with pytest.raises(Exception):
            Scenario.from_dict(doc)

    def test_cycle_must_sit_on_arrival_grid(self):
        with pytest.raises(ValueError, match="grid"):
            Scenario(
                topology=small_topology(cycle_ns=32_050),
                num_requests=1,
                seed=0,
                measurement=(0, 0),
            )
        assert ARRIVAL_GRID_NS == 100

    def test_phase_must_sit_on_arrival_grid(self):
        with pytest.raises(ValueError, match="phase"):
            Scenario(
                topology=small_topology(phase_ns=150),
                num_requests=1,
                seed=0,
                measurement=(0, 0),
            )

    def test_unknown_output_key(self):
        with pytest.raises(ValueError, match="output"):
            Scenario(
                topology=small_topology(),
                num_requests=1,
                seed=0,
                measurement=(0, 0),
                outputs={"parquet": "x"},
            )

    def test_num_requests_positive(self):
        with pytest.raises(ValueError):
            Scenario(
                topology=small_topology(),
                num_requests=0,
                seed=0,
                measurement=(0, 0),
            )

    def test_seed_must_be_integer(self):
        with pytest.raises(TypeError):
            Scenario(
                topology=small_topology(),
                num_requests=1,
                seed="0",
                measurement=(0, 0),
            )

    def test_text_loader(self):
        s = load_scenario_text(json.dumps(self.doc()))
        assert s.num_requests == 3
        assert s.measurement == (0, 1)
