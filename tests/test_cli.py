"""Command-line verbs, exercised through main(argv)."""

import argparse
import json
import os
import socket
import subprocess
import sys

import pytest

from meowsim import cli, scenario
from meowsim.cli import _parse_address, _parse_counts, main
from meowsim.errors import IoFailure

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden")


def scenario_doc(segments, cycle_ns, n=30, seed=3, measurement=(0, 7), **timing):
    return {
        "topology": {
            "segments": [{"device_count": d} for d in segments],
            "timing": {"pdo_cycle_ns": cycle_ns, **timing},
        },
        "workload": {"num_requests": n, "seed": seed},
        "measurement": {"segment": measurement[0], "device": measurement[1]},
    }


@pytest.fixture
def exp1_file(tmp_path):
    path = tmp_path / "exp1_small.json"
    path.write_text(json.dumps(scenario_doc([8], 32_000)), encoding="utf-8")
    return str(path)


@pytest.fixture
def exp2_file(tmp_path):
    doc = scenario_doc([2, 2, 2, 2], 80_000, n=10, seed=8446, measurement=(0, 1),
                       d_mm_ns=15_400, d_jitter_max_ns=7_000)
    path = tmp_path / "exp2_small.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_counts():
    # it only parses: a range stays a range, and sweep_devices checks each count
    assert _parse_counts("1..8") == range(1, 9)
    assert _parse_counts("1..100000000") == range(1, 100_000_001)
    assert _parse_counts("2,4,8") == [2, 4, 8]
    assert _parse_counts("5") == [5]
    assert _parse_counts("0,744") == [0, 744]


@pytest.mark.parametrize("argv, head, quoted", [
    (["sweep", "--devices", ",".join(["5"] * 50_000)],
     "need at least two points to fit: two distinct device counts, got ", str([5] * 50_000)),
    (["sweep", "--devices", "x" * 50_000],
     "--devices must be LO..HI or a comma list of integers, got ", repr("x" * 50_000)),
    (["pdo-compare", "--cycles", "x" * 50_000],
     "--cycles must be two integers HI,LO in ns with HI >= LO, got ", repr("x" * 50_000)),
], ids=["devices-one-count", "devices-malformed", "cycles-malformed"])
def test_flag_error_quotes_at_most_200_characters(exp1_file, capsys, no_simulation, argv,
                                                  head, quoted):
    assert main([argv[0], "--scenario", exp1_file, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {head}{quoted[:200]}\n"


@pytest.mark.parametrize("argv, head, quoted", [
    (["--racks", "1" + "0" * 400, "--masters", "4"],
     "SegmentTooLong: at most 743 devices per segment, got ", str(25 * 10 ** 399)),
    (["--racks", "1000", "--masters", "1" + "0" * 400],
     "SegmentCountExceeded: at most 6 masters per controller, got ", "1" + "0" * 400),
], ids=["racks-400-zeros", "masters-401-digits"])
def test_extrapolate_error_quotes_at_most_200_characters(capsys, argv, head, quoted):
    # racks of any size divide exactly (no float overflow), and fail at the edge
    assert main(["extrapolate", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {head}{quoted[:200]}\n"


NUMBER_FLAGS = [  # (argv before the flag, flag, argv after it, type name)
    (["serve", "--southbound", "127.0.0.1:0"], "--seed", [], "int"),
    (["extrapolate"], "--racks", ["--masters", "4"], "int"),
    (["extrapolate", "--racks", "1000"], "--masters", [], "int"),
    (["netctl", "exp1", "commands.jsonl"], "--words-per-device", [], "int"),
    (["extrapolate", "--racks", "1000", "--masters", "4"], "--worst-base-us", [], "float"),
    (["extrapolate", "--racks", "1000", "--masters", "4"], "--slope-ns", [], "float"),
]
# a short value, one past int()'s 4,300-digit limit, and a 50,000-character one
BAD_NUMBERS = {"int": ["abc", "9" * 5_000, "x" * 50_000], "float": ["abc", "x" * 50_000]}


@pytest.mark.parametrize("before, flag, after, kind, value", [
    (*case, value) for case in NUMBER_FLAGS for value in BAD_NUMBERS[case[3]]
], ids=[f"{case[1]}-{len(value)}" for case in NUMBER_FLAGS for value in BAD_NUMBERS[case[3]]])
def test_number_flag_error_quotes_at_most_200_characters(capsys, before, flag, after, kind,
                                                         value):
    # argparse's usage error, with the value's quote cut to 200 characters;
    # a short value's line is argparse's own
    with pytest.raises(SystemExit) as exit_info:
        main([*before, flag, value, *after])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: meowsim ") and err.endswith("\n")
    assert err.splitlines()[-1] == (f"meowsim {before[0]}: error: argument {flag}: "
                                    f"invalid {kind} value: {value!r:.200}")


@pytest.mark.parametrize("before, value", [
    (before, value) for before in (["codec"], []) for value in ("abc", "x" * 50_000)
], ids=["codec-3", "codec-50000", "verb-3", "verb-50000"])
def test_choice_error_quotes_at_most_200_characters(capsys, monkeypatch, before, value):
    # argparse words a choices error differently from version to version, so
    # this checks the bound and that only the value's quote differs from
    # argparse's own message: for a short value, not at all
    with pytest.raises(SystemExit) as exit_info:
        main([*before, value])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err) < 600 and f"{value!r:.200}" in err
    monkeypatch.setattr(cli._Parser, "_check_value", argparse.ArgumentParser._check_value)
    with pytest.raises(SystemExit):
        main([*before, value])
    assert capsys.readouterr().err == err.replace(f"{value!r:.200}", repr(value), 1)


class TestRun:
    def test_writes_outputs(self, tmp_path, capsys):
        doc = scenario_doc([8], 32_000)
        doc["outputs"] = {"csv": "o.csv", "trace": "o.trace", "stats": "o.json"}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["run", str(path), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "requests        30" in out
        for kind in ("csv", "trace", "stats"):
            assert f"wrote {kind:6s}" in out
        assert (tmp_path / "o.csv").exists()
        assert (tmp_path / "o.trace").exists()
        assert json.loads((tmp_path / "o.json").read_text(encoding="utf-8"))

    def test_no_oracle_check_flag(self, exp1_file, capsys):
        assert main(["run", exp1_file, "--no-oracle-check"]) == 0
        assert "best   config" in capsys.readouterr().out

    def test_missing_scenario_file(self, capsys):
        rc = main(["run", "/no/such/scenario.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_packaged_preset(self, tmp_path, monkeypatch, capsys):
        # an install whose package data lacks the presets: the package
        # resources resolve to a directory with no preset file in it
        monkeypatch.setattr(scenario.resources, "files", lambda package: tmp_path)
        with pytest.raises(IoFailure, match="cannot read preset exp1"):
            scenario.load_preset("exp1")
        assert main(["run", "exp1", "--out-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: IoFailure: cannot read preset exp1")

    @pytest.mark.parametrize("key", ["arrival", "link_mbps"])
    def test_retired_field_exits_2(self, tmp_path, capsys, key):
        doc = scenario_doc([8], 32_000)
        if key == "arrival":
            doc["workload"]["arrival"] = "uniform-phase"
        else:
            doc["topology"]["timing"]["link_mbps"] = 100
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and f"['{key}']" in err

    def test_malformed_scenario_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        rc = main(["run", str(bad)])
        assert rc == 2
        assert "invalid scenario JSON" in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [[], ["--no-oracle-check"]],
                             ids=["oracle-check", "no-oracle-check"])
    def test_phase_of_a_cycle_or_more_rejected_at_load(self, tmp_path, capsys, flags):
        doc = scenario_doc([8], 32_000)
        doc["topology"]["segments"][0]["phase_ns"] = 200_000
        path = tmp_path / "phase.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), *flags]) == 2
        assert "phase_ns" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("pdo_cycle_ns", lambda d: d["topology"]["timing"].update(pdo_cycle_ns="32000")),
        ("num_requests", lambda d: d["workload"].update(num_requests="5")),
        ("segment 0", lambda d: d["topology"]["segments"].__setitem__(0, [8, 0])),
        ("workload", lambda d: d.update(workload=[1])),
        ("measurement device", lambda d: d["measurement"].update(device=7.0)),
    ], ids=["cycle-string", "requests-string", "segment-array", "workload-array",
            "device-float"])
    def test_wrong_json_type_rejected_at_load(self, tmp_path, capsys, field, edit):
        doc = scenario_doc([8], 32_000)
        edit(doc)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))


    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_bad_out_dir_rejected_before_simulation(self, tmp_path, capsys, no_simulation,
                                                    kind):
        out_dir = tmp_path / "absent"
        if kind == "file":
            out_dir.write_text("", encoding="utf-8")
        rc = main(["run", "exp1", "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: IoFailure: cannot write")
        assert f"{out_dir} is not a directory" in err

    @pytest.mark.parametrize("trace, path", [("sub", "./sub"), ("", "./"), ("sub/", "./sub/")],
                             ids=["directory", "empty", "trailing-separator"])
    def test_export_path_naming_a_directory_rejected_before_simulation(
            self, tmp_path, monkeypatch, capsys, no_simulation, trace, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        doc = scenario_doc([8], 32_000)
        doc["outputs"] = {"csv": "r.csv", "trace": trace}
        (tmp_path / "s.json").write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["run", "s.json"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: IoFailure: cannot write trace {path}: it names a directory\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["s.json", "sub"]

    # JSON reads integers of up to 4300 digits; a message quotes 200 of them
    @pytest.mark.parametrize("part, field, value, head", [
        ("timing", "d_sb_ns", -10 ** 4000, "NegativeTiming: d_sb_ns must be >= 0, got "),
        ("segment", "device_count", 10 ** 4000,
         "SegmentTooLong: at most 743 devices per segment, got "),
        ("timing", "pdo_cycle_ns", 10 ** 4000, "pdo_cycle_ns must be in (0, 100000], got "),
        ("segment", "phase_ns", 10 ** 4000,
         "segment 0 phase_ns must be below pdo_cycle_ns 32000, got "),
        ("workload", "num_requests", -10 ** 4000, "num_requests must be >= 1, got "),
    ], ids=["negative-timing", "segment-too-long", "cycle", "phase", "requests"])
    def test_range_error_quotes_200_characters_of_an_integer(self, tmp_path, capsys,
                                                             no_simulation, part, field,
                                                             value, head):
        doc = scenario_doc([8], 32_000)
        parts = {"timing": doc["topology"]["timing"], "segment": doc["topology"]["segments"][0],
                 "workload": doc["workload"]}
        parts[part][field] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {head}{str(value)[:200]}\n"


class TestSweep:
    def test_slope_and_csv(self, exp1_file, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        rc = main(["sweep", "--scenario", exp1_file, "--devices", "1,4,8",
                   "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slope 900.0 ns/device" in out
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "devices,best_ns,worst_ns"
        assert len(lines) == 4

    def test_range_syntax(self, exp1_file, capsys):
        rc = main(["sweep", "--scenario", exp1_file, "--devices", "1..3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("devices,best_us,worst_us")

    def test_unwritable_csv_rejected(self, exp1_file, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "x.csv"
        rc = main(["sweep", "--scenario", exp1_file, "--devices", "1..2", "--csv", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: IoFailure: cannot write sweep CSV")
        assert "Traceback" not in err


    def test_missing_csv_dir_rejected_before_sweep(self, exp1_file, tmp_path, capsys,
                                                   no_simulation):
        path = tmp_path / "no" / "x.csv"
        rc = main(["sweep", "--scenario", exp1_file, "--csv", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: IoFailure: cannot write sweep CSV")

    def test_csv_naming_a_directory_rejected_before_sweep(self, exp1_file, tmp_path, capsys,
                                                          no_simulation):
        rc = main(["sweep", "--scenario", exp1_file, "--csv", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: IoFailure: cannot write sweep CSV {tmp_path}: it names a directory\n"

    def test_too_long_chain_rejected_before_sweep(self, exp1_file, capsys, no_simulation):
        # a range is checked count by count, so a huge one stops at 744 unbuilt
        for devices in ("740..744", "1..100000000"):
            rc = main(["sweep", "--scenario", exp1_file, "--devices", devices])
            out, err = capsys.readouterr()
            assert rc == 2
            assert out == ""
            assert err == "error: SegmentTooLong: at most 743 devices per segment, got 744\n"

    @pytest.mark.parametrize("devices", ["a..b", "1..", "1..2..3", "2,x"])
    def test_malformed_devices_named(self, exp1_file, capsys, no_simulation, devices):
        rc = main(["sweep", "--scenario", exp1_file, "--devices", devices])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: --devices must be LO..HI or a comma list")

    @pytest.mark.parametrize("devices", ["5", "2,2", "3..3"])
    def test_one_distinct_count_rejected_before_sweep(self, exp1_file, capsys, no_simulation,
                                                      devices):
        rc = main(["sweep", "--scenario", exp1_file, "--devices", devices])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: need at least two points to fit")


@pytest.mark.parametrize("argv, golden", [
    (["sweep", "--scenario", "exp1", "--devices", "1..8"], "sweep_exp1.stdout"),
    (["pdo-compare", "--scenario", "exp2", "--cycles", "80000,32000"],
     "pdo_compare_exp2.stdout"),
    (["extrapolate", "--racks", "1000", "--masters", "4"], "extrapolate_1000x4.stdout"),
    (["extrapolate", "--racks", "1000", "--masters", "6"], "extrapolate_1000x6.stdout"),
], ids=["sweep", "pdo-compare", "extrapolate-4", "extrapolate-6"])
def test_paper_figure_stdout_matches_golden(capsys, argv, golden):
    assert main(argv) == 0
    with open(os.path.join(GOLDEN_DIR, golden), "rb") as fh:
        assert capsys.readouterr().out.encode("utf-8") == fh.read()


def test_sweep_csv_matches_golden(tmp_path, capsys):
    path = tmp_path / "sweep_exp1.csv"
    assert main(["sweep", "--scenario", "exp1", "--devices", "1..8", "--csv", str(path)]) == 0
    capsys.readouterr()
    with open(os.path.join(GOLDEN_DIR, "sweep_exp1.csv"), "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_netctl_stdout_matches_golden(capsys):
    # every verb and every netctl error message, one word per device so that
    # the eight devices of exp1 run out
    commands = os.path.join(GOLDEN_DIR, "netctl_exp1.jsonl")
    assert main(["netctl", "exp1", commands, "--words-per-device", "1"]) == 1
    with open(os.path.join(GOLDEN_DIR, "netctl_exp1.stdout"), "rb") as fh:
        assert capsys.readouterr().out.encode("utf-8") == fh.read()


class TestExtrapolate:
    def test_four_masters(self, capsys):
        rc = main(["extrapolate", "--racks", "1000", "--masters", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "devices/segment  250" in out
        assert "predicted worst  412.0 us" in out

    def test_six_masters(self, capsys):
        rc = main(["extrapolate", "--racks", "1000", "--masters", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "devices/segment  167" in out
        assert "predicted worst  337.3 us" in out

    def test_base_override(self, capsys):
        rc = main(["extrapolate", "--racks", "1000", "--masters", "4",
                   "--worst-base-us", "190", "--slope-ns", "900"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "predicted worst  415.0 us" in out

    @pytest.mark.parametrize("flags, line", [
        # exactly 412049.5 ns and 49.5 ns: rounded once, half up, to 0.1 us
        (["--worst-base-us", "187", "--slope-ns", "900.198"], "predicted worst  412.0 us"),
        (["--worst-base-us", "0.0495"], "worst base       0.0 us"),
        (["--worst-base-us", "0.15"], "worst base       0.2 us"),
    ], ids=["predicted-412049.5ns", "base-49.5ns", "base-150ns"])
    def test_rounded_once_from_the_exact_value(self, capsys, flags, line):
        assert main(["extrapolate", "--racks", "1000", "--masters", "4", *flags]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_invalid_masters(self, capsys):
        assert main(["extrapolate", "--racks", "1000", "--masters", "0"]) == 2

    def test_more_masters_than_one_controller_drives(self, capsys):
        assert main(["extrapolate", "--racks", "1000", "--masters", "7"]) == 2
        assert "SegmentCountExceeded" in capsys.readouterr().err

    def test_chain_longer_than_one_datagram_carries(self, capsys):
        assert main(["extrapolate", "--racks", "1000", "--masters", "1"]) == 2
        assert "SegmentTooLong" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--slope-ns", "inf"), ("--slope-ns", "nan"),
        ("--worst-base-us", "nan"), ("--worst-base-us", "-inf"),
    ])
    def test_non_finite_flag_rejected(self, capsys, flag, value):
        rc = main(["extrapolate", "--racks", "1000", "--masters", "4", f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("error:") and flag in err
        assert out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--slope-ns", "1e308"), ("--worst-base-us", "1e306"),
    ])
    def test_flag_too_large_to_scale_rejected(self, capsys, flag, value):
        # finite, but the prediction in ns would overflow to infinity
        rc = main(["extrapolate", "--racks", "1000", "--masters", "4", f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("error:") and flag in err and "Traceback" not in err
        assert out == ""


class TestPdoCompare:
    def test_structural_only(self, exp2_file, capsys):
        rc = main(["pdo-compare", "--scenario", exp2_file,
                   "--cycles", "80000,32000", "--no-empirical"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "structural delta 48.0 us" in out
        assert "empirical" not in out

    def test_with_empirical(self, exp2_file, capsys):
        rc = main(["pdo-compare", "--scenario", exp2_file,
                   "--cycles", "80000,32000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "structural delta 48.0 us" in out
        assert "empirical delta" in out


    @pytest.mark.parametrize("cycles", ["1", "1,2,3", "a,b"])
    def test_malformed_cycles_named(self, exp2_file, capsys, no_simulation, cycles):
        rc = main(["pdo-compare", "--scenario", exp2_file, "--cycles", cycles])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: --cycles must be two integers HI,LO")

    def test_reversed_cycles_rejected_before_simulation(self, exp2_file, capsys, no_simulation):
        rc = main(["pdo-compare", "--scenario", exp2_file, "--cycles", "32000,80000"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: --cycles must be two integers HI,LO in ns with HI >= LO")


class TestCodec:
    def test_selftest(self, capsys):
        rc = main(["codec", "selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("ok: ")
        count = int(out.split()[1])
        assert count >= 10

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["codec", "roundtrip"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'roundtrip'" in capsys.readouterr().err


class TestNetctl:
    def write_commands(self, tmp_path, lines):
        path = tmp_path / "commands.jsonl"
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8"
        )
        return str(path)

    def test_full_session(self, tmp_path, capsys):
        commands = self.write_commands(tmp_path, [
            {"verb": "add-rule", "rule_id": "r1", "priority": 1,
             "service_tag": "storage"},
            {"verb": "inject-flows", "threshold_bps": 100_000_000, "flows": [
                {"flow_id": "f1", "src_tor": "a", "dst_tor": "b",
                 "rate_bps": 900_000_000},
                {"flow_id": "f2", "src_tor": "a", "dst_tor": "c",
                 "rate_bps": 1_000, "service_tag": "storage"},
            ]},
            {"verb": "allocate", "src_tor": "a", "dst_tor": "b"},
            {"verb": "activate", "path_id": 1},
            {"verb": "dump-table"},
            {"verb": "release", "path_id": 1},
        ])
        rc = main(["netctl", "exp1", commands])
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert rc == 0
        assert all(line["ok"] for line in lines)
        detected = lines[1]["detected"]
        assert {d["flow_id"]: d["mode"] for d in detected} == {
            "f1": "reactive", "f2": "proactive",
        }
        assert lines[2]["hops"] == [[0, 0, 1]]
        assert lines[3]["state"] == "Active"
        assert "." in lines[3]["config_time_us"]
        assert lines[4]["table"][0]["state"] == "Active"
        assert lines[5]["state"] == "Released"

    LONG = "x" * 100_000

    # a command-file value is quoted to 200 characters in the error line, and
    # so is the verb echoed in the line's "verb" field
    @pytest.mark.parametrize("commands, error, message", [
        ([{"verb": "allocate", "src_tor": [LONG], "dst_tor": "b"}],
         "WrongType", "src_tor has the wrong type: " + repr([LONG])[:200]),
        ([{"verb": "allocate", "src_tor": LONG, "dst_tor": LONG}],
         "ValueError", "src and dst must differ, both " + repr(LONG)[:200]),
        ([{"verb": "add-rule", "rule_id": LONG, "priority": 1},
          {"verb": "add-rule", "rule_id": LONG, "priority": 2}],
         "ValueError", "duplicate rule id " + repr(LONG)[:200]),
        ([{"verb": LONG}], "ValueError", "unknown verb " + repr(LONG)[:200]),
    ], ids=["wrong-type", "same-tor", "duplicate-rule", "unknown-verb"])
    def test_error_quotes_at_most_200_characters(self, tmp_path, capsys, commands, error,
                                                 message):
        rc = main(["netctl", "exp1", self.write_commands(tmp_path, commands)])
        last = capsys.readouterr().out.splitlines()[-1]
        assert rc == 1
        reply = json.loads(last)
        assert (reply["ok"], reply["error"], reply["message"]) == (False, error, message)
        assert reply["verb"] == commands[-1]["verb"][:200]
        assert len(last) < 700

    @pytest.mark.parametrize("verb", [["x" * 100_000], 10 ** 4000], ids=["list", "integer"])
    def test_verb_that_is_not_a_string_is_echoed_as_null(self, tmp_path, capsys, verb):
        # it is never a known verb, and its error message quotes it
        assert main(["netctl", "exp1", self.write_commands(tmp_path, [{"verb": verb}])]) == 1
        out = capsys.readouterr().out
        assert json.loads(out)["verb"] is None
        assert len(out) < 400

    def test_failures_set_exit_code(self, tmp_path, capsys):
        commands = self.write_commands(tmp_path, [
            {"verb": "release", "path_id": 99},
            {"verb": "no-such-verb"},
        ])
        rc = main(["netctl", "exp1", commands])
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert rc == 1
        assert [line["ok"] for line in lines] == [False, False]
        assert lines[0]["error"] == "UnknownPath"
        assert lines[1]["error"] == "ValueError"

    def test_wrong_json_types_fail_one_command_each(self, tmp_path, capsys):
        commands = self.write_commands(tmp_path, [
            [],
            {"verb": "inject-flows", "threshold_bps": "x", "flows": []},
            {"verb": "inject-flows", "threshold_bps": 5, "flows": [
                {"flow_id": "f", "src_tor": "a", "dst_tor": "b", "rate_bps": "9"}]},
            {"verb": "allocate", "src_tor": "a", "dst_tor": "b"},
            {"verb": "activate", "path_id": [1]},
            {"verb": "activate", "path_id": 1},
        ])
        rc = main(["netctl", "exp1", commands])
        out, err = capsys.readouterr()
        lines = [json.loads(l) for l in out.splitlines()]
        assert rc == 1
        assert "Traceback" not in err
        assert [line["ok"] for line in lines] == [False, False, False, True, False, True]
        assert [line["error"] for line in lines if not line["ok"]] == ["WrongType"] * 4
        assert lines[0]["verb"] is None
        assert lines[5]["state"] == "Active"  # the commands after the failures still ran

    def test_line_that_is_not_json_fails_alone(self, tmp_path, capsys):
        path = tmp_path / "commands.jsonl"
        path.write_text(
            "{oops\n" + "[" * 100_000 + "\n" + json.dumps({"verb": "dump-table"}) + "\n",
            encoding="utf-8",
        )
        rc = main(["netctl", "exp1", str(path)])
        out, err = capsys.readouterr()
        lines = [json.loads(l) for l in out.splitlines()]
        assert rc == 1
        assert "Traceback" not in err
        assert [line["ok"] for line in lines] == [False, False, True]
        assert [line["error"] for line in lines[:2]] == ["JSONDecodeError", "RecursionError"]
        assert lines[0]["verb"] is None
        assert lines[2]["table"] == []

    def test_line_that_is_not_utf8_fails_alone(self, tmp_path, capsys):
        path = tmp_path / "commands.jsonl"
        dump = json.dumps({"verb": "dump-table"}).encode()
        path.write_bytes(dump + b"\r\n\xff\xfe\r\n# \xff comment\r\n" + dump + b"\r\n")
        rc = main(["netctl", "exp1", str(path)])
        out, err = capsys.readouterr()
        lines = [json.loads(l) for l in out.splitlines()]
        assert rc == 1
        assert err == ""
        assert [line["ok"] for line in lines] == [True, False, False, True]
        assert [line["error"] for line in lines[1:3]] == ["UnicodeDecodeError"] * 2
        assert lines[1]["verb"] is None
        assert lines[3]["table"] == []

    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
    def test_unreadable_command_file_rejected(self, tmp_path, capsys, missing):
        path = tmp_path / "absent.jsonl" if missing else tmp_path
        rc = main(["netctl", "exp1", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: IoFailure: cannot read commands")

    def test_comments_and_blanks_skipped(self, tmp_path, capsys):
        path = tmp_path / "commands.jsonl"
        path.write_text(
            "# comment\n\n" + json.dumps({"verb": "dump-table"}) + "\n",
            encoding="utf-8",
        )
        rc = main(["netctl", "exp1", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(lines) == 1


class TestServe:
    def test_end_to_end_over_tcp(self):
        with subprocess.Popen(
            [sys.executable, "-m", "meowsim.cli", "serve",
             "--southbound", "127.0.0.1:0", "--scenario", "exp1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, bufsize=1,
        ) as proc:
            try:
                banner = proc.stdout.readline().strip()
                assert banner.startswith("southbound listening on 127.0.0.1:")
                port = int(banner.rsplit(":", 1)[1])
                with socket.create_connection(("127.0.0.1", port), timeout=10) as sock, \
                        sock.makefile("rb") as fh:
                    sock.sendall(json.dumps({
                        "type": "configure", "request_id": 1,
                        "targets": [{"segment": 0, "device": 7, "outputs": "0x0001"}],
                    }).encode("utf-8") + b"\n")
                    ack = json.loads(fh.readline())
                    done = json.loads(fh.readline())
                assert ack == {"request_id": 1, "type": "ack"}
                assert done["type"] == "complete"
                assert done["config_time_us"] == 116.0
            finally:
                proc.terminate()
                proc.wait(timeout=10)

    @pytest.mark.parametrize("address, message", [
        ("127.0.0.1:99999", "port must be an integer in 0..65535"),
        ("256.1.1.1:0", "'256.1.1.1' is not an IPv4 address"),
    ], ids=["port-out-of-range", "bad-ipv4"])
    def test_bad_address_rejected(self, capsys, address, message):
        assert main(["serve", "--southbound", address]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("address, message", [
        ("127.0.0.1:" + "p" * 50_000,
         "--southbound port must be an integer in 0..65535, got '" + "p" * 199),
        ("127.0.0.1:" + "9" * 5_000,  # past int()'s 4,300-digit limit
         "--southbound port must be an integer in 0..65535, got '" + "9" * 199),
        (".".join(["12"] * 25_000) + ":0",
         "--southbound host '" + "12." * 66 + "1 is not an IPv4 address"),
    ], ids=["long-port", "port-past-int-limit", "long-dotted-host"])
    def test_long_address_quoted_in_part(self, capsys, monkeypatch, address, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the address reached the network")

        monkeypatch.setattr("meowsim.cli.SouthboundServer", refuse)
        monkeypatch.setattr(socket, "getaddrinfo", refuse)
        monkeypatch.setattr(socket, "gethostbyname", refuse)
        assert main(["serve", "--southbound", address]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_port_with_leading_zeros_accepted(self):
        assert _parse_address("127.0.0.1:" + "0" * 5_000 + "80") == ("127.0.0.1", 80)
        assert _parse_address(":00000") == ("127.0.0.1", 0)

    def test_port_in_use_rejected(self, capsys):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            assert main(["serve", "--southbound", f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IoFailure: cannot listen on 127.0.0.1:")
