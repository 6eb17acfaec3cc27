"""Front-end behavior: arguments, exit codes, emitted files."""

import json

import pytest

from hybridgc import cli, harness
from hybridgc.cli import main
from hybridgc.harness import CSV_COLUMNS
from hybridgc.workloads import load_trace


def test_lifetime_for_known_rates(capsys):
    assert main(["lifetime", "480000000"]) == 0
    assert capsys.readouterr().out == "10.5627\n"
    assert main(["lifetime", "126000000"]) == 0
    assert capsys.readouterr().out == "40.2388\n"


def test_lifetime_honors_model_overrides(capsys):
    # half the endurance, half the life
    assert main(["lifetime", "480000000", "--endurance", "5e6"]) == 0
    assert capsys.readouterr().out == "5.2813\n"


@pytest.mark.parametrize(
    "argv", [["nan"], ["inf"], ["1000", "--endurance", "nan"], ["1000", "--endurance", "inf"]]
)
def test_lifetime_rejects_non_finite_inputs(capsys, argv):
    assert main(["lifetime", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_lifetime_rejects_a_capacity_too_large_for_a_float(capsys):
    assert main(["lifetime", "100", "--capacity", "9" * 400]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "pair", "sweep"])
@pytest.mark.parametrize("option", ["--nursery", "--budget", "--cache"])
def test_a_bad_size_option_is_a_usage_error(capsys, command, option):
    # parse_size runs inside argparse; its error used to escape as a traceback with exit 1
    assert main([command, "--seed", "1", option, "4XB"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown size suffix 'XB' in '4XB'\n"


def test_seed_is_mandatory(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--collector", "KG-N"])
    assert err.value.code == 2


def test_unknown_collector_is_a_usage_error(capsys):
    assert main(["run", "--collector", "KG-X", "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_emits_json_to_stdout(capsys):
    code = main(["run", "--collector", "KG-N", "--seed", "3", "--ops", "5000"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["collector"] == "KG-N"
    assert payload["failed"] is False
    assert payload["aggregate"]["ops_executed"] == 5000


def test_run_emits_csv_to_a_file(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "run",
            "--collector",
            "PCM-Only",
            "--seed",
            "2",
            "--ops",
            "3000",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_gen_trace_round_trips(tmp_path):
    out = tmp_path / "g.trace"
    code = main(
        ["gen-trace", "--archetype", "large-object-graph", "--seed", "2", "--ops", "300", "--out", str(out)]
    )
    assert code == 0
    assert len(load_trace(str(out))) == 300


def test_run_replays_a_trace_file(tmp_path, capsys):
    trace = tmp_path / "g.trace"
    main(["gen-trace", "--archetype", "nursery-churn", "--seed", "9", "--ops", "400", "--out", str(trace)])
    capsys.readouterr()
    code = main(["run", "--collector", "KG-W", "--seed", "1", "--trace", str(trace)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"]["ops_executed"] == 400
    assert payload["instances"][0]["workload"] == str(trace)


@pytest.mark.parametrize("command", ["run", "pair", "sweep"])
def test_replay_rejects_an_op_count(tmp_path, capsys, command):
    trace = tmp_path / "two.trace"
    trace.write_text("A 1 64 0 0\nG 1\n")
    out_dir = tmp_path / "results"
    extra = ["--out-dir", str(out_dir)] if command == "sweep" else []
    code = main([command, "--collector", "KG-N", "--seed", "1", "--trace", str(trace), "--ops", "5", *extra])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: --ops" in captured.err
    assert not out_dir.exists()


def test_failed_replay_exits_one(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("A 1 64 0 0\nW 99 0 8\n")
    code = main(["run", "--collector", "KG-N", "--seed", "1", "--trace", str(trace)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True
    assert payload["error"]["op_index"] == 1


def test_trace_that_is_not_utf8_exits_two(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_bytes(b"A 1 64 0 0\nG 1\nW 1 0 \xff\n")
    code = main(["run", "--collector", "KG-N", "--seed", "1", "--trace", str(trace)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line 3: ") and "UTF-8" in err and "Traceback" not in err


def test_pair_reports_against_the_baseline(capsys):
    code = main(["pair", "--collector", "KG-N", "--seed", "4", "--ops", "4000"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["collector"] == "KG-N"
    assert payload["baseline_collector"] == "PCM-Only"
    assert payload["reduction_vs_baseline"] is not None


def test_sweep_writes_one_file_per_point(tmp_path, capsys):
    # out-dir does not exist yet; sweep should create it
    code = main(
        [
            "sweep",
            "--seed",
            "2",
            "--ops",
            "2000",
            "--collectors",
            "PCM-Only",
            "KG-N",
            "--cache-sizes",
            "0",
            "64KiB",
            "--out-dir",
            str(tmp_path / "results"),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "results").iterdir())
    assert names == [
        "KG-N_cache0_n1.json",
        "KG-N_cache65536_n1.json",
        "PCM-Only_cache0_n1.json",
        "PCM-Only_cache65536_n1.json",
    ]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(": ok pcm_write_bytes=" in line for line in lines)
    report = json.loads((tmp_path / "results" / "KG-N_cache65536_n1.json").read_text())
    assert report["collector"] == "KG-N" and report["config"]["cache_capacity"] == 64 * 1024
    assert f"KG-N_cache65536_n1: ok pcm_write_bytes={report['aggregate']['pcm_write_bytes']}" in lines


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--collector", "KG-N", "--seed", "1", "--ops", "0"],
        ["gen-trace", "--archetype", "large-object-graph", "--seed", "1", "--ops", "0"],
    ],
)
def test_zero_ops_is_rejected_not_defaulted(tmp_path, capsys, argv):
    out = tmp_path / "zero.trace"
    extra = ["--out", str(out)] if argv[0] == "gen-trace" else []
    assert main([*argv, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "op_count must be positive" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "1", "--trace", "{missing}/x.trace"],
        ["run", "--seed", "1", "--ops", "1000", "--out", "{missing}/x.json"],
        ["gen-trace", "--archetype", "nursery-churn", "--seed", "1", "--ops", "10", "--out", "{missing}/x.trace"],
        ["pair", "--seed", "1", "--ops", "1000", "--out", "{missing}/x.json"],
    ],
)
def test_unreadable_or_unwritable_paths_exit_two(tmp_path, capsys, monkeypatch, argv):
    ran = []
    if "--out" in argv:  # an output that cannot be opened costs no run
        monkeypatch.setattr(harness, "run_experiment", ran.append)
        monkeypatch.setattr(cli, "run_experiment", ran.append)
    missing = tmp_path / "missing"
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    assert ran == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


def test_sweep_makes_its_out_dir_before_any_point_runs(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")  # a file cannot hold the results directory
    ran = []
    monkeypatch.setattr(harness, "run_experiment", ran.append)
    monkeypatch.setattr(cli, "run_experiment", ran.append)
    argv = ["sweep", "--seed", "1", "--ops", "1000", "--collectors", "KG-N", "--out-dir", str(blocker / "results")]
    assert main(argv) == 2
    assert ran == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_sweep_rejects_a_bad_point_before_it_makes_its_out_dir(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_experiment", ran.append)
    out_dir = tmp_path / "d"
    # 1000 B is no whole number of 16-way sets of 64 B lines; 2XB is no size at all
    for size, error in (("1000", "error: "), ("2XB", "error: unknown size suffix 'XB' in '2XB'\n")):
        argv = ["sweep", "--seed", "1", "--ops", "100", "--collectors", "KG-N", "--cache-sizes", "64KiB", size,
                "--out-dir", str(out_dir)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(error)
        assert not out_dir.exists()
    assert ran == []


def test_sweep_rejects_a_repeated_point_before_it_makes_its_out_dir(tmp_path, capsys):
    # 1MiB and 1048576 are one cache size, and the instance count repeats
    out_dir = tmp_path / "d"
    argv = ["sweep", "--seed", "1", "--ops", "2000", "--collectors", "KG-W", "--cache-sizes", "1MiB", "1048576",
            "--instance-counts", "1", "1", "--out-dir", str(out_dir)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: sweep point KG-W_cache1048576_n1 repeats an earlier point\n"
    assert not out_dir.exists()


def test_sweep_reports_a_failed_point_and_exits_one(tmp_path, capsys):
    # a budget of one nursery cannot hold mature-mutation's resident set
    argv = ["sweep", "--seed", "1", "--archetype", "mature-mutation", "--ops", "5000", "--nursery", "64KiB",
            "--budget", "64KiB", "--collectors", "PCM-Only", "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("PCM-Only_cache20971520_n1: FAILED pcm_write_bytes=")
    report = json.loads((tmp_path / "PCM-Only_cache20971520_n1.json").read_text())
    assert report["failed"] is True and report["error"]["message"].startswith("HeapExhausted: ")


@pytest.mark.parametrize("out_args", [["--out", "{tmp}/x.json"], ["--out={tmp}/x.json"]])
def test_sweep_rejects_out(tmp_path, capsys, out_args):
    # a sweep writes one file per point under --out-dir; --out is no abbreviation of it
    argv = ["sweep", "--seed", "1", "--ops", "2000", "--collectors", "KG-W", *out_args,
            "--out-dir", str(tmp_path / "d")]
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --out" in err
    assert sorted(tmp_path.iterdir()) == []


def test_sweep_writes_and_prints_each_point_as_it_ends(tmp_path, capsys, monkeypatch):
    seen = []
    run = harness.run_experiment

    def spy(config):
        # what the sweep has left behind when this point starts
        seen.append((sorted(p.name for p in tmp_path.iterdir()), capsys.readouterr().out))
        return run(config)

    monkeypatch.setattr(harness, "run_experiment", spy)
    argv = ["sweep", "--seed", "2", "--ops", "1000", "--collectors", "PCM-Only", "KG-N", "--cache-sizes", "0",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert seen[0] == ([], "")
    assert seen[1][0] == ["PCM-Only_cache0_n1.json"]
    assert seen[1][1].startswith("PCM-Only_cache0_n1: ok pcm_write_bytes=")
    assert capsys.readouterr().out.startswith("KG-N_cache0_n1: ok pcm_write_bytes=")


def test_run_sizes_reach_the_report_config(capsys):
    argv = ["run", "--collector", "KG-N", "--seed", "1", "--ops", "500", "--nursery", "128KiB", "--budget", "2MiB",
            "--cache", "64KiB"]
    assert main(argv) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["nursery_size"], config["heap_budget"], config["cache_capacity"]) == (128 * 1024, 2 << 20, 64 * 1024)


def test_gen_trace_writes_stdout_as_it_writes_out(tmp_path, capsys):
    argv = ["gen-trace", "--archetype", "large-object-graph", "--seed", "2", "--ops", "300"]
    out = tmp_path / "g.trace"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("command", ["run", "pair"])
@pytest.mark.parametrize("earlier", [None, "an earlier report\n"])
def test_a_run_that_raises_leaves_out_as_it_was(tmp_path, capsys, command, earlier):
    trace = tmp_path / "bad.trace"
    trace.write_text("A 1 64 0 0\nQ 1\n")
    out = tmp_path / "report.json"
    if earlier is not None:
        out.write_text(earlier)
    argv = [command, "--collector", "KG-N", "--seed", "1", "--trace", str(trace), "--out", str(out)]
    assert main(argv) == 2
    assert "error: line 2: " in capsys.readouterr().err
    assert (out.read_text() if out.exists() else None) == earlier


def test_out_may_replace_the_trace_it_replays(tmp_path, capsys):
    trace = tmp_path / "one.trace"
    trace.write_text("A 1 64 0 0\nG 1\nU 1\n")
    assert main(["run", "--collector", "KG-N", "--seed", "1", "--trace", str(trace), "--out", str(trace)]) == 0
    assert json.loads(trace.read_text())["aggregate"]["ops_executed"] == 3


def test_out_replaces_a_longer_earlier_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    out.write_text("~" * 100_000)
    assert main(["run", "--collector", "KG-N", "--seed", "1", "--ops", "500", "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "~" not in out.read_text()
