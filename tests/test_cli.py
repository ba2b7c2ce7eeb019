"""CLI tests: flags, exit codes, output files, env-selected console format."""

import errno
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from lteadv_sim import cli, netconfig
from lteadv_sim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main

FIXTURES = Path(__file__).parent / "fixtures"
MINIMAL = str(FIXTURES / "minimal.net")


def test_run_writes_trace_file(tmp_path, capsys):
    out = tmp_path / "t.log"
    code = main(["--config", MINIMAL, "--until", "1s", "--trace-out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("** Event #1 T=0")
    assert len(lines) == 3899
    captured = capsys.readouterr()
    assert captured.out == ""  # file output given: no console trace
    assert "events executed: 3899" in captured.err


def test_missing_config_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage:" in capsys.readouterr().err


def test_bad_duration_is_usage_error(capsys):
    assert main(["--config", MINIMAL, "--until", "fast"]) == EXIT_USAGE


@pytest.mark.parametrize("until, reason", [
    ("\u0661\u0660ms", "bad duration '\u0661\u0660ms': 1:1: unexpected character '\u0661'"),
    ("0s", "must be positive"),
])
def test_until_takes_the_config_grammar_and_must_be_positive(until, reason, capsys):
    assert main(["--config", MINIMAL, "--until", until]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        f"lteadv-sim: error: argument --until: {reason}\n")


def test_time_overflow_in_a_handler_is_a_runtime_error(tmp_path, capsys):
    config = tmp_path / "overflow.net"
    config.write_text(
        "network N {\n"
        "    ue u; enb e; sgw_mme s; pdn_gw p;\n"
        "    attach u -> e;\n"
        "    generator on u { period 9223372036854775807ns; start 1ns; }\n"
        "    run until 9223372036854775807ns;\n"
        "}\n")
    assert main(["--config", str(config), "--quiet"]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "lteadv-sim: error: event #38 at N.u.generator: "
        "simulation time overflows 64 bits: 9223372036854775808 ns\n")


def test_handler_failure_in_a_traced_run_leaves_every_event_traced(tmp_path, capsys):
    # the run holds its events for the trace sinks and hands them over
    # before the handler's error leaves it: both traces end at event #38
    config = tmp_path / "overflow.net"
    config.write_text(
        "network N {\n"
        "    ue u; enb e; sgw_mme s; pdn_gw p;\n"
        "    attach u -> e;\n"
        "    generator on u { period 9223372036854775807ns; start 1ns; }\n"
        "    run until 9223372036854775807ns;\n"
        "}\n")
    paper, structured = tmp_path / "t.log", tmp_path / "t.jsonl"
    assert main(["--config", str(config), "--trace-out", str(paper),
                 "--structured-out", str(structured)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "lteadv-sim: error: event #38 at N.u.generator: "
        "simulation time overflows 64 bits: 9223372036854775808 ns\n")
    paper_lines = paper.read_text().splitlines()
    assert len(paper_lines) == 38
    assert paper_lines[-1].startswith("** Event #38 T=0.000000001 N.u.generator ")
    structured_lines = structured.read_text().splitlines()
    assert len(structured_lines) == 38
    assert json.loads(structured_lines[-1])["event_no"] == 38


def test_unreadable_config_is_config_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.net")]) == EXIT_CONFIG


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.net"
    config.write_bytes(b"network N {\n  ue u; \xff\xfe\n}\n")
    assert main(["--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "lteadv-sim: error: cannot read config: 'utf-8' codec can't decode "
        "byte 0xff in position 20: invalid start byte\n")


def test_two_pdn_gw_config_rejected_with_location(capsys):
    code = main(["--config", str(FIXTURES / "bad_two_pdn.net")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad_two_pdn.net:6:5: error:" in err
    assert "exactly one pdn_gw" in err


def test_unclosed_bracket_config_rejected_with_location(capsys):
    code = main(["--config", str(FIXTURES / "bad_unclosed.net")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad_unclosed.net:2:9: error:" in err


def test_dangling_selector_config_rejected(capsys):
    code = main(["--config", str(FIXTURES / "bad_dangling.net")])
    assert code == EXIT_CONFIG
    assert "dangling" in capsys.readouterr().err


def test_config_breaking_two_rules_prints_both_diagnostics(tmp_path, capsys):
    config = tmp_path / "two_rules.net"
    config.write_text(
        "network N {\n"
        "    ue u[2];\n"
        "    enb e;\n"
        "    sgw_mme s;\n"
        "    pdn_gw p;\n"
        "    pdn_gw q;\n"
        "    attach u[0..1] -> e;\n"
        "    attach u[7] -> e;\n"
        "    run until 1s;\n"
        "}\n")
    assert main(["--config", str(config)]) == EXIT_CONFIG == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{config}:6:5: error: network needs exactly one pdn_gw, found 2\n"
        f"{config}:8:5: error: attach: dangling ue selector u[7]\n")


def test_rules_pass_runs_once_per_invocation(monkeypatch, capsys):
    calls = []
    real = netconfig.instance_table

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(netconfig, "instance_table", counting)
    assert main(["--config", MINIMAL, "--until", "1ns", "--quiet"]) == EXIT_OK
    assert len(calls) == 1


def test_console_trace_by_default(capsys):
    code = main(["--config", MINIMAL, "--until", "1ns"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("** Event #1 T=0 Network.ue.lte_nas")
    assert len(out.splitlines()) == 38


def test_quiet_suppresses_console_but_not_files(tmp_path, capsys):
    out = tmp_path / "t.log"
    code = main(["--config", MINIMAL, "--until", "1ns", "--quiet",
                 "--trace-out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert len(out.read_text().splitlines()) == 38

    code = main(["--config", MINIMAL, "--until", "1ns", "--quiet"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_env_selects_structured_console(capsys, monkeypatch):
    monkeypatch.setenv("LTEADV_SIM_TRACE", "structured")
    code = main(["--config", MINIMAL, "--until", "1ns"])
    assert code == EXIT_OK
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith('{"event_no": 1')


def test_env_both_emits_two_streams(capsys, monkeypatch):
    monkeypatch.setenv("LTEADV_SIM_TRACE", "both")
    code = main(["--config", MINIMAL, "--until", "1ns"])
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 76


def test_env_both_writes_each_events_two_lines_together(capsys, monkeypatch):
    # over several chunks of the run's batches, each event's console line
    # is followed by its structured record
    monkeypatch.setenv("LTEADV_SIM_TRACE", "both")
    assert main(["--config", MINIMAL, "--event-limit", "1100"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 1100
    for no, (paper, structured) in enumerate(zip(lines[::2], lines[1::2]), start=1):
        assert paper.startswith(f"** Event #{no} T=")
        assert json.loads(structured)["event_no"] == no


def test_env_invalid_value(capsys, monkeypatch):
    monkeypatch.setenv("LTEADV_SIM_TRACE", "fancy")
    assert main(["--config", MINIMAL, "--until", "1ns"]) == EXIT_USAGE


def test_metrics_out(tmp_path):
    metrics_path = tmp_path / "m.json"
    code = main(["--config", MINIMAL, "--metrics-out", str(metrics_path)])
    assert code == EXIT_OK
    blob = json.loads(metrics_path.read_text())
    assert blob["round_trips"] == 100
    assert blob["total_events"] == 3899
    assert blob["path_mismatches"] == []


OUTPUT_FLAGS = ("--trace-out", "--structured-out", "--metrics-out")


@pytest.mark.parametrize("bad_flag", OUTPUT_FLAGS)
def test_unopenable_output_is_usage_error_before_the_run(bad_flag, tmp_path, capsys):
    bad = tmp_path / "no" / "such" / "dir" / "out.txt"
    argv = ["--config", MINIMAL]
    for flag in OUTPUT_FLAGS:
        argv += [flag, str(bad if flag == bad_flag else tmp_path / flag.strip("-"))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main(argv)
        gc.collect()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"lteadv-sim: error: cannot open output {bad}: No such file or directory\n"
    # the outputs opened before the bad one were closed, and none was written
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    for flag in OUTPUT_FLAGS[:OUTPUT_FLAGS.index(bad_flag)]:
        assert (tmp_path / flag.strip("-")).read_text() == ""


@pytest.mark.parametrize("flag", OUTPUT_FLAGS)
def test_an_empty_output_path_is_a_usage_error_before_any_file_is_read(flag, tmp_path, capsys):
    # the config does not exist: reading it would exit 2, not 64
    missing = tmp_path / "missing.net"
    assert main(["--config", str(missing), flag, "", "--quiet"]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        f"lteadv-sim: error: argument {flag}: must name a file\n")
    assert list(tmp_path.iterdir()) == []


def test_an_output_naming_the_config_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "v.net"
    config.write_text(Path(MINIMAL).read_text())
    (tmp_path / "link.net").symlink_to(config)
    for same in (str(config), f"{tmp_path}/./v.net", str(tmp_path / "link.net")):
        assert main(["--config", str(config), "--metrics-out", same, "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "lteadv-sim: error: --metrics-out names the same file as --config\n")
    assert config.read_text() == Path(MINIMAL).read_text()


def test_one_path_for_several_outputs_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--config", MINIMAL]
    for flag in OUTPUT_FLAGS:
        argv += [flag, str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "lteadv-sim: error: --structured-out names the same file as --trace-out\n")
    assert not out.exists()
    # a file that exists already is not truncated either
    out.write_text("kept\n")
    assert main(["--config", MINIMAL, "--trace-out", str(out),
                 "--metrics-out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "lteadv-sim: error: --metrics-out names the same file as --trace-out\n")
    assert out.read_text() == "kept\n"


NO_SPACE = "lteadv-sim: error: cannot write output: No space left on device\n"


class _FullDisk(io.StringIO):
    """An output on a full disk: it fails on every write, or, when it
    buffers, when it is closed and flushes. Like a real file, a close
    that fails still closes it, so a second close does nothing."""

    def __init__(self, fails_on):
        super().__init__()
        self.fails_on = fails_on

    def _fail(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.fails_on == "write":
            self._fail()
        return super().write(text)

    def close(self):
        if self.closed:
            return
        super().close()
        if self.fails_on == "close":
            self._fail()


def _open_full_disk(monkeypatch, path, fails_on):
    def fake_open(file, *args, **kwargs):
        if str(file) == str(path):
            return _FullDisk(fails_on)
        return open(file, *args, **kwargs)
    monkeypatch.setattr(cli, "open", fake_open, raising=False)


@pytest.mark.parametrize("flag", ["--trace-out", "--structured-out"])
def test_failed_sink_write_is_a_runtime_error(flag, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    _open_full_disk(monkeypatch, out, "write")
    assert main(["--config", MINIMAL, flag, str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == NO_SPACE


def test_failed_close_time_flush_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    trace_path, metrics_path = tmp_path / "t.log", tmp_path / "m.json"
    _open_full_disk(monkeypatch, metrics_path, "close")
    assert main(["--config", MINIMAL, "--trace-out", str(trace_path),
                 "--metrics-out", str(metrics_path)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == NO_SPACE
    # the outputs beside the failed one are still closed, whole
    assert len(trace_path.read_text().splitlines()) == 3899


def test_broken_stdout_stream_is_a_runtime_error(monkeypatch, capsys):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert main(["--config", MINIMAL]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "lteadv-sim: error: cannot write output: Broken pipe\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("flag", OUTPUT_FLAGS)
def test_full_device_output_is_a_runtime_error(flag, capsys):
    # the traces fail mid-run, the metrics only when the file is closed
    assert main(["--config", MINIMAL, flag, "/dev/full"]) == EXIT_RUNTIME
    assert capsys.readouterr().err == NO_SPACE


def test_closed_stdout_pipe_exits_without_a_traceback(tmp_path):
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "lteadv_sim", "--config", MINIMAL],
                                stdout=subprocess.PIPE, stderr=err)
        # the trace (about 330 kB) outgrows the pipe, so the run is still
        # writing when the reader goes away
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_RUNTIME
    assert first.startswith(b"** Event #1 T=0 ")
    assert err_path.read_text() == "lteadv-sim: error: cannot write output: Broken pipe\n"


def test_seed_override_lands_in_summary(tmp_path, capsys):
    code = main(["--config", MINIMAL, "--until", "1ns", "--seed", "99", "--quiet"])
    assert code == EXIT_OK
    assert "seed:            99" in capsys.readouterr().err
    # the config's seed, or 0 with none, when no --seed overrides it
    seeded = tmp_path / "seeded.net"
    seeded.write_text(Path(MINIMAL).read_text().replace("run until", "seed 7; run until"))
    for config, extra, seed in ((seeded, [], 7), (seeded, ["--seed", "99"], 99),
                                (MINIMAL, [], 0)):
        assert main(["--config", str(config), "--until", "1ns", "--quiet", *extra]) == EXIT_OK
        assert f"\nseed:            {seed}\n" in capsys.readouterr().err


def test_negative_seed_is_usage_error(capsys):
    assert main(["--config", MINIMAL, "--seed", "-3", "--quiet"]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        "lteadv-sim: error: argument --seed: must be a non-negative integer\n")
    assert main(["--config", MINIMAL, "--until", "1ns", "--seed", "0", "--quiet"]) == EXIT_OK


@pytest.mark.parametrize("flag, value, reason", [
    ("--event-limit", "abc", "must be a positive integer"),
    ("--event-limit", "1.5", "must be a positive integer"),
    ("--event-limit", "0", "must be a positive integer"),
    ("--seed", "x1", "must be a non-negative integer"),
    # an integer is ASCII digits only, as in the config grammar
    ("--event-limit", "\u0663", "must be a positive integer"),  # ARABIC-INDIC DIGIT THREE
    ("--event-limit", " 5", "must be a positive integer"),
    ("--event-limit", "5 ", "must be a positive integer"),
    ("--event-limit", "1_0", "must be a positive integer"),
    ("--event-limit", "+5", "must be a positive integer"),
    ("--event-limit", "", "must be a positive integer"),
    ("--event-limit", "\u00b2", "must be a positive integer"),  # SUPERSCRIPT TWO
    ("--seed", "\u0663", "must be a non-negative integer"),
    ("--seed", "\uff17", "must be a non-negative integer"),  # FULLWIDTH DIGIT SEVEN
    ("--seed", "1_0", "must be a non-negative integer"),
    ("--seed", " 7", "must be a non-negative integer"),
    ("--seed", "9" * 5000, "must be a non-negative integer"),  # past int()'s digit limit
])
def test_non_integer_count_is_usage_error_naming_the_option(flag, value, reason, capsys):
    assert main(["--config", MINIMAL, flag, value, "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith(f"lteadv-sim: error: argument {flag}: {reason}\n")
    assert "_" not in err


def test_until_override_wins_over_config(tmp_path, capsys):
    out = tmp_path / "t.log"
    code = main(["--config", MINIMAL, "--until", "20ms", "--trace-out", str(out)])
    assert code == EXIT_OK
    # two trips plus one timer event
    assert len(out.read_text().splitlines()) == 2 * 38 + 1


def test_event_limit(tmp_path, capsys):
    out = tmp_path / "t.log"
    code = main(["--config", MINIMAL, "--event-limit", "10", "--trace-out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 10
    assert "stop reason:     EventLimit" in capsys.readouterr().err


def test_identical_invocations_identical_files(tmp_path):
    paths = []
    for i in range(2):
        t = tmp_path / f"t{i}.log"
        s = tmp_path / f"s{i}.ndjson"
        assert main(["--config", MINIMAL, "--trace-out", str(t),
                     "--structured-out", str(s)]) == EXIT_OK
        paths.append((t.read_bytes(), s.read_bytes()))
    assert paths[0] == paths[1]


def test_python_dash_m_entry_point(tmp_path):
    out = tmp_path / "t.log"
    proc = subprocess.run(
        [sys.executable, "-m", "lteadv_sim",
         "--config", MINIMAL, "--until", "1ns", "--trace-out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0].startswith("** Event #1")
    assert "events executed: 38" in proc.stderr


def test_python_dash_m_usage_error_exit_64():
    proc = subprocess.run([sys.executable, "-m", "lteadv_sim"],
                          capture_output=True, text=True)
    assert proc.returncode == 64


def test_until_flag_supplies_missing_config_horizon(tmp_path, capsys):
    config = tmp_path / "no_until.net"
    config.write_text(
        "network N {\n"
        "    ue u; enb e; sgw_mme s; pdn_gw p;\n"
        "    attach u -> e;\n"
        "    generator on u { }\n"
        "}\n")
    assert main(["--config", str(config)]) == EXIT_CONFIG  # no horizon anywhere
    capsys.readouterr()
    assert main(["--config", str(config), "--until", "1ns", "--quiet"]) == EXIT_OK
    assert "events executed: 38" in capsys.readouterr().err


def _metrics_file_matches_reference(tmp_path, config, *flags):
    """Run with structured and metrics outputs; compare every metrics key
    but the wall-clock rate with the reference summarize of the trace read
    back. Returns the metrics file's contents."""
    from lteadv_sim import parse, read_structured
    from reference_summarize import summarize as reference_summarize
    structured = tmp_path / "s.ndjson"
    metrics_path = tmp_path / "m.json"
    assert main(["--config", str(config), "--structured-out", str(structured),
                 "--metrics-out", str(metrics_path), *flags]) == EXIT_OK
    records = read_structured(structured.read_text().splitlines())
    spec = parse(Path(config).read_text()).spec
    blob = json.loads(metrics_path.read_text())
    recomputed = reference_summarize(records, spec).to_json_dict()
    assert blob.pop("events_per_wall_second") > 0
    assert recomputed.pop("events_per_wall_second") is None
    assert json.dumps(blob) == json.dumps(recomputed)  # key order included
    return blob


def test_structured_file_round_trips_into_metrics(tmp_path):
    blob = _metrics_file_matches_reference(tmp_path, MINIMAL)
    assert blob["round_trips"] == 100
    assert blob["total_events"] == 3899


def test_metrics_file_of_a_run_stopped_mid_trip(tmp_path):
    # delayed.net stopped after 1,000 of its 4,674 events: messages are in
    # flight, so prefixes must not count as trips or mismatches
    blob = _metrics_file_matches_reference(tmp_path, FIXTURES / "delayed.net",
                                           "--event-limit", "1000")
    assert blob["total_events"] == 1000
    assert blob["path_mismatches"] == []
    assert 0 < blob["round_trips"] < len(blob["per_message_hops"])


def test_metrics_out_streams_without_collecting_records(tmp_path, monkeypatch):
    from lteadv_sim import trace

    def no_collector():
        raise AssertionError("cli.main built a CollectingSink")

    monkeypatch.setattr(trace, "CollectingSink", no_collector)
    metrics_path = tmp_path / "m.json"
    assert main(["--config", MINIMAL, "--quiet", "--metrics-out", str(metrics_path)]) == EXIT_OK
    assert json.loads(metrics_path.read_text())["round_trips"] == 100
