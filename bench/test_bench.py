"""Tests of the benchmark's own pieces: seeded workload text, the trace
cross-check, and the removal of the timing wrappers.

    python3 -m pytest -q bench
"""

import gc
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402


def small(name: str, seed: int = 1) -> pipeline.Workload:
    text = workloads.GENERATORS[name](seed, n_ue=6, n_enb=2, until_ms=40)
    return pipeline.Workload(name, seed, text=text)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_gives_same_text_and_another_seed_other_text(name):
    generate = workloads.GENERATORS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generated_config_is_valid_and_round_trips(name):
    work = pipeline.Workload(name, 3)  # raises CheckFailed otherwise
    assert work.spec.seed == 3
    assert work.zero_delay == (name != "desk_traced")


def test_cli_outputs_pass_their_checks_and_repeat(tmp_path):
    work = small("desk_traced")
    config = pipeline.write_config(work, tmp_path)
    first = pipeline.cli_rep(config, tmp_path)
    second = pipeline.cli_rep(config, tmp_path)
    assert first.events > 0
    assert first.digests == second.digests
    assert first.bytes_written == second.bytes_written > 0


def test_tampered_trace_line_fails_the_cross_check(tmp_path):
    work = small("desk_traced")
    rep = pipeline.cli_rep(pipeline.write_config(work, tmp_path), tmp_path)
    paper = tmp_path / "trace.txt"
    lines = paper.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = lines[5].replace("** Event #6 ", "** Event #60 ", 1)
    paper.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(pipeline.CheckFailed, match="differ at line 6"):
        pipeline.check_cli_outputs(tmp_path, rep.events)


def test_library_run_checks_the_oracle_total():
    work = small("metro")
    with pytest.raises(pipeline.CheckFailed, match="oracle expects"):
        pipeline.run_library(work, expected=1)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = [(owner, name, vars(owner)[name]) for owner, name, _ in layers.targets()]
    spans, pauses = layers.Spans(), layers.GcPauses()
    work = small("desk_traced")
    config = pipeline.write_config(work, tmp_path)
    with layers.installed(spans, pauses):
        assert all(vars(owner)[name] is not original for owner, name, original in before)
        rep = pipeline.cli_rep(config, tmp_path)
    assert all(vars(owner)[name] is original for owner, name, original in before)
    assert pauses not in gc.callbacks
    handled = sum(n for key, n in spans.calls.items() if key.startswith("lte_nodes."))
    assert handled == rep.events
    assert spans.calls["cli.main"] == 1


def test_wrappers_are_removed_when_the_traced_run_raises():
    before = [(owner, name, vars(owner)[name]) for owner, name, _ in layers.targets()]
    with pytest.raises(RuntimeError):
        with layers.installed(layers.Spans(), layers.GcPauses()):
            raise RuntimeError("handler failed")
    assert all(vars(owner)[name] is original for owner, name, original in before)
