"""One repetition of a workload through the public pipeline, and the
checks each repetition must pass.

Library workloads run `netconfig.parse` -> `validate` -> `build` ->
`BuiltNetwork.simulator` -> `Simulator.run`; the CLI workload runs
`cli.main` with file outputs. Every entry point is looked up as a module
attribute at call time, so the wrappers of `layers.installed` see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from lteadv_sim import cli, netconfig, trace

import workloads

CLI_WORKLOADS = {"desk_traced"}
OUTPUT_FILES = ("trace.txt", "trace.jsonl", "metrics.json")


class CheckFailed(Exception):
    """A repetition produced output that fails a correctness check."""


class Workload:
    """A seeded workload: its config text and parsed spec, checked once,
    outside any timed region."""

    def __init__(self, name: str, seed: int, text: Optional[str] = None):
        self.name = name
        self.seed = seed
        self.text = workloads.GENERATORS[name](seed) if text is None else text
        result = netconfig.parse(self.text)
        if not result.ok:
            raise CheckFailed(f"{name}: generated config does not parse: "
                              f"{result.diagnostics}")
        self.spec = result.spec
        again = netconfig.parse(netconfig.format_spec(self.spec))
        if again.spec != self.spec:
            raise CheckFailed(f"{name}: parse(format_spec(spec)) != spec")
        self.via_cli = name in CLI_WORKLOADS
        self.zero_delay = all(link.delay is None or link.delay.ns == 0
                              for link in self.spec.links)
        self.ues = len(trace.ue_instances(self.spec))


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    events: int
    events_per_s: float
    built: object = None
    digests: tuple = ()
    bytes_written: int = 0


def setup(work: Workload):
    """parse + validate + build + simulator(), from the config text."""
    result = netconfig.parse(work.text)
    spec = result.spec
    if not result.ok or netconfig.validate(spec):
        raise CheckFailed(f"{work.name}: config rejected")
    built = netconfig.build(spec)
    return spec, built, built.simulator()


def run_library(work: Workload, expected: Optional[int],
                sinks_for=lambda sim: ()) -> Rep:
    """One untraced library repetition; `expected` is the oracle's event
    total, checked when given."""
    t0 = time.perf_counter()
    spec, built, sim = setup(work)
    t1 = time.perf_counter()
    summary = sim.run(until=spec.until, sinks=list(sinks_for(sim)))
    t2 = time.perf_counter()
    if expected is not None and summary.events_executed != expected:
        raise CheckFailed(f"{work.name}: {summary.events_executed} events, "
                          f"oracle expects {expected}")
    return Rep(t1 - t0, t2 - t0, summary.events_executed,
               summary.events_executed / summary.wall_clock_seconds, built)


def write_config(work: Workload, workdir: Path) -> Path:
    path = workdir / "config.net"
    path.write_text(work.text, encoding="utf-8")
    return path


def run_cli(config: Path, workdir: Path) -> tuple[float, int, float]:
    """`cli.main` with paper, structured and metrics outputs in workdir.
    Returns (wall seconds, events, events per second of Simulator.run)."""
    paper, structured, metrics = (workdir / f for f in OUTPUT_FILES)
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(config), "--quiet",
                         "--trace-out", str(paper),
                         "--structured-out", str(structured),
                         "--metrics-out", str(metrics)])
    wall = time.perf_counter() - t0
    if code != 0:
        raise CheckFailed(f"cli exit code {code}: {err.getvalue().strip()}")
    summary = dict(line.split(":", 1) for line in err.getvalue().splitlines())
    events = int(summary["events executed"])
    run_s = float(summary["wall clock"].split()[0])
    return wall, events, events / run_s


def check_cli_outputs(workdir: Path, events: int) -> tuple[tuple, int]:
    """Check the CLI's three outputs; return the digests and total size of
    the two traces.

    The metrics must show no path mismatch and no drop, and the structured
    trace, read back and re-rendered in the console format, must equal
    the paper trace byte for byte."""
    paper, structured, metrics = (workdir / f for f in OUTPUT_FILES)
    report = json.loads(metrics.read_text(encoding="utf-8"))
    if report["path_mismatches"]:
        raise CheckFailed(f"path mismatches: {report['path_mismatches'][:3]}")
    if report["drops"]:
        raise CheckFailed(f"drops: {report['drops']}")
    if report["total_events"] != events:
        raise CheckFailed(f"metrics count {report['total_events']} events, "
                          f"the run {events}")
    paper_bytes = paper.read_bytes()
    structured_bytes = structured.read_bytes()
    records = trace.read_structured(structured_bytes.decode("utf-8").splitlines())
    rendered = "".join(trace.format_event_line(rec) + "\n" for rec in records)
    if rendered.encode("utf-8") != paper_bytes:
        got = paper_bytes.decode("utf-8").splitlines()
        want = rendered.splitlines()
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                   min(len(got), len(want)))
        raise CheckFailed(f"paper trace and re-rendered structured trace "
                          f"differ at line {bad + 1}")
    if len(records) != events:
        raise CheckFailed(f"{len(records)} trace records, {events} events")
    digests = (hashlib.sha256(paper_bytes).hexdigest(),
               hashlib.sha256(structured_bytes).hexdigest())
    # the metrics file holds a wall-clock rate, so only the traces count
    return digests, len(paper_bytes) + len(structured_bytes)


def cli_rep(config: Path, workdir: Path) -> Rep:
    """One CLI repetition plus its output checks. Setup time is not
    visible from outside cli.main: setup_s is left at 0."""
    wall, events, rate = run_cli(config, workdir)
    digests, size = check_cli_outputs(workdir, events)
    return Rep(0.0, wall, events, rate, digests=digests, bytes_written=size)
