"""Benchmark of the lteadv_sim pipeline: config text -> parse -> validate ->
build -> simulator -> run -> sinks / summarize.

    python3 bench/run.py --workload {desk,desk_traced,metro} --seed N \\
                         --seconds S --trace {0,1}

The seed generates the workload's `.net` text (see workloads.py); the
simulator sees only that text. Repetitions run back to back for S
seconds, each checked for correctness. Metric names, units and the
reasons for each workload are in BENCHMARK.json at the repository root.

--trace 0 measures the end-to-end metrics with nothing instrumented:
medians over the repetitions of host seconds and events per host second,
plus the peak RSS of one repetition in a fresh subprocess.
--trace 1 alternates untraced repetitions with repetitions under the
timing wrappers of layers.py and reports the per-layer metrics: medians
over the traced repetitions, and the deterministic counts of one extra
repetition through a FES-sampling sink.

Stdout is a table of metrics with their units, then, as the last line,
one JSON object with keys correct, attempted, failed and metrics. An
operation is one repetition; it fails if it raises or fails a check.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "lteadv_sim" / "__init__.py").is_file():
    sys.exit(f"bench: no simulator sources at {SRC / 'lteadv_sim'}; "
             "run from a full checkout of the repository")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402
from lteadv_sim import trace  # noqa: E402
from lteadv_sim.traffic import Generator  # noqa: E402

MIN_REPS = 3
# Host speed on a shared machine drifts by a fifth or more over minutes:
# 25 s medians of one desk repetition ranged over 1.37-1.69 s on a 2-vCPU
# VM. Each timed repetition is therefore paired with a reference loop that
# runs no simulator code, and end-to-end times are rescaled to a host on
# which that loop takes REFERENCE_NOMINAL_S. This cut the spread of 25 s
# medians from 18% to 6% of their median on that machine.
REFERENCE_EVENTS = 150_000
REFERENCE_NOMINAL_S = 0.1
RSS_PROBE_TIMEOUT_S = 120
LAYER_TYPES = ("lte_nas", "lte_rrc", "lte_pdcp", "lte_rlc", "lte_mac",
               "lte_phy", "lte_radio", "lte_gtp", "lte_s1", "lte_s5",
               "lte_ip", "generator")
# UE layers strictly between NAS and PHY: each sees a completed round trip
# exactly twice, once going down and once coming back up.
UE_INTERIOR = ("lte_rrc", "lte_pdcp", "lte_rlc", "lte_mac")


class Operations:
    """Counts repetitions attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Call fn; on any exception count a failure, print the traceback
        to stderr and return None, so one bad repetition ends no run."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def repeat(seconds: float, fn) -> list:
    """Results of fn called back to back until `seconds` have passed,
    at least MIN_REPS times, with a full collection before each call."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        out.append(fn())
    return out


class _RefNode:
    __slots__ = ("gates", "count")

    def __init__(self) -> None:
        self.gates: dict = {}
        self.count = 0


def reference_loop() -> float:
    """Host seconds of a fixed event loop shaped like the simulator's
    (heap of tuples, slotted objects, gate lookups by string), built from
    no simulator code, so its time tracks only the host's speed."""
    nodes = [_RefNode() for _ in range(1000)]
    for i, node in enumerate(nodes):
        node.gates = {"out": nodes[(i * 7 + 1) % 1000], "up": nodes[(i * 13 + 5) % 1000]}
    heap = [(0, i, nodes[i], "out") for i in range(100)]
    seq = len(heap)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_EVENTS):
        t, _, node, gate = heapq.heappop(heap)
        node.count += 1
        heapq.heappush(heap, (t + seq % 3, seq, node.gates[gate], "up" if seq & 1 else "out"))
        seq += 1
    return time.perf_counter() - t0


def median(values):
    return statistics.median(values) if values else None


def same_every_time(seen: list, value, what: str) -> None:
    """Record the first value; fail if a later one differs from it."""
    if not seen:
        seen.append(value)
    elif value != seen[0]:
        raise pipeline.CheckFailed(f"{what} differ between repetitions of one seed")


# --------------------------------------------------------------------------
# end to end

def start_rss_probe(name: str, seed: int, workdir: Path) -> subprocess.Popen:
    """Start one repetition in a fresh process that reports its peak RSS.

    ru_maxrss survives exec: a child starts from the high-water mark of the
    process it was forked from. The probe is therefore started before this
    process builds anything, while it holds no more than imports."""
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "rss_probe.py"), name, str(seed),
         str(workdir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)


def peak_rss_mb(probe: subprocess.Popen, work, expected, workdir: Path,
                digests: list) -> float:
    """Wait for the probe and check what its repetition produced."""
    try:
        out, err = probe.communicate(timeout=RSS_PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.communicate()
        raise
    if probe.returncode != 0:
        raise pipeline.CheckFailed(f"rss probe exited {probe.returncode}: {err[-2000:]}")
    out = json.loads(out.splitlines()[-1])
    if work.via_cli:
        found, _ = pipeline.check_cli_outputs(workdir, out["events"])
        same_every_time(digests, found, "trace digests")
    elif expected is not None and out["events"] != expected:
        raise pipeline.CheckFailed(
            f"rss probe ran {out['events']} events, oracle expects {expected}")
    return out["maxrss_kib"] / 1024


def end_to_end(work, seconds: float, ops: Operations, workdir: Path, probe):
    expected = trace.expected_event_total(work.spec) if work.zero_delay else None
    digests: list = []
    rss = ops.run(peak_rss_mb, probe, work, expected, workdir / "rss", digests)
    if work.via_cli:
        config = pipeline.write_config(work, workdir)

        def rep():
            t0 = time.perf_counter()
            pipeline.setup(work)
            setup_s = time.perf_counter() - t0
            r = pipeline.cli_rep(config, workdir)
            same_every_time(digests, r.digests, "trace digests")
            r.setup_s = setup_s
            return r
    else:
        def rep():
            return pipeline.run_library(work, expected)

    def scaled_rep():
        scale = REFERENCE_NOMINAL_S / reference_loop()
        return rep(), scale

    ops.run(rep)  # warm-up, checked but not timed
    reps = [r for r in repeat(seconds, lambda: ops.run(scaled_rep)) if r is not None]
    if not reps:
        return {"peak_rss_mb": rss}, "no timed repetition passed its checks"
    metrics = {
        "setup_s": median([r.setup_s * k for r, k in reps]),
        "wall_s": median([r.wall_s * k for r, k in reps]),
        "events_per_s": median([r.events_per_s / k for r, k in reps]),
        "peak_rss_mb": rss,
    }
    note = (f"medians of {len(reps)} timed repetitions, host times rescaled to a "
            f"{REFERENCE_NOMINAL_S} s reference loop; unscaled medians: "
            f"setup_s {median([r.setup_s for r, _ in reps]):.4g}, "
            f"wall_s {median([r.wall_s for r, _ in reps]):.4g}, "
            f"reference loop {median([REFERENCE_NOMINAL_S / k for _, k in reps]):.4g} s; "
            f"peak_rss_mb from 1 fresh subprocess")
    return metrics, note


# --------------------------------------------------------------------------
# per layer

def statement_count(spec) -> int:
    return (len(spec.node_decls) + len(spec.attachments) + len(spec.links)
            + len(spec.generators) + (spec.until is not None)
            + (spec.seed is not None))


def counting_rep(work, expected) -> dict:
    """One library repetition through a FesSampler: the deterministic
    counts of the workload."""
    sampler = None

    def sinks_for(sim):
        nonlocal sampler
        sampler = layers.FesSampler(sim)
        return [sampler]

    rep = pipeline.run_library(work, expected, sinks_for)
    generators = [m for m in rep.built.root.iter_tree() if isinstance(m, Generator)]
    returned = sum(g.stats.returned for g in generators)
    if work.zero_delay:
        # zero delays: every trip completes at its emission time
        for layer in UE_INTERIOR:
            seen = sampler.by_node_type[("ue", layer)]
            if seen != 2 * returned:
                raise pipeline.CheckFailed(
                    f"ue {layer} saw {seen} events for {returned} completed trips")
    return {
        "events": rep.events,
        "netconfig.statements": statement_count(work.spec),
        "model.modules": sum(1 for _ in rep.built.root.iter_tree()),
        "kernel.fes_len_max": sampler.fes_len_max,
        "kernel.fes_len_mean": sampler.fes_len_sum / sampler.events,
        "kernel.tie_share": sampler.ties / sampler.events,
        "traffic.emitted": sum(g.stats.emitted for g in generators),
        "traffic.returned": returned,
    }


def layer_metrics(work, rep, spans, pauses) -> dict:
    calls, self_s, total_s = spans.calls, spans.self_s, spans.total_s
    handled = sum(n for key, n in calls.items() if key.startswith("lte_nodes."))
    if handled != rep.events:
        raise pipeline.CheckFailed(
            f"handlers saw {handled} events, the kernel dispatched {rep.events}")

    def us_per_call(key):
        return total_s[key] / calls[key] * 1e6 if calls[key] else 0.0

    m = {
        "netconfig.parse_s": self_s["netconfig.parse"],
        "netconfig.validate_s": self_s["netconfig.validate"],
        "netconfig.build_s": self_s["netconfig.build"],
        "kernel.simulator_init_s": self_s["kernel.simulator_init"],
        "kernel.events": rep.events,
        "kernel.dispatch_self_s": self_s["kernel.run"],
        "model.send_calls": calls["model.send"],
        "model.send_s": self_s["model.send"],
        "model.send_direct_calls": calls["model.send_direct"],
        "model.send_direct_s": self_s["model.send_direct"],
        "model.schedule_self_calls": calls["model.schedule_self"],
        "model.schedule_self_s": self_s["model.schedule_self"],
        "trace.sink.paper_us_per_record": us_per_call("trace.sink.paper"),
        "trace.sink.structured_us_per_record": us_per_call("trace.sink.structured"),
        "trace.sink.collect_us_per_record": us_per_call("trace.sink.collect"),
        "trace.summarize_s": self_s["trace.summarize"],
        "trace.generator_on_calls": calls["trace.generator_on"],
        "trace.generator_on_calls_per_ue": calls["trace.generator_on"] / work.ues,
        "trace.generator_on_s": self_s["trace.generator_on"],
        "trace.bytes_written": rep.bytes_written,
        "cli.self_s": self_s["cli.main"],
        "python.gc_collections": pauses.collections,
        "python.gc_pause_s": pauses.pause_s,
    }
    for t in LAYER_TYPES:
        m[f"lte_nodes.{t}.events"] = calls[f"lte_nodes.{t}"]
        m[f"lte_nodes.{t}.self_us"] = self_s[f"lte_nodes.{t}"] * 1e6
    return m


COUNT_METRICS = ("kernel.events", "model.send_calls", "model.send_direct_calls",
                 "model.schedule_self_calls", "trace.generator_on_calls",
                 "trace.bytes_written") + tuple(f"lte_nodes.{t}.events"
                                                for t in LAYER_TYPES)


def per_layer(work, seconds: float, ops: Operations, workdir: Path):
    t0 = time.perf_counter()
    oracle_total = trace.expected_event_total(work.spec)
    expected_total_s = time.perf_counter() - t0
    expected = oracle_total if work.zero_delay else None
    counts = ops.run(counting_rep, work, expected)
    digests: list = []
    if work.via_cli:
        config = pipeline.write_config(work, workdir)

        def rep():
            r = pipeline.cli_rep(config, workdir)
            same_every_time(digests, r.digests, "trace digests")
            if counts is not None and r.events != counts["events"]:
                raise pipeline.CheckFailed(
                    f"cli ran {r.events} events, the library {counts['events']}")
            return r
    else:
        def rep():
            return pipeline.run_library(work, expected)

    seen_counts: list = []

    def traced():
        spans, pauses = layers.Spans(), layers.GcPauses()
        with layers.installed(spans, pauses):
            r = rep()
        m = layer_metrics(work, r, spans, pauses)
        same_every_time(seen_counts, [m[k] for k in COUNT_METRICS], "event counts")
        return r.wall_s, m

    ops.run(rep)  # warm-up, checked but not timed
    pairs = repeat(seconds, lambda: (ops.run(rep), ops.run(traced)))
    untraced = [r.wall_s for r, _ in pairs if r is not None]
    traced_runs = [t for _, t in pairs if t is not None]
    metrics = {name: median([m[name] for _, m in traced_runs])
               for name in (traced_runs[0][1] if traced_runs else ())}
    metrics.update({k: v for k, v in (counts or {}).items() if k != "events"})
    metrics["trace.expected_event_total_s"] = expected_total_s
    if untraced and traced_runs:
        metrics["trace_overhead"] = (median([w for w, _ in traced_runs])
                                     / median(untraced) - 1)
    note = (f"medians of {len(traced_runs)} traced repetitions in host seconds, "
            f"{len(untraced)} untraced for trace_overhead; kernel.fes_*, "
            f"tie_share and traffic.* from 1 FES-sampled repetition")
    return metrics, note


# --------------------------------------------------------------------------

def machine() -> str:
    return (f"Python {platform.python_version()} ({platform.python_implementation()}), "
            f"nproc {os.cpu_count()}, {platform.platform()}")


def report(declared: list, metrics: dict, ops: Operations, header: list) -> dict:
    for line in header:
        print(f"# {line}")
    for d in declared:
        value = metrics.get(d["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{d['name']:<40} {shown:>14} {d['unit']}")
    return {
        "correct": ops.failed == 0 and all(metrics.get(d["name"]) is not None
                                           for d in declared),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {d["name"]: {"value": metrics.get(d["name"]), "unit": d["unit"]}
                    for d in declared},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    ops = Operations()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        workdir = Path(tmp)
        if args.trace:
            work = pipeline.Workload(args.workload, args.seed)
            metrics, note = per_layer(work, args.seconds, ops, workdir)
        else:
            (workdir / "rss").mkdir()
            probe = start_rss_probe(args.workload, args.seed, workdir / "rss")
            try:
                work = pipeline.Workload(args.workload, args.seed)
            except BaseException:
                probe.kill()
                probe.communicate()
                raise
            metrics, note = end_to_end(work, args.seconds, ops, workdir, probe)
    header = [f"machine: {machine()}",
              f"workload {work.name}, seed {work.seed}, trace {args.trace}, "
              f"{time.perf_counter() - started:.1f} s: {note}"]
    print(json.dumps(report(declared, metrics, ops, header)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
