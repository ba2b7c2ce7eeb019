"""Compare two checkouts' simulators on one bench workload, in one process.

    python3 tools/ab_run.py BASE CHANGE [--workload desk] [--seed 7] [--rounds 10]

BASE and CHANGE are checkout roots; each one's `src/lteadv_sim` is loaded
under its own package name, so both live side by side. The workload text
comes from `bench/workloads.py` next to this script's directory. Each
round runs parse -> validate -> build -> run of that text once per side,
the order alternating between rounds, and checks that both sides end in
equal states (`end_state`), read after the timer stops. The script prints
each side's median loop time (`RunSummary.wall_clock_seconds`) and wall
time (parse to the end of the run) in ms, and in how many rounds the
change was faster on each. Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name: str, path: Path, **kwargs):
    """Import the file at `path` as the module `name`; a package's
    `__init__.py` takes `submodule_search_locations`."""
    spec = importlib.util.spec_from_file_location(name, path, **kwargs)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(name: str, checkout: Path):
    """The `lteadv_sim` package of `checkout`, imported as `name`, with
    fresh submodules also when `name` was imported before."""
    for stale in [key for key in sys.modules if key.startswith(f"{name}.")]:
        del sys.modules[stale]
    package = checkout / "src" / "lteadv_sim"
    return load(name, package / "__init__.py", submodule_search_locations=[str(package)])


# the parts of an `end_state`, in order
FIELDS = ("events", "stop reason", "clock", "next id", "pending", "generator stats", "drops")


def run_once(pkg, text: str) -> tuple[float, float, tuple]:
    """parse -> validate -> build -> run of `text` with `pkg`. Returns the
    loop and wall times in ms and the run's `end_state`."""
    gc.collect()
    t0 = time.perf_counter()
    result = pkg.parse(text)
    if not result.ok or pkg.validate(result.spec):
        raise SystemExit(f"{pkg.__name__}: the workload text is rejected")
    built = pkg.build(result.spec)
    sim = built.simulator()
    summary = sim.run(until=result.spec.until)
    wall = time.perf_counter() - t0
    return summary.wall_clock_seconds * 1e3, wall * 1e3, end_state(pkg, built, sim, summary)


def end_state(pkg, built, sim, summary) -> tuple:
    """What the run of `sim`, summed up by `summary`, leaves of `built`,
    in plain values that compare across packages, one per name in
    FIELDS: the event count, stop reason, clock and next message id;
    every pending entry, drained in order, with its seq, target path and
    arrival label and its message's id, name, kind label, size, creation
    time and route; every generator's stats; and every forwarder's
    drops. A waypoint is given by path and label: a reply gate by its
    source's path and Out label, a radio by its path."""
    pending = [(t_ns, seq, target.full_path, label, msg.msg_id, msg.name, msg.kind_label,
                msg.byte_length, msg._created_ns,
                tuple((w.source.full_path, w.source_label) if isinstance(w, pkg.Gate)
                      else w.full_path for w in msg._route))
               for t_ns, seq, target, label, msg in sim.fes.pop_before(pkg.kernel.MAX_TIME_NS + 1)]
    stats = [(name, dataclasses.astuple(node.generator.stats))
             for name, node in built.nodes.items() if node.generator is not None]
    drops = [(module.full_path, module.drop_count) for module in built.root.iter_tree()
             if isinstance(module, pkg.lte_nodes.Forwarder)]
    return (summary.events_executed, summary.stop_reason.value, sim.now_ns, sim._next_msg_id,
            pending, stats, drops)


def first_difference(base: tuple, change: tuple) -> str:
    """The first part, by FIELDS, in which two unequal end states differ,
    with both sides' values; for a list, its first differing item."""
    field, b, c = next(part for part in zip(FIELDS, base, change) if part[1] != part[2])
    if isinstance(b, list):
        i = next((i for i, pair in enumerate(zip(b, c)) if pair[0] != pair[1]),
                 min(len(b), len(c)))
        field, b, c = f"{field}[{i}]", b[i:i + 1], c[i:i + 1]
    return f"{field}: base {b}, change {c}"


def main(argv: list[str]) -> int:
    workloads = load("ab_run_workloads", ROOT / "bench" / "workloads.py")
    parser = argparse.ArgumentParser(prog="ab_run.py", description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="desk", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv[1:])
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for checkout in (args.base, args.change):
        if not (checkout / "src" / "lteadv_sim" / "__init__.py").is_file():
            parser.error(f"{checkout}: no src/lteadv_sim/__init__.py")
    sides = {"base": load_side("ab_run_base", args.base.resolve()),
             "change": load_side("ab_run_change", args.change.resolve())}
    text = workloads.GENERATORS[args.workload](args.seed)
    times: dict[str, list[tuple[float, float]]] = {"base": [], "change": []}
    for i in range(args.rounds):
        states = {}
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            loop, wall, states[side] = run_once(sides[side], text)
            times[side].append((loop, wall))
        if states["base"] != states["change"]:
            print(f"round {i + 1}: end states differ in "
                  f"{first_difference(states['base'], states['change'])}", file=sys.stderr)
            return 1
    events = states["base"][0]
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds, "
          f"{events} events, end states equal")
    print(f"{'side':<8} {'loop_ms':>9} {'wall_ms':>9}")
    for side, rows in times.items():
        print(f"{side:<8} {statistics.median(r[0] for r in rows):>9.2f} "
              f"{statistics.median(r[1] for r in rows):>9.2f}")
    wins = [sum(c[k] < b[k] for b, c in zip(times["base"], times["change"])) for k in (0, 1)]
    print(f"change faster: loop {wins[0]}/{args.rounds}, wall {wins[1]}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
