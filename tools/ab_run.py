"""Compare two checkouts' simulators on one bench workload, in one process.

    python3 tools/ab_run.py BASE CHANGE [--workload desk] [--seed 7] [--rounds 10]

BASE and CHANGE are checkout roots; each one's `src/lteadv_sim` is loaded
under its own package name, so both live side by side. The workload text
comes from `bench/workloads.py` next to this script's directory. Each
round runs parse -> validate -> build -> run of that text once per side,
the order alternating between rounds, and checks that both sides end with
equal events, clock, next message id and pending count. The script prints
each side's median loop time (`RunSummary.wall_clock_seconds`) and wall
time (parse to the end of the run) in ms, and in how many rounds the
change was faster on each. Standard library only.
"""

from __future__ import annotations

import argparse
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
    """The `lteadv_sim` package of `checkout`, imported as `name`."""
    package = checkout / "src" / "lteadv_sim"
    return load(name, package / "__init__.py", submodule_search_locations=[str(package)])


def run_once(pkg, text: str) -> tuple[float, float, tuple]:
    """parse -> validate -> build -> run of `text` with `pkg`. Returns the
    loop and wall times in ms and the end state: events, clock, next
    message id and pending count."""
    gc.collect()
    t0 = time.perf_counter()
    result = pkg.parse(text)
    if not result.ok or pkg.validate(result.spec):
        raise SystemExit(f"{pkg.__name__}: the workload text is rejected")
    sim = pkg.build(result.spec).simulator()
    summary = sim.run(until=result.spec.until)
    wall = time.perf_counter() - t0
    state = (summary.events_executed, sim.now_ns, sim._next_msg_id, len(sim.fes))
    return summary.wall_clock_seconds * 1e3, wall * 1e3, state


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
            print(f"round {i + 1}: end states differ (events, clock, next id, pending): "
                  f"base {states['base']}, change {states['change']}", file=sys.stderr)
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
