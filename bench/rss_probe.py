"""Run one untraced repetition of a workload in this fresh process and
print its peak resident set size.

    python3 bench/rss_probe.py WORKLOAD SEED WORKDIR

Prints one JSON line {"maxrss_kib": ..., "events": ...}. Nothing is
checked here, so that checking adds nothing to the peak: the caller checks
the event count, and for the CLI workload the outputs left in WORKDIR.
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pipeline  # noqa: E402


def main(name: str, seed: str, workdir: str) -> None:
    work = pipeline.Workload(name, int(seed))
    if work.via_cli:
        _, events, _ = pipeline.run_cli(pipeline.write_config(work, Path(workdir)),
                                        Path(workdir))
    else:
        events = pipeline.run_library(work, expected=None).events
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kib": maxrss_kib, "events": events}))


if __name__ == "__main__":
    main(*sys.argv[1:])
