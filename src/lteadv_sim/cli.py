"""Command-line runner: parse a topology config, build it, run it, and
write trace/metrics outputs.

Exit codes: 0 success, 1 runtime failure, 2 config problems (printed with
file:line:col locations), 64 usage errors. A runtime failure is a simulation
error or an output that fails while it is written, flushed or closed (a
full disk, a closed stdout pipe); the latter prints one "cannot write
output" line and no traceback. Usage errors include an empty output path
and one that names the config or another output (by `os.path.realpath`),
both found before any file is read, and an output file that cannot be
opened: every output is opened, and so created or truncated, after the
config parses and before the network is built, so a bad path fails
before the run. With no output flags the console log goes to stdout;
LTEADV_SIM_TRACE=paper|structured|both picks its format. --quiet
silences the console trace but never file outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from . import netconfig, trace
from .kernel import SimulationError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_USAGE = 64

_TRACE_ENV = "LTEADV_SIM_TRACE"


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # route argparse failures to exit code 64 instead of its default 2
    def error(self, message):
        raise _UsageError(message)


def _duration(text: str):
    try:
        value = netconfig.parse_duration(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value.ns <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _int_at_least(text: str, least: int, message: str) -> int:
    # ASCII digits only, as the config grammar writes an integer: int()
    # also takes signs, spaces, underscores and other scripts' digits
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(message)
    # a ValueError, which int() raises past its digit limit, would make
    # argparse name this module's function instead
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < least:
        raise argparse.ArgumentTypeError(message)
    return value


def _file_name(text: str) -> str:
    if not text:  # an empty name would leave its output unwritten
        raise argparse.ArgumentTypeError("must name a file")
    return text


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "must be a positive integer")


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "must be a non-negative integer")


def build_arg_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="lteadv-sim",
        description="Run a discrete-event simulation of an LTE-Advanced "
                    "protocol-stack skeleton network.")
    p.add_argument("--config", required=True, metavar="FILE",
                   help="topology config file")
    p.add_argument("--until", type=_duration, metavar="DURATION",
                   help="override the config's run-until time (e.g. 1s, 10ms)")
    p.add_argument("--seed", type=_non_negative_int, metavar="N",
                   help="override the config's seed")
    p.add_argument("--trace-out", type=_file_name, metavar="FILE",
                   help="write the console-format event log here")
    p.add_argument("--structured-out", type=_file_name, metavar="FILE",
                   help="write the structured (JSON lines) trace here")
    p.add_argument("--metrics-out", type=_file_name, metavar="FILE",
                   help="write post-run metrics as JSON here")
    p.add_argument("--event-limit", type=_positive_int, metavar="N",
                   help="stop after N events")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the console trace (file outputs still written)")
    return p


def _print_diagnostics(path: str, diagnostics) -> None:
    for diag in diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)


def _print_summary(summary, seed: int) -> None:
    out = sys.stderr
    print(f"events executed: {summary.events_executed}", file=out)
    print(f"final time:      {summary.final_time.seconds_str()} s", file=out)
    print(f"stop reason:     {summary.stop_reason.value}", file=out)
    print(f"seed:            {seed}", file=out)
    # wall-clock figures vary run to run; everything above is deterministic
    print(f"wall clock:      {summary.wall_clock_seconds:.6f} s", file=out)
    if summary.wall_clock_seconds > 0:
        rate = summary.events_executed / summary.wall_clock_seconds
        print(f"events/s:        {rate:.0f}", file=out)


def _output_failed(prog: str, exc: OSError) -> int:
    print(f"{prog}: error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
    if isinstance(exc, BrokenPipeError):
        # Python flushes stdout again at exit, and a broken pipe would fail
        # that flush too: point stdout at devnull so the exit stays quiet
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError):  # stdout has no file descriptor
            pass
    return EXIT_RUNTIME


def main(argv: Optional[list] = None) -> int:
    parser = build_arg_parser()
    try:
        opts = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    named: dict = {}  # real path -> the flag that named it first
    for flag in ("--config", "--trace-out", "--structured-out", "--metrics-out"):
        path = getattr(opts, flag[2:].replace("-", "_"))
        if path:
            first = named.setdefault(os.path.realpath(path), flag)
            if first != flag:
                print(f"{parser.prog}: error: {flag} names the same file as {first}",
                      file=sys.stderr)
                return EXIT_USAGE

    console_format = os.environ.get(_TRACE_ENV, "paper")
    if console_format not in ("paper", "structured", "both"):
        print(f"{parser.prog}: error: {_TRACE_ENV} must be "
              f"paper, structured or both (got {console_format!r})", file=sys.stderr)
        return EXIT_USAGE

    try:
        with open(opts.config, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{parser.prog}: error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    result = netconfig.parse(source)
    if not result.ok:
        _print_diagnostics(opts.config, result.diagnostics)
        return EXIT_CONFIG
    spec = result.spec
    if opts.until is not None:
        spec.until = opts.until
    if opts.seed is not None:
        spec.seed = opts.seed

    try:
        # closes, and so flushes, every file it opened, also on a return
        with contextlib.ExitStack() as outputs:
            files = []
            for path in (opts.trace_out, opts.structured_out, opts.metrics_out):
                try:
                    files.append(outputs.enter_context(
                        open(path, "w", encoding="utf-8", newline="\n")) if path else None)
                except OSError as exc:
                    print(f"{parser.prog}: error: cannot open output {path}: "
                          f"{exc.strerror or exc}", file=sys.stderr)
                    return EXIT_USAGE
            trace_fh, structured_fh, metrics_fh = files

            try:
                built = netconfig.build(spec)
            except netconfig.InvalidNetworkSpec as exc:
                _print_diagnostics(opts.config, exc.diagnostics)
                return EXIT_CONFIG
            sim = built.simulator()

            sinks = []
            metrics_sink = None
            if trace_fh or structured_fh:
                sinks.append(trace.TraceSink(trace_fh, structured_fh))
            if metrics_fh:
                metrics_sink = trace.MetricsSink(spec)
                sinks.append(metrics_sink)
            console = not any(files) and not opts.quiet
            if console:
                sinks.append(trace.TraceSink(
                    sys.stdout if console_format != "structured" else None,
                    sys.stdout if console_format != "paper" else None))

            try:
                summary = sim.run(until=spec.until, event_limit=opts.event_limit,
                                  sinks=sinks)
            except SimulationError as exc:
                print(f"{parser.prog}: error: {exc}", file=sys.stderr)
                return EXIT_RUNTIME

            if metrics_fh:
                metrics = metrics_sink.finish(summary)
                json.dump(metrics.to_json_dict(), metrics_fh, indent=2, sort_keys=False)
                metrics_fh.write("\n")
            if console:
                sys.stdout.flush()  # a write that fails fails here, not at exit
    except OSError as exc:  # writing, flushing or closing an output
        return _output_failed(parser.prog, exc)

    _print_summary(summary, spec.effective_seed)
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
