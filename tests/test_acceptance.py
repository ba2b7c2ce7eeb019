"""Acceptance suite.

One test per criterion; each prints a PASS line once its assertions hold,
so `pytest tests/test_acceptance.py -v -s` reads as a checklist:

1. trace fidelity of the first two event lines on the minimal network
2. oracle path equivalence over >= 100 round trips
3. conservation and periodicity (100 emissions, trip k at k*10 ms, none in flight)
4. byte-identical traces across repeated runs
5. kernel pop order vs a stable-sort oracle, 10,000 events
6. parser suite: good fixtures round-trip, bad fixtures exit nonzero with locations
7. desk-scale smoke: 100 UEs / 10 eNBs within budget, event total from the oracle
"""

import io
import re
import time
from pathlib import Path

from lteadv_sim import CollectingSink, PaperTraceSink, StructuredTraceSink, build, parse
from lteadv_sim.cli import main
from lteadv_sim.kernel import FutureEventSet, MessageKind, SimMessage, SimTime
from lteadv_sim.netconfig import format_spec, validate
from lteadv_sim.trace import expected_event_total, summarize

from conftest import pop_entry

FIXTURES = Path(__file__).parent / "fixtures"

LINE1_PATTERN = (r"^\*\* Event #1 T=0 Network\.ue\.lte_nas \(lte_nas, id=(\d+)\), "
                 r"on `NASMsg' \(cMessage, id=(\d+)\)$")
LINE2_PATTERN = (r"^\*\* Event #2 T=0 Network\.ue\.lte_rrc \(lte_rrc, id=(\d+)\), "
                 r"on `RRCMsg' \(cMessage, id=(\d+)\)$")


def load(fixture):
    result = parse((FIXTURES / fixture).read_text())
    assert result.ok, result.diagnostics
    return result.spec


def run_with_sinks(spec, *sink_list):
    built = build(spec)
    sim = built.simulator()
    summary = sim.run(until=spec.until, sinks=list(sink_list))
    return summary, built


def desk_scale_source(n_ue=100, n_enb=10):
    lines = ["network Network {", f"    ue ue[{n_ue}];", f"    enb enb[{n_enb}];",
             "    sgw_mme sgw_mme;", "    pdn_gw pdn_gw;"]
    per = n_ue // n_enb
    for e in range(n_enb):
        lines.append(f"    attach ue[{e * per}..{e * per + per - 1}] -> enb[{e}];")
    lines += ["    generator on ue[*] { period 10ms; }", "    run until 1s;", "}"]
    return "\n".join(lines)


def test_criterion_1_trace_fidelity():
    spec = load("minimal.net")
    buf = io.StringIO()
    start = time.perf_counter()
    summary, _ = run_with_sinks(spec, PaperTraceSink(buf))
    elapsed = time.perf_counter() - start
    lines = buf.getvalue().splitlines()
    assert re.match(LINE1_PATTERN, lines[0]), lines[0]
    assert re.match(LINE2_PATTERN, lines[1]), lines[1]
    assert elapsed < 1.0, f"run took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 trace fidelity: PASS ({elapsed * 1000:.0f} ms)")


def test_criterion_2_oracle_path_equivalence():
    spec = load("minimal.net")
    sink = CollectingSink()
    summary, _ = run_with_sinks(spec, sink)
    metrics = summarize(sink.records, spec, summary)
    assert metrics.round_trips >= 100
    assert metrics.path_mismatches == []
    print(f"\nACCEPTANCE 2 oracle path equivalence: PASS "
          f"({metrics.round_trips} trips, 0 mismatches)")


def test_criterion_3_conservation_and_periodicity():
    spec = load("minimal.net")
    sink = CollectingSink()
    summary, built = run_with_sinks(spec, sink)
    stats = built.nodes["ue"].generator.stats
    until, period = 1_000_000_000, 10_000_000
    expected = (until - 1) // period + 1  # arithmetic oracle
    assert stats.emitted == expected == 100
    assert stats.discarded == expected == 100
    # trip k is stamped exactly k * 10 ms on every one of its events
    trip_of = {}
    next_trip = 0
    for rec in sink.records:
        if rec.msg_name == "GenTimer":
            continue
        if rec.msg_id not in trip_of:
            trip_of[rec.msg_id] = next_trip
            next_trip += 1
        assert rec.t_ns == trip_of[rec.msg_id] * period, rec
    assert next_trip == 100
    assert stats.emitted - stats.discarded == 0  # zero in flight at end
    print("\nACCEPTANCE 3 conservation and periodicity: PASS "
          "(emitted=discarded=100, trips on the 10 ms grid)")


def test_criterion_4_determinism():
    for fixture in ("minimal.net", "multi_ue.net"):
        outputs = []
        for _ in range(2):
            spec = load(fixture)
            paper, structured = io.StringIO(), io.StringIO()
            run_with_sinks(spec, PaperTraceSink(paper), StructuredTraceSink(structured))
            outputs.append((paper.getvalue().encode(), structured.getvalue().encode()))
        assert outputs[0][0] == outputs[1][0], f"{fixture}: paper traces differ"
        assert outputs[0][1] == outputs[1][1], f"{fixture}: structured traces differ"
    print("\nACCEPTANCE 4 determinism: PASS (byte-identical traces, both fixtures)")


def test_criterion_5_kernel_ordering():
    import random
    rng = random.Random(0xACCE57)
    times = [rng.randrange(0, 1_000) * 1_000 for _ in range(10_000)]
    fes = FutureEventSet()
    for i, t in enumerate(times):
        msg = SimMessage(i, str(i), MessageKind.CONTROL_MESSAGE, 0, SimTime(0))
        fes.push(t, 0, None, "g", msg)
    popped = []
    while fes:
        t_ns, _, _, _, msg = pop_entry(fes)
        popped.append((t_ns, int(msg.name)))
    oracle = sorted(((t, i) for i, t in enumerate(times)), key=lambda p: p[0])
    assert popped == oracle
    print("\nACCEPTANCE 5 kernel ordering: PASS (10,000 events, stable-sort exact)")


def test_criterion_6_parser_suite(capsys):
    for fixture in ("minimal.net", "multi_ue.net"):
        result = parse((FIXTURES / fixture).read_text())
        assert result.ok, f"{fixture}: {result.diagnostics}"
        assert validate(result.spec) == []
        reparsed = parse(format_spec(result.spec))
        assert reparsed.ok and reparsed.spec == result.spec, f"{fixture} round-trip"
    locations = {
        "bad_unclosed.net": "bad_unclosed.net:2:9: error:",
        "bad_two_pdn.net": "bad_two_pdn.net:6:5: error:",
        "bad_dangling.net": "bad_dangling.net:7:5: error:",
    }
    for fixture, expected_loc in locations.items():
        code = main(["--config", str(FIXTURES / fixture)])
        err = capsys.readouterr().err
        assert code != 0, fixture
        assert expected_loc in err, f"{fixture}: {err}"
    print("\nACCEPTANCE 6 parser suite: PASS "
          "(2 fixtures round-trip, 3 rejected with locations)")


def test_criterion_7_desk_scale_smoke():
    result = parse(desk_scale_source())
    assert result.ok, result.diagnostics
    spec = result.spec
    sink = CollectingSink()
    start = time.perf_counter()
    built = build(spec)
    sim = built.simulator()
    summary = sim.run(until=spec.until, sinks=[sink])
    metrics = summarize(sink.records, spec, summary)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert metrics.round_trips == 100 * 100  # 100 UEs, 100 trips each
    assert metrics.path_mismatches == []
    assert metrics.events_per_wall_second is not None
    # total events exactly as the chain-walk oracle predicts
    assert summary.events_executed == expected_event_total(spec)
    assert metrics.total_events == summary.events_executed
    print(f"\nACCEPTANCE 7 desk-scale smoke: PASS "
          f"({summary.events_executed} events in {elapsed:.2f}s, "
          f"{metrics.events_per_wall_second:.0f} events/s)")
