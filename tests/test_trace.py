"""Trace tests: log-line format, structured round-trip, metrics, oracle."""

import gc
import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from lteadv_sim import build, parse
from lteadv_sim.kernel import (MAX_TIME_NS, NS_PER_S, EventRecord, SimTime,
                               SimTimeRangeError)
from lteadv_sim.model import SimpleModule
from lteadv_sim.netconfig import NetworkSpec
from lteadv_sim.trace import (CollectingSink, MalformedTrace, MetricsSink,
                              PaperTraceSink, StructuredTraceSink, TraceSink, data_walk,
                              expected_event_total, format_event_line,
                              parse_structured_line, read_structured,
                              structured_line, summarize, timer_hop,
                              write_structured, zero_delay_emissions)

from conftest import MINIMAL_SOURCE, run_spec


# Reference renderers: the formats as first written, json.dumps of a field
# dict and the seconds as SimTime.seconds_str first rendered them, kept
# here to check the cached formatters against.

def reference_seconds(t_ns):
    secs, rem = divmod(t_ns, NS_PER_S)
    return str(secs) if rem == 0 else f"{secs}.{rem:09d}".rstrip("0")


def reference_event_line(rec):
    return (f"** Event #{rec.event_no} T={reference_seconds(rec.t_ns)} {rec.path} "
            f"({rec.type_name}, id={rec.module_id}), "
            f"on `{rec.msg_name}' ({rec.msg_kind}, id={rec.msg_id})")


def reference_structured_line(rec):
    payload = {
        "event_no": rec.event_no,
        "t_ns": rec.t_ns,
        "path": rec.path,
        "type": rec.type_name,
        "module_id": rec.module_id,
        "msg_name": rec.msg_name,
        "msg_kind": rec.msg_kind,
        "msg_id": rec.msg_id,
    }
    return json.dumps(payload, separators=(", ", ": "))


_MSG_KINDS = ("cMessage", "cPacket")


def run_could_write(rec):
    """Whether a run can write `rec`: ids and event numbers from 1, a time
    in range and a real message kind."""
    return (min(rec.event_no, rec.module_id, rec.msg_id) >= 1
            and 0 <= rec.t_ns <= MAX_TIME_NS and rec.msg_kind in _MSG_KINDS)


def as_a_run_writes(rec):
    """`rec` with each field a run cannot write moved to one it can."""
    return replace(rec, event_no=max(rec.event_no, 1), module_id=max(rec.module_id, 1),
                   msg_id=max(rec.msg_id, 1),
                   msg_kind=rec.msg_kind if rec.msg_kind in _MSG_KINDS else "cPacket")


def assert_reads_back(records):
    """Each record's structured line reads back as the record when a run
    could have written it and is malformed, on its line, when not; moved
    to what a run writes, every record reads back from the reference
    renderer's text."""
    lines = [structured_line(rec) for rec in records]
    for line_no, (line, rec) in enumerate(zip(lines, records), start=1):
        if run_could_write(rec):
            assert parse_structured_line(line, line_no) == rec
        else:
            with pytest.raises(MalformedTrace) as err:
                parse_structured_line(line, line_no)
            assert err.value.line_no == line_no
    written = [as_a_run_writes(rec) for rec in records]
    assert read_structured([reference_structured_line(rec) for rec in written]) == written


def show_in_chunks(sink, records, cuts=()):
    """Pass consecutively numbered records to `sink.on_events` as rows,
    as Simulator.run does, cut into chunks before each index in `cuts`:
    one module per (path, type, module id)."""
    modules = {}
    rows = []
    for rec in records:
        module = modules.get((rec.path, rec.type_name, rec.module_id))
        if module is None:
            module = modules[rec.path, rec.type_name, rec.module_id] = SimpleModule(
                "m", rec.type_name)
            module._path, module.module_id = rec.path, rec.module_id
        rows.append((rec.t_ns, module, rec.msg_name, rec.msg_kind, rec.msg_id))
    edges = [0, *sorted(cuts), len(rows)]
    for lo, hi in zip(edges, edges[1:]):
        assert [rec.event_no for rec in records[lo:hi]] == list(range(
            records[lo].event_no, records[lo].event_no + hi - lo))
        sink.on_events(records[lo].event_no, rows[lo:hi])


# -- console format -------------------------------------------------------------

def test_format_golden_line_one():
    rec = EventRecord(1, 0, "Network.ue.lte_nas", "lte_nas", 18, "NASMsg", "cMessage", 2)
    assert format_event_line(rec) == (
        "** Event #1 T=0 Network.ue.lte_nas (lte_nas, id=18), "
        "on `NASMsg' (cMessage, id=2)")


def test_format_golden_line_two():
    rec = EventRecord(2, 0, "Network.ue.lte_rrc", "lte_rrc", 17, "RRCMsg", "cMessage", 2)
    assert format_event_line(rec) == (
        "** Event #2 T=0 Network.ue.lte_rrc (lte_rrc, id=17), "
        "on `RRCMsg' (cMessage, id=2)")


def test_format_trims_trailing_zeros():
    rec = EventRecord(9, 1_500_000_000, "Network.x", "x", 1, "m", "cPacket", 3)
    assert "T=1.5 " in format_event_line(rec)


def test_format_never_prints_binary_noise():
    # 0.01 s must print exactly, not as 0.00999...
    rec = EventRecord(1, 10_000_000, "Network.x", "x", 1, "m", "cMessage", 1)
    assert "T=0.01 " in format_event_line(rec)


# -- structured format ------------------------------------------------------------

def test_structured_line_carries_all_fields():
    rec = EventRecord(1, 0, "Network.ue.lte_nas", "lte_nas", 4, "NASMsg", "cMessage", 1)
    line = structured_line(rec)
    assert '"t_ns": 0' in line
    assert '"msg_name": "NASMsg"' in line
    assert parse_structured_line(line) == rec


def test_structured_round_trip_1000_records():
    records = [EventRecord(i + 1, i * 10, f"Network.m{i % 7}", "t", i % 5 + 1,
                           f"name{i}", "cMessage" if i % 2 else "cPacket", i + 1)
               for i in range(1000)]
    buf = io.StringIO()
    write_structured(records, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1000
    assert read_structured(lines) == records


def test_malformed_trace_reports_line_number():
    lines = [structured_line(EventRecord(1, 0, "a", "t", 1, "m", "cMessage", 1)),
             "{not json",
             ]
    with pytest.raises(MalformedTrace) as exc_info:
        read_structured(lines)
    assert exc_info.value.line_no == 2
    with pytest.raises(MalformedTrace) as exc_info:
        parse_structured_line('{"event_no": 1}', 5)
    assert str(exc_info.value) == "line 5: missing field 't_ns'"


_GOOD_RECORD = {"event_no": 1, "t_ns": 2, "path": "Network.x", "type": "x",
                "module_id": 3, "msg_name": "m", "msg_kind": "cMessage", "msg_id": 4}


@pytest.mark.parametrize("key, value", [
    (key, value)
    for key in ("event_no", "t_ns", "module_id", "msg_id")
    for value in (1.9, 2.0, "5", True, None, [])
] + [
    (key, value)
    for key in ("path", "type", "msg_name", "msg_kind")
    for value in (3, 2.5, True, None, [], {})
])
def test_a_field_of_the_wrong_json_type_is_malformed(key, value):
    line = json.dumps({**_GOOD_RECORD, key: value})
    with pytest.raises(MalformedTrace) as err:
        read_structured([json.dumps(_GOOD_RECORD), "", line])
    assert err.value.line_no == 3
    kind = "integer" if isinstance(_GOOD_RECORD[key], int) else "string"
    assert str(err.value) == f"line 3: field {key!r} is not a JSON {kind}"


# one test per rule on the values a run writes: each reads back at its
# bounds and is malformed, on its line, just past them
def _read_with(key, value):
    return parse_structured_line(json.dumps({**_GOOD_RECORD, key: value}))


def _rejected_at_line_3(key, value):
    line = json.dumps({**_GOOD_RECORD, key: value})
    with pytest.raises(MalformedTrace) as err:
        read_structured([json.dumps(_GOOD_RECORD), "", line])
    assert err.value.line_no == 3
    return str(err.value)


@pytest.mark.parametrize("t_ns", [-1, -(2**70), MAX_TIME_NS + 1])
def test_a_time_out_of_range_is_malformed(t_ns):
    for good in (0, MAX_TIME_NS):
        assert _read_with("t_ns", good).t_ns == good
    assert _rejected_at_line_3("t_ns", t_ns) == (
        f"line 3: field 't_ns' is {t_ns}, not in 0..{MAX_TIME_NS}")


@pytest.mark.parametrize("value", [0, -1, -3])
def test_an_event_number_below_1_is_malformed(value):
    assert _read_with("event_no", 1).event_no == 1
    assert _rejected_at_line_3("event_no", value) == (
        f"line 3: field 'event_no' is {value}, not at least 1")


@pytest.mark.parametrize("value", [0, -1, -3])
def test_a_module_id_below_1_is_malformed(value):
    assert _read_with("module_id", 1).module_id == 1
    assert _rejected_at_line_3("module_id", value) == (
        f"line 3: field 'module_id' is {value}, not at least 1")


@pytest.mark.parametrize("value", [0, -1, -3])
def test_a_message_id_below_1_is_malformed(value):
    assert _read_with("msg_id", 1).msg_id == 1
    assert _rejected_at_line_3("msg_id", value) == (
        f"line 3: field 'msg_id' is {value}, not at least 1")


@pytest.mark.parametrize("kind", ["bogus", "", "cmessage", "CONTROL_MESSAGE", " cPacket"])
def test_a_message_kind_no_run_writes_is_malformed(kind):
    for good in ("cMessage", "cPacket"):
        assert _read_with("msg_kind", good).msg_kind == good
    assert _rejected_at_line_3("msg_kind", kind) == (
        f"line 3: field 'msg_kind' is {kind!r}, not cMessage or cPacket")


def test_a_record_wrong_in_every_ranged_field_is_malformed_not_a_render_error():
    line = json.dumps({"event_no": 0, "t_ns": -1, "path": "Network.x", "type": "x",
                       "module_id": -3, "msg_name": "m", "msg_kind": "bogus", "msg_id": -1})
    with pytest.raises(MalformedTrace) as err:
        read_structured([line])
    # fields are checked in record order: event_no comes first
    assert str(err.value) == "line 1: field 'event_no' is 0, not at least 1"


def test_a_record_with_a_field_no_run_writes_is_malformed():
    good = json.dumps(_GOOD_RECORD)
    assert _rejected_at_line_3("extra", 5) == "line 3: unknown field 'extra'"
    assert _rejected_at_line_3("", "x") == "line 3: unknown field ''"
    with pytest.raises(MalformedTrace) as err:
        read_structured([good, "", good[:-1] + ', "msg_id": 5}'])
    assert str(err.value) == "line 3: field 'msg_id' given twice"
    with pytest.raises(MalformedTrace) as err:
        parse_structured_line('{"event_no": 1, ' + good[1:], 7)
    assert str(err.value) == "line 7: field 'event_no' given twice"


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=0, max_value=10**15),
       st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=20))
def test_structured_round_trip_property(no, t_ns, name):
    rec = EventRecord(no, t_ns, "Network.p", "t", 1, name, "cMessage", no)
    assert parse_structured_line(structured_line(rec)) == rec


# quotes, backslashes, the format's own delimiters, control characters,
# non-ASCII and astral text, plus anything else
_awkward_text = st.text(
    st.one_of(st.sampled_from('"\\\'`(),= \x00\x1f\x7f\n\t\u00e9\u2028\U0001f4e1'),
              st.characters()),
    max_size=24)
_ids = st.integers(min_value=0, max_value=2**63 - 1)
_t_ns = st.one_of(st.sampled_from([0, 1, NS_PER_S, MAX_TIME_NS]),
                  st.integers(min_value=0, max_value=MAX_TIME_NS))


@given(st.builds(EventRecord, _ids, _t_ns, _awkward_text, _awkward_text, _ids,
                 _awkward_text, _awkward_text, _ids))
def test_formatters_match_reference_renderers(rec):
    assert SimTime(rec.t_ns).seconds_str() == reference_seconds(rec.t_ns)
    assert format_event_line(rec) == reference_event_line(rec)
    assert structured_line(rec) == reference_structured_line(rec)
    assert_reads_back([rec])


@pytest.mark.parametrize("t_ns", [-1, MAX_TIME_NS + 1])
def test_format_rejects_time_out_of_range(t_ns):
    rec = EventRecord(1, t_ns, "Network.x", "x", 1, "m", "cMessage", 1)
    with pytest.raises(SimTimeRangeError):
        format_event_line(rec)


def test_format_reuses_a_repeated_time_and_still_rejects_out_of_range():
    times = [0, 0, 10_000_000, 10_000_000, 0, 1_500_000_000, MAX_TIME_NS, MAX_TIME_NS, 0]
    records = [EventRecord(i + 1, t, "Network.x", "x", 1, "m", "cMessage", 1)
               for i, t in enumerate(times)]
    assert [format_event_line(r) for r in records] == [reference_event_line(r)
                                                       for r in records]
    bad = EventRecord(1, MAX_TIME_NS + 1, "Network.x", "x", 1, "m", "cMessage", 1)
    for _ in range(2):  # a time that failed is not remembered
        with pytest.raises(SimTimeRangeError):
            format_event_line(bad)


# -- sinks ---------------------------------------------------------------------------

def test_sinks_render_each_module_by_path_type_and_id():
    # one path under three (type, id) pairs, and one id under two paths
    records = [
        EventRecord(1, 0, "Network.ue.lte_rrc", "lte_rrc", 5, "RRCMsg", "cMessage", 1),
        EventRecord(2, 10, "Network.ue.lte_rrc", "lte_pdcp", 6, "RRCMsg", "cMessage", 1),
        EventRecord(3, 20, "Network.ue.lte_rrc", "lte_rrc", 6, "RRCPck", "cPacket", 2),
        EventRecord(4, 30, "Other.ue.lte_rrc", "lte_rrc", 5, "RRCMsg", "cMessage", 1),
        EventRecord(5, 40, "Network.ue.lte_rrc", "lte_rrc", 5, "RRCMsg", "cMessage", 3),
    ]
    # one module seen under message names and kinds that differ alone,
    # interleaved, with each site repeated so later lines hit the cache
    site = ("Network.ue.lte_pdcp", "lte_pdcp", 7)
    for name, kind in [("PDCPMsg", "cMessage"), ("PDCPMsg", "cPacket"),
                       ("PDCPPck", "cMessage"), ("PDCPMsg", "cMessage"),
                       ("PDCPPck", "cMessage"), ("PDCPMsg", "cPacket"),
                       ("RRCMsg", "cMessage"), ("PDCPMsg", "cMessage")]:
        no = len(records) + 1
        records.append(EventRecord(no, 50, *site, name, kind, no))
    # and the first sites again, at a later time with new message ids
    records += [replace(rec, event_no=len(records) + i, t_ns=60, msg_id=100 + i)
                for i, rec in enumerate(records[:5], 1)]
    for entry in ("record", "on_events"):
        paper_buf, struct_buf = io.StringIO(), io.StringIO()
        paper, structured = PaperTraceSink(paper_buf), StructuredTraceSink(struct_buf)
        if entry == "record":
            for rec in records:
                paper.record(rec)
                structured.record(rec)
        else:
            show_in_chunks(paper, records, cuts=[3, 7, 8])
            show_in_chunks(structured, records, cuts=[3, 7, 8])
        assert paper_buf.getvalue().splitlines() == [reference_event_line(r)
                                                     for r in records]
        assert struct_buf.getvalue().splitlines() == [reference_structured_line(r)
                                                      for r in records]


_MINIMAL = parse(MINIMAL_SOURCE).spec

# a site is the five fields a module's lines share: path, type, module id,
# message name and message kind
_sites = st.lists(st.tuples(_awkward_text, _awkward_text, _ids, _awkward_text,
                            _awkward_text), min_size=1, max_size=4)


# a few fire times, so that consecutive lines often share one
_times = st.lists(_t_ns, min_size=1, max_size=3)


@st.composite
def _chunked_records(draw):
    """Consecutively numbered records over a few sites and times, and the
    cut points of a chunking: every record alone, all at once, or drawn."""
    sites, times = draw(_sites), draw(_times)
    first_no = draw(_ids)
    records = draw(st.lists(
        st.builds(lambda site, t_ns, msg_id: EventRecord(0, t_ns, *site, msg_id),
                  st.sampled_from(sites), st.sampled_from(times), _ids),
        min_size=1, max_size=20))
    records = [replace(rec, event_no=first_no + i) for i, rec in enumerate(records)]
    inner = range(1, len(records))
    cuts = draw(st.one_of(st.just(list(inner)), st.just([]),
                          st.lists(st.sampled_from(inner), unique=True)
                          if inner else st.just([])))
    return records, cuts


@given(_chunked_records())
def test_sinks_match_reference_renderers_over_a_few_sites(chunked):
    """Both entries of each trace sink, `record` and the `on_events` that
    Simulator.run calls, render every line as the reference renderers do,
    however the rows are cut into chunks, so sites and the last time
    string carry across chunk edges; a TraceSink writing both formats to
    one stream puts each event's two lines together; and MetricsSink folds
    the same metrics through either entry."""
    records, cuts = chunked
    paper_buf, struct_buf, written = io.StringIO(), io.StringIO(), io.StringIO()
    paper, structured = PaperTraceSink(paper_buf), StructuredTraceSink(struct_buf)
    batch_paper_buf, batch_struct_buf = io.StringIO(), io.StringIO()
    batch_paper = PaperTraceSink(batch_paper_buf)
    batch_structured = StructuredTraceSink(batch_struct_buf)
    # both formats from one sink, to two streams and to one
    two_paper_buf, two_struct_buf, one_buf = io.StringIO(), io.StringIO(), io.StringIO()
    metrics, batch_metrics = MetricsSink(_MINIMAL), MetricsSink(_MINIMAL)
    for rec in records:
        paper.record(rec)
        structured.record(rec)
        metrics.record(rec)
    for sink in (batch_paper, batch_structured, batch_metrics,
                 TraceSink(two_paper_buf, two_struct_buf), TraceSink(one_buf, one_buf)):
        show_in_chunks(sink, records, cuts)
    write_structured(records, written)
    # awkward paths and names may hold line breaks: compare whole texts
    want_paper = [reference_event_line(r) + "\n" for r in records]
    want = "".join(want_paper)
    assert (paper_buf.getvalue() == batch_paper_buf.getvalue() == two_paper_buf.getvalue()
            == want)
    want_structured = [reference_structured_line(r) + "\n" for r in records]
    want = "".join(want_structured)
    assert (struct_buf.getvalue() == batch_struct_buf.getvalue() == written.getvalue()
            == two_struct_buf.getvalue() == want)
    assert one_buf.getvalue() == "".join(p + s for p, s in zip(want_paper, want_structured))
    assert (json.dumps(batch_metrics.finish().to_json_dict())
            == json.dumps(metrics.finish().to_json_dict()))
    assert_reads_back(records)


def test_sinks_shared_by_runs_of_two_topologies(minimal_spec, multi_ue_spec):
    paper_buf, struct_buf = io.StringIO(), io.StringIO()
    sinks = [PaperTraceSink(paper_buf), StructuredTraceSink(struct_buf)]
    records = []
    for spec in (minimal_spec, multi_ue_spec):
        collector = CollectingSink()
        build(spec).simulator().run(until=SimTime.from_millis(15),
                                    sinks=sinks + [collector])
        records.append(collector.records)
    # the core modules keep their paths but not their ids across the two
    ids = [{r.path: r.module_id for r in recs} for recs in records]
    assert any(ids[1].get(path) not in (None, mid) for path, mid in ids[0].items())
    records = records[0] + records[1]
    assert paper_buf.getvalue().splitlines() == [reference_event_line(r) for r in records]
    assert struct_buf.getvalue().splitlines() == [reference_structured_line(r)
                                                  for r in records]


def test_sinks_write_one_line_per_event(minimal_spec):
    paper_buf, struct_buf = io.StringIO(), io.StringIO()
    built = build(minimal_spec)
    sim = built.simulator()
    summary = sim.run(until=SimTime.from_millis(15),
                      sinks=[PaperTraceSink(paper_buf), StructuredTraceSink(struct_buf)])
    paper_lines = paper_buf.getvalue().splitlines()
    struct_lines = struct_buf.getvalue().splitlines()
    assert len(paper_lines) == len(struct_lines) == summary.events_executed
    assert paper_lines[0].startswith("** Event #1 T=0 Network.ue.lte_nas")


def test_two_runs_byte_identical(minimal_spec):
    outputs = []
    for _ in range(2):
        paper_buf, struct_buf = io.StringIO(), io.StringIO()
        built = build(minimal_spec)
        sim = built.simulator()
        sim.run(until=minimal_spec.until,
                sinks=[PaperTraceSink(paper_buf), StructuredTraceSink(struct_buf)])
        outputs.append((paper_buf.getvalue(), struct_buf.getvalue()))
    assert outputs[0] == outputs[1]


# -- oracle ---------------------------------------------------------------------------

def test_zero_delay_emissions_oracle():
    ms = SimTime.from_millis
    assert zero_delay_emissions(SimTime.from_seconds(1), ms(10)) == 100
    assert zero_delay_emissions(SimTime(1), ms(10)) == 1
    assert zero_delay_emissions(ms(10), ms(10)) == 1      # until is exclusive
    assert zero_delay_emissions(SimTime(0), ms(10)) == 0
    assert zero_delay_emissions(ms(25), ms(10), start=ms(5)) == 2


def test_expected_event_total_minimal(minimal_spec):
    # 100 trips of 38 hops plus 99 re-arm timers
    assert expected_event_total(minimal_spec) == 100 * 38 + 99


def test_data_walk_length_is_38(minimal_spec):
    assert len(data_walk(minimal_spec, "ue")) == 38


def test_timer_hop_path(minimal_spec):
    assert timer_hop(minimal_spec, "ue") == ("Network.ue.generator", "GenTimer")


def per_ue_source(ues, enbs):
    """One attach and one generator statement per UE, short horizon."""
    lines = [f"network Net {{ ue u[{ues}]; enb e[{enbs}]; sgw_mme s; pdn_gw p;"]
    for i in range(ues):
        lines.append(f"attach u[{i}] -> e[{i % enbs}];")
        lines.append(f"generator on u[{i}] {{ period {1 + i % 2}ms; "
                     f"start {i % 3}ms; }}")
    lines.append("run until 3ms; }")
    return "\n".join(lines)


def test_each_statement_resolved_once_by_build_and_oracle(monkeypatch):
    from lteadv_sim import netconfig
    spec = parse(per_ue_source(1000, 10)).spec
    statements = len(spec.node_decls) + len(spec.attachments) + len(spec.generators) + 1
    resolutions = 0
    resolve = netconfig._resolve

    def counting_resolve(*args, **kwargs):
        nonlocal resolutions
        resolutions += 1
        return resolve(*args, **kwargs)

    monkeypatch.setattr(netconfig, "_resolve", counting_resolve)
    counts = {}
    results = {}
    for name, call in (("build", lambda: build(spec)),
                       ("summarize", lambda: summarize([], spec)),
                       ("expected_event_total", lambda: expected_event_total(spec))):
        resolutions = 0
        results[name] = call()
        counts[name] = resolutions
    assert all(n <= statements for n in counts.values()), (counts, statements)

    summary = results["build"].simulator().run(until=spec.until)
    assert summary.events_executed == results["expected_event_total"] > 0


# -- summarize -----------------------------------------------------------------------

def test_summarize_minimal_run(minimal_spec):
    records, summary, built = run_spec(minimal_spec)
    metrics = summarize(records, minimal_spec, summary)
    assert metrics.total_events == summary.events_executed
    assert metrics.round_trips == 100
    assert metrics.path_mismatches == []
    assert all(rtt == SimTime(0) for rtt in metrics.per_message_rtt.values())
    data_ids = [mid for mid, hops in metrics.per_message_hops.items() if hops == 38]
    assert len(data_ids) == 100
    assert metrics.events_per_wall_second is not None
    assert metrics.drops == {}
    # round trips equal the generator's discard count
    assert metrics.round_trips == built.nodes["ue"].generator.stats.discarded


def test_metrics_sink_holds_no_event_record(minimal_spec):
    metrics_sink = MetricsSink(minimal_spec)
    build(minimal_spec).simulator().run(until=SimTime.from_millis(35),
                                        event_limit=100, sinks=[metrics_sink])
    # everything the sink's state reaches, short of classes and the modules
    # their methods reach
    seen, todo = set(), list(vars(metrics_sink).values())
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            assert not isinstance(obj, EventRecord)
            todo.extend(gc.get_referents(obj))
    assert len(seen) > 100
    assert metrics_sink.finish().total_events == 100


def test_summarize_empty_trace(minimal_spec):
    metrics = summarize([], minimal_spec)
    assert metrics.total_events == 0
    assert metrics.round_trips == 0
    assert metrics.per_message_hops == {}
    assert metrics.path_mismatches == []


def test_summarize_flags_corrupted_sequence(minimal_spec):
    records, summary, built = run_spec(minimal_spec, until=SimTime(1))
    # swap two adjacent hops of the single round trip
    records[3], records[4] = records[4], records[3]
    metrics = summarize(records, minimal_spec, summary)
    assert metrics.round_trips == 0
    assert metrics.path_mismatches


def test_summarize_accepts_in_flight_prefix(minimal_spec):
    records, summary, built = run_spec(minimal_spec, until=SimTime(1), event_limit=10)
    metrics = summarize(records, minimal_spec, summary)
    assert metrics.round_trips == 0
    assert metrics.path_mismatches == []
    assert metrics.per_message_hops[records[0].msg_id] == 10


def test_summarize_counts_drops_for_generatorless_ue():
    # synthetic: a spec whose UE has no generator; a full walk ends at the
    # NAS and counts as a drop there
    source = MINIMAL_SOURCE.replace("    generator on ue { period 10ms; }\n", "")
    spec = parse(source).spec
    walk = data_walk(spec, "ue")
    assert walk[-1] == ("Network.ue.lte_nas", "NASMsg")
    records = [EventRecord(i + 1, 0, path, path.rsplit(".", 1)[1], i + 1, name,
                           "cMessage", 7)
               for i, (path, name) in enumerate(walk)]
    metrics = summarize(records, spec)
    assert metrics.drops == {"Network.ue.lte_nas": 1}
    assert metrics.round_trips == 0
    assert metrics.path_mismatches == []


def test_summarize_mismatch_wordings(minimal_spec):
    """The two mismatch wordings no run produces, pinned byte for byte: a
    first hop that starts no walk, and a full walk that runs on."""
    def records(msg_id, hops):
        return [EventRecord(i + 1, 0, path, path.rsplit(".", 1)[1], i + 1, name,
                            "cMessage", msg_id)
                for i, (path, name) in enumerate(hops)]
    walk = data_walk(minimal_spec, "ue")
    stray = records(5, [("Network.enb.lte_phy", "PHYMsg")])
    overlong = records(7, walk + [("Network.ue.lte_nas", "NASMsg")])
    metrics = summarize(stray + overlong, minimal_spec)
    assert metrics.path_mismatches == [
        "msg 5: unexpected first hop ('Network.enb.lte_phy', 'PHYMsg')",
        "msg 7: 39 hops, expected 38",
    ]
    assert metrics.round_trips == 0


def test_summarize_repeated_runs_identical(minimal_spec):
    firsts = []
    for _ in range(2):
        records, summary, _ = run_spec(minimal_spec)
        metrics = summarize(records, minimal_spec)
        firsts.append((metrics.total_events, metrics.round_trips,
                       sorted(metrics.per_message_hops.items()),
                       sorted((k, v.ns) for k, v in metrics.per_message_rtt.items())))
    assert firsts[0] == firsts[1]


def test_metrics_json_dict_is_serializable(minimal_spec):
    import json
    records, summary, _ = run_spec(minimal_spec, until=SimTime.from_millis(30))
    metrics = summarize(records, minimal_spec, summary)
    blob = json.dumps(metrics.to_json_dict())
    assert '"round_trips": 3' in blob


def test_nonzero_link_delay_shows_up_in_rtt():
    source = MINIMAL_SOURCE.replace(
        "    attach ue -> enb;",
        "    attach ue -> enb;\n    link enb -> sgw_mme delay 1ms;")
    spec = parse(source).spec
    records, summary, built = run_spec(spec)
    metrics = summarize(records, spec, summary)
    # the backhaul link is crossed twice per trip
    assert set(t.ns for t in metrics.per_message_rtt.values()) == {2_000_000}
    assert metrics.path_mismatches == []  # same walk, later timestamps
    # return-gated emission: one trip per (period + rtt) step
    assert metrics.round_trips == (1_000_000_000 - 1) // 12_000_000 + 1
    assert built.nodes["ue"].generator.stats.discarded == metrics.round_trips
