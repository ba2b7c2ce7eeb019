"""Cross-module properties over generated topologies.

Invariants that should hold for any wellformed network description: the
canonical printing round-trips through the parser unchanged, one mistake
in its generator block is one diagnostic, a zero-delay run conserves
messages with every visited path matching the chain-walk oracle,
drawn layer stacks leave every round trip on the oracle's walk,
dispatching returned hops at once changes nothing against queueing
every one of them, the run loop matches a plain-heap reference loop,
hopping over relay links changes nothing against calling every
handler, each event is one handle_message call whenever handlers are
wrapped (a wrapped handler turns the relay links off), the streaming
metrics fold gives the reference summarize's metrics on any trace, cut
short or corrupted, and the built-in sinks' `on_events` entry, fed in
chunks that tile the run, gives what their `record` entry would.
"""

import contextlib
import dataclasses
import heapq
import io
import itertools
import json
import re
from collections import Counter

from hypothesis import given, settings, strategies as st

from lteadv_sim import (CollectingSink, MetricsSink, PaperTraceSink, StructuredTraceSink,
                        TraceSink, build, parse)
from lteadv_sim.kernel import CHUNK_ROWS, EventRecord, MessageKind, SimTime, StopReason
from lteadv_sim.netconfig import (AttachDecl, GeneratorDecl, LinkDecl, NetworkSpec,
                                  NodeDecl, Selector, SelectorKind, format_spec,
                                  validate)
from lteadv_sim.lte_nodes import (Forwarder, LayerSpec, NodeType, PhyLayer, RadioInterface,
                                  ReflectorLayer)
from lteadv_sim.model import IN_FROM_LOWER, RADIO_IN, ModuleNode
from lteadv_sim.traffic import GeneratorConfig
from lteadv_sim.trace import (format_event_line, read_structured, summarize,
                              write_structured, zero_delay_emissions)

from reference_summarize import summarize as reference_summarize

PERIODS_MS = (5, 10, 20)


def _selector_for(name, count, index, want_all):
    """Some way of addressing instance `index` (or all) of a declaration."""
    if count is None:
        return Selector(name)
    if want_all:
        return Selector(name, SelectorKind.STAR)
    return Selector(name, SelectorKind.INDEX, index)


@st.composite
def network_specs(draw):
    n_ue = draw(st.integers(min_value=1, max_value=3))
    n_enb = draw(st.integers(min_value=1, max_value=2))
    ue_vector = draw(st.booleans()) or n_ue > 1
    enb_vector = draw(st.booleans()) or n_enb > 1

    decls = [
        NodeDecl(NodeType.UE, "u", n_ue if ue_vector else None),
        NodeDecl(NodeType.ENB, "e", n_enb if enb_vector else None),
        NodeDecl(NodeType.SGW_MME, "core", None),
        NodeDecl(NodeType.PDN_GW, "edge", None),
    ]

    attachments = []
    for i in range(n_ue):
        enb_idx = draw(st.integers(min_value=0, max_value=n_enb - 1))
        attachments.append(AttachDecl(
            _selector_for("u", n_ue if ue_vector else None, i, want_all=False),
            _selector_for("e", n_enb if enb_vector else None, enb_idx, want_all=False)))

    links = []
    for i in range(n_enb):
        delay_ms = draw(st.sampled_from((None, 0, 1, 2)))
        if delay_ms is not None:
            links.append(LinkDecl(
                _selector_for("e", n_enb if enb_vector else None, i, want_all=False),
                Selector("core"),
                SimTime.from_millis(delay_ms) if delay_ms else None))
    if draw(st.booleans()):
        delay_ms = draw(st.sampled_from((0, 1, 2)))
        links.append(LinkDecl(
            Selector("core"), Selector("edge"),
            SimTime.from_millis(delay_ms) if delay_ms else None))

    generators = []
    gen_on_all = draw(st.booleans())
    period = SimTime.from_millis(draw(st.sampled_from(PERIODS_MS)))
    kind = draw(st.sampled_from(list(MessageKind)))
    config = GeneratorConfig(
        period=period,
        payload_kind=kind,
        payload_bytes=100 if kind is MessageKind.PACKET else 0)
    if gen_on_all or not ue_vector:
        generators.append(GeneratorDecl(
            _selector_for("u", n_ue if ue_vector else None, 0, want_all=True),
            config))
    else:
        generators.append(GeneratorDecl(
            Selector("u", SelectorKind.INDEX, 0), config))

    return NetworkSpec(
        network_name="Network",
        node_decls=decls,
        attachments=attachments,
        links=links,
        generators=generators,
        until=SimTime.from_millis(draw(st.sampled_from((25, 40, 60)))),
        seed=draw(st.sampled_from((None, 0, 7))),
    )


@given(network_specs())
@settings(max_examples=40, deadline=None)
def test_generated_specs_round_trip_through_printing(spec):
    assert validate(spec) == []
    printed = format_spec(spec)
    result = parse(printed)
    assert result.ok, result.diagnostics
    assert result.spec == spec
    assert format_spec(result.spec) == printed


@given(network_specs())
@settings(max_examples=25, deadline=None)
def test_generated_specs_run_conserved_and_oracle_clean(spec):
    built = build(spec)
    sim = built.simulator()
    sink = CollectingSink()
    summary = sim.run(until=spec.until, sinks=[sink])
    metrics = summarize(sink.records, spec, summary)
    assert metrics.path_mismatches == []
    assert metrics.total_events == summary.events_executed

    zero_delay = not spec.links or all(
        link.delay is None or link.delay.ns == 0 for link in spec.links)
    expected_trips = 0
    in_flight = 0
    for name, node in built.nodes.items():
        gen = getattr(node, "generator", None)
        if gen is None or not gen.enabled:
            continue
        stats = gen.stats
        assert stats.discarded == stats.returned
        assert stats.emitted - stats.discarded in (0, 1)
        in_flight += stats.emitted - stats.discarded
        if zero_delay:
            assert stats.emitted == zero_delay_emissions(
                spec.until, gen.config.period, gen.config.start_time)
            assert stats.emitted == stats.discarded
        expected_trips += stats.discarded
    assert metrics.round_trips == expected_trips
    if zero_delay:
        assert in_flight == 0
        assert all(rtt.ns == 0 for rtt in metrics.per_message_rtt.values())


# drawn stacks: module names never include the reserved "generator" and
# "lte_radio"; the (fewest, most) layers per kind, where the air hop
# needs a top layer and a PHY
_LAYER_NAMES = ("lte_nas", "lte_rrc", "lte_pdcp", "lte_rlc", "lte_mac", "lte_phy",
                "lte_gtp", "lte_s1", "lte_s5", "lte_ip", "lte_x2", "relay")
_LAYER_TAGS = ("NAS", "RRC", "MAC", "PHY", "GTP", "S1", "IP", "X2")
_STACK_SIZES = {NodeType.UE: (2, 4), NodeType.ENB: (2, 4),
                NodeType.SGW_MME: (1, 3), NodeType.PDN_GW: (1, 3)}


@st.composite
def specs_with_stacks(draw):
    """network_specs() with a drawn chain override for some node kinds."""
    spec = draw(network_specs())
    for kind, (fewest, most) in _STACK_SIZES.items():
        if draw(st.booleans()):
            names = draw(st.lists(st.sampled_from(_LAYER_NAMES), min_size=fewest,
                                  max_size=most, unique=True))
            spec.chain_overrides[kind] = tuple(
                LayerSpec(draw(st.sampled_from(_LAYER_TAGS)), name) for name in names)
    return spec


@given(specs_with_stacks())
@settings(deadline=None)
def test_drawn_stacks_run_oracle_clean(spec):
    assert validate(spec) == []
    built = build(spec)
    sink = CollectingSink()
    summary = built.simulator().run(until=spec.until, sinks=[sink])
    metrics = summarize(sink.records, spec, summary)
    assert metrics.path_mismatches == []
    returned = sum(node.generator.stats.returned for node in built.nodes.values()
                   if node.generator is not None)
    assert metrics.round_trips == returned > 0  # u[0]'s first trip is back by 8 ms


_GENERATOR_OPTIONS = ("period", "start", "payload")
_unknown_options = st.builds(
    "{} {};".format,
    st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True).filter(
        lambda word: word not in _GENERATOR_OPTIONS),
    st.sampled_from(("1", "1ms", "packet 3", "message")))


@given(network_specs(), st.data())
def test_generator_option_mistake_reported_once_on_its_line(spec, data):
    """An unknown or repeated option in a generator block is one
    diagnostic on the block's line; parsing resumes after the block."""
    lines = format_spec(spec).split("\n")
    row = next(i for i, line in enumerate(lines) if "generator on" in line)
    head, _, body = lines[row].partition("{ ")
    options = re.findall(r"[^ ;][^;]*;", body)
    mistake = data.draw(st.one_of(st.sampled_from(options), _unknown_options))
    options.insert(data.draw(st.integers(0, len(options))), mistake)
    lines[row] = head + "{ " + " ".join(options) + " }"
    result = parse("\n".join(lines))
    assert result.spec is None
    assert [d.line for d in result.diagnostics] == [row + 1], result.diagnostics


def _queue_every_hop(sim):
    """Make every handler push the hop it returns and return None, so the
    run loop queues each event, as it did before returned hops existed.
    Returns the list of the modules the handlers were called at, one entry
    per call."""
    calls = []
    for module in sim.root.iter_tree():
        def handle_message(msg, arrival_gate, handle=module.handle_message,
                           module=module):
            calls.append(module)
            hop = handle(msg, arrival_gate)
            if hop is not None:
                sim.fes.push(sim.now_ns, sim.now_ns, *hop)
        module.handle_message = handle_message
    return calls


def _relay_links(root):
    """Every gate in the tree that has a relay link."""
    return [gate for module in root.iter_tree() for gate in module._gates.values()
            if gate.relay_to is not None]


def _run_traced(spec, event_limit, queue_every_hop):
    sim = build(spec).simulator()
    calls = _queue_every_hop(sim) if queue_every_hop else None
    out = io.StringIO()
    summary = sim.run(until=spec.until, event_limit=event_limit,
                      sinks=[StructuredTraceSink(out)])
    if queue_every_hop:
        # an instance handler turns a stock layer's relay links off, so
        # every event was a wrapped call and every returned hop was pushed
        assert _relay_links(sim.root) == []
        assert len(calls) == summary.events_executed
    return (out.getvalue(), summary.events_executed, summary.stop_reason,
            sim.now_ns, len(sim.fes))


@given(network_specs(), st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_returned_hops_dispatch_in_queue_order(spec, event_limit):
    assert (_run_traced(spec, event_limit, queue_every_hop=False)
            == _run_traced(spec, event_limit, queue_every_hop=True))


class _HeapFES:
    """A future event set that is one plain heapq ordered by (t_ns, seq)."""

    def __init__(self):
        self.heap = []
        self._seq = itertools.count()

    def push(self, t_ns, now_ns, target, gate_label, msg):
        assert t_ns >= now_ns
        heapq.heappush(self.heap, (t_ns, next(self._seq), target, gate_label, msg))

    def __len__(self):
        return len(self.heap)


def _reference_run(spec, event_limit):
    """Run `spec` as Simulator.run does, but pop one event at a time from
    a `_HeapFES` and push every returned hop."""
    sim = build(spec).simulator()
    sim.fes = fes = _HeapFES()
    sim.root.lock_and_number()
    for module in sim.root.iter_tree():
        module.on_start(sim)
    out = io.StringIO()
    sink = StructuredTraceSink(out)
    executed = 0
    while True:
        if event_limit is not None and executed >= event_limit:
            reason = StopReason.EVENT_LIMIT
            break
        if not fes.heap or fes.heap[0][0] >= spec.until.ns:
            reason = StopReason.TIME_LIMIT if fes.heap else StopReason.FES_EMPTY
            break
        t_ns, _, target, gate_label, msg = heapq.heappop(fes.heap)
        sim.now_ns = t_ns
        executed += 1
        sink.record(EventRecord(executed, t_ns, target._path, target.type_name,
                                target.module_id, msg.name, msg.kind_label, msg.msg_id))
        hop = target.handle_message(msg, gate_label)
        if hop is not None:
            fes.push(t_ns, t_ns, *hop)
    return out.getvalue(), executed, reason, sim.now_ns, len(fes)


@given(st.one_of(network_specs(), specs_with_stacks()),
       st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_relay_links_change_nothing(spec, event_limit):
    """Hopping over relay links, against the same run with every handler
    called: wrapping the handler every class defines itself, as
    `_counting_handler_calls` does, turns every link off. The linked run
    links every radio to its PHY, every PHY up, and the reflector down
    unless its down gate is delayed."""
    def run():
        built = build(spec)
        sim = built.simulator()
        out = io.StringIO()
        summary = sim.run(until=spec.until, event_limit=event_limit,
                          sinks=[StructuredTraceSink(out)])
        drops = [(module.full_path, module.drop_count) for module in built.root.iter_tree()
                 if isinstance(module, Forwarder)]
        return (out.getvalue(), summary.events_executed, summary.stop_reason,
                sim.now_ns, len(sim.fes), drops), built

    linked, built = run()
    with _counting_handler_calls(Counter()):
        unlinked, unlinked_built = run()
    assert _relay_links(unlinked_built.root) == []
    assert linked == unlinked
    modules = list(built.root.iter_tree())
    radios = [module for module in modules if isinstance(module, RadioInterface)]
    phys = [module for module in modules if isinstance(module, PhyLayer)]
    reflector, = [module for module in modules if isinstance(module, ReflectorLayer)]
    assert radios and all(radio._gates[RADIO_IN].relay_to is radio.up_gate.peer
                          for radio in radios)
    assert phys and all(phy._gates[IN_FROM_LOWER].relay_to is phy.up_gate.peer
                        for phy in phys)
    down = reflector.down_gate
    assert reflector._gates[IN_FROM_LOWER].relay_to is (None if down.delay_ns else down.peer)
    # and more: every UE's top layer links down
    assert {gate.owner for gate in _relay_links(built.root)} > {*radios, *phys}


@given(network_specs(), st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_run_matches_a_plain_heap_reference_loop(spec, event_limit):
    """The time-bucket lane and returned-hop dispatch, against a loop
    that shares neither."""
    assert (_run_traced(spec, event_limit, queue_every_hop=False)
            == _reference_run(spec, event_limit))


def _module_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _module_classes(sub)


@contextlib.contextmanager
def _counting_handler_calls(calls):
    """Count handle_message calls per type_name by wrapping the
    handle_message each ModuleNode class defines itself, as the bench's
    per-layer tracing does; restore them all on exit."""
    originals = [(cls, vars(cls)["handle_message"])
                 for cls in dict.fromkeys(_module_classes(ModuleNode))
                 if "handle_message" in vars(cls)]

    def counting(handle):
        def handle_message(module, msg, arrival_gate):
            calls[module.type_name] += 1
            return handle(module, msg, arrival_gate)
        return handle_message

    try:
        for cls, handle in originals:
            cls.handle_message = counting(handle)
        yield
    finally:
        for cls, handle in originals:
            cls.handle_message = handle


@given(network_specs(), st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_each_event_is_one_handler_call(spec, event_limit):
    """While every class's handler is wrapped, as the bench's traced run
    wraps them, no relay link is set, so every event reaches a handler;
    and no handler calls another class's handle_message for the same
    event, so per-type handler counts are per-type event counts."""
    calls = Counter()
    out = io.StringIO()
    with _counting_handler_calls(calls):
        built = build(spec)
        summary = built.simulator().run(until=spec.until, event_limit=event_limit,
                                        sinks=[StructuredTraceSink(out)])
        assert _relay_links(built.root) == []
    traced = Counter(rec.type_name for rec in read_structured(out.getvalue().splitlines()))
    assert calls == traced
    assert sum(calls.values()) == summary.events_executed


def _collect(spec, event_limit):
    sink = CollectingSink()
    summary = build(spec).simulator().run(until=spec.until, event_limit=event_limit,
                                         sinks=[sink])
    return sink.records, summary


def _assert_fold_matches_reference(records, spec, summary):
    # json.dumps keeps key order, so first-seen msg_id order is compared too
    assert (json.dumps(summarize(records, spec, summary).to_json_dict())
            == json.dumps(reference_summarize(records, spec, summary).to_json_dict()))


@given(network_specs(), st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_metrics_fold_matches_reference_summarize(spec, event_limit):
    """A run stopped anywhere leaves messages in flight: their prefixes
    must be told apart from mismatches exactly as before."""
    records, summary = _collect(spec, event_limit)
    _assert_fold_matches_reference(records, spec, summary)


def _hop_of(records, data):
    if not records:
        return "Network.nowhere", "NoMsg"
    rec = data.draw(st.sampled_from(records))
    return rec.path, rec.msg_name


def _corrupt(records, kind, data):
    """Return records with one corruption of the given kind applied."""
    records = list(records)
    at = data.draw(st.integers(0, max(len(records) - 1, 0)))
    if kind == "drop" and records:
        del records[at]
    elif kind == "duplicate" and records:
        records.insert(at, records[at])
    elif kind == "rename" and records:
        path, name = _hop_of(records, data)
        field = data.draw(st.sampled_from(("path", "msg_name", "both")))
        records[at] = dataclasses.replace(
            records[at],
            path=path if field != "msg_name" else records[at].path,
            msg_name=name if field != "path" else records[at].msg_name)
    elif kind == "stray":
        path, name = _hop_of(records, data)
        msg_id = max((r.msg_id for r in records), default=0) + 1
        records.insert(at, EventRecord(0, 0, path, "stray", 0, name, "cMessage", msg_id))
    elif kind == "timer_twice":
        timers = [i for i, r in enumerate(records) if r.msg_name == "GenTimer"]
        if timers:
            i = data.draw(st.sampled_from(timers))
            records.insert(data.draw(st.integers(i + 1, len(records))), records[i])
    elif kind == "overlong" and records:
        path, name = _hop_of(records, data)
        records.append(dataclasses.replace(records[at], path=path, msg_name=name))
    return records


_CORRUPTIONS = ("drop", "duplicate", "rename", "stray", "timer_twice", "overlong")


@given(network_specs(), st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
       st.lists(st.sampled_from(_CORRUPTIONS), min_size=1, max_size=3), st.data())
@settings(deadline=None)
def test_metrics_fold_matches_reference_summarize_on_corrupted_traces(
        spec, event_limit, corruptions, data):
    """Dropped, duplicated, renamed and stray records, a timer seen twice
    and a walk that runs on: every mismatch wording and its order match."""
    records, summary = _collect(spec, event_limit)
    for kind in corruptions:
        records = _corrupt(records, kind, data)
    _assert_fold_matches_reference(records, spec, summary)


class _RecordOnlySink:
    """A sink with only `record`: the run hands it an EventRecord at the
    event, before the handler, so the clock reads the event's time."""

    def __init__(self, sim):
        self.sim = sim
        self.records = []

    def record(self, rec):
        assert self.sim.now_ns == rec.t_ns
        self.records.append(rec)


class _ChunkSink:
    """A sink with `on_events` and `record`: the run must call `on_events`
    alone, with chunks that are never empty. Keeps each chunk's first
    event number, its length and how many of its rows come before its
    last time bucket."""

    def __init__(self):
        self.chunks = []

    def on_events(self, first_no, rows):
        assert rows
        last_t = rows[-1][0]
        self.chunks.append((first_no, len(rows), sum(row[0] < last_t for row in rows)))

    def record(self, rec):
        raise AssertionError("record called on a sink that has on_events")


_CHUNK_LIMITS = (CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS)


@st.composite
def _specs_and_limits(draw):
    """A drawn spec and event limit; a limit at a chunk edge runs the spec
    for 1 s, in which every drawn spec runs more than 2 * CHUNK_ROWS
    events."""
    spec = draw(network_specs())
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=1500),
                           st.sampled_from(_CHUNK_LIMITS)))
    if limit in _CHUNK_LIMITS:
        spec = dataclasses.replace(spec, until=SimTime.from_seconds(1))
    return spec, limit


@given(_specs_and_limits())
@settings(deadline=None)
def test_batch_sinks_match_the_record_path(spec_and_limit):
    """In one run, the built-in sinks' `on_events` entry writes the same
    traces, from one-format sinks and from a TraceSink writing both, and
    folds the same metrics as rendering and summarizing the records a
    CollectingSink kept, a record-only sink gets those same records at
    their events, and the chunks tile the events 1..N: each
    but the last holds at least CHUNK_ROWS rows, fewer than CHUNK_ROWS of
    them before its last time bucket."""
    spec, event_limit = spec_and_limit
    paper_out, structured_out = io.StringIO(), io.StringIO()
    both_paper_out, both_structured_out = io.StringIO(), io.StringIO()
    sim = build(spec).simulator()
    metrics, collector = MetricsSink(spec), CollectingSink()
    record_only, chunked = _RecordOnlySink(sim), _ChunkSink()
    summary = sim.run(
        until=spec.until, event_limit=event_limit,
        sinks=[PaperTraceSink(paper_out), StructuredTraceSink(structured_out), metrics,
               collector, record_only, chunked,
               TraceSink(both_paper_out, both_structured_out)])
    records = collector.records
    assert len(records) == summary.events_executed
    if event_limit in _CHUNK_LIMITS:
        assert summary.events_executed == event_limit
    assert (paper_out.getvalue() == both_paper_out.getvalue()
            == "".join(format_event_line(rec) + "\n" for rec in records))
    written = io.StringIO()
    write_structured(records, written)
    assert structured_out.getvalue() == both_structured_out.getvalue() == written.getvalue()
    assert (json.dumps(metrics.finish(summary).to_json_dict())
            == json.dumps(summarize(records, spec, summary).to_json_dict()))
    assert record_only.records == records
    next_no = 1
    for i, (first_no, n, before_last_bucket) in enumerate(chunked.chunks):
        assert first_no == next_no
        next_no += n
        if i < len(chunked.chunks) - 1:
            assert n >= CHUNK_ROWS > before_last_bucket
    assert next_no == summary.events_executed + 1
