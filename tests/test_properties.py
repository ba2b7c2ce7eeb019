"""Cross-module properties over generated topologies.

Invariants that should hold for any wellformed network description: the
canonical printing round-trips through the parser unchanged, one mistake
in its generator block is one diagnostic, a run binds every module and
numbers it as assign_ids() does, a zero-delay run conserves messages
with every visited path matching the chain-walk oracle,
drawn layer stacks are wired both ways with their channels' delays and
leave every round trip on the oracle's walk,
dispatching returned hops at once changes nothing against queueing
every one of them, the run loop matches a plain-heap reference loop,
hopping over relay links changes nothing against calling every
handler, nor does jumping whole walks of links and route steps in a run
with no sink against making every hop, also with a PHY or S1 handler
set on the instance, nor does a generator's timer returning its
emission as a hop against pushing it, nor a generator's `on_start` that
skips the stock one, nor making a bucket's lane of stock generators'
timers, or of the first emissions, into whole trips at once, with shared
starts, also on the benchmark's own texts, at every event limit, at
limits inside such a lane and after a handler error (a lane that holds
one message twice, walks of unequal
length, a generator that is not stock or timers that would pass the last
time run hop by hop, and a generator that is not stock keeps every
handler call), the run loop calls the stock generator handler at every
generator event outside such lanes,
every message a generator makes or re-issues is, when it takes its id,
the one `Simulator.new_message` would make at that moment, a message
that a module or user code holds is never re-issued, a walk reused past a
relay link is the walk computed afresh (a ring of links reuses none), a
handler set on
the instance before the run sees every arrival at its module, each
event is one handle_message call
whenever handlers are wrapped (a wrapped handler turns the relay links
off), the streaming metrics fold gives the reference summarize's
metrics on any trace, cut short or corrupted, and the built-in sinks'
`on_events` entry, fed in chunks that tile the run, gives what their
`record` entry would.
"""

import contextlib
import dataclasses
import heapq
import io
import itertools
import json
import pathlib
import re
import sys
from collections import Counter, deque

import pytest

from hypothesis import given, settings, strategies as st

from lteadv_sim import (CollectingSink, MetricsSink, PaperTraceSink, StructuredTraceSink,
                        TraceSink, build, kernel, parse)
from lteadv_sim.kernel import (CHUNK_ROWS, MAX_TIME_NS, EventRecord, FutureEventSet,
                               HandlerError, MessageKind, SimTime, SimTimeRangeError,
                               SimulationError, Simulator, StopReason)
from lteadv_sim.netconfig import (AttachDecl, GeneratorDecl, LinkDecl, NetworkSpec,
                                  NodeDecl, Selector, SelectorKind, format_spec,
                                  instance_table, validate)
from lteadv_sim.lte_nodes import (FanInLayer, Forwarder, LayerSpec, NodeType, PassThroughLayer,
                                  PhyLayer, RadioInterface, ReflectorLayer, build_node,
                                  wire_vertical)
from lteadv_sim.model import (IN_FROM_LOWER, IN_FROM_UPPER, RADIO_IN, SELF_GATE, ChannelSpec,
                              CompoundModule, Gate, ModuleNode, SimpleModule,
                              connect, send_direct)
from lteadv_sim.traffic import TIMER_NAME, Generator, GeneratorConfig
from lteadv_sim.trace import (format_event_line, read_structured, summarize,
                              write_structured, zero_delay_emissions)

from conftest import bench_workloads
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
    modules = list(built.root.iter_tree())
    assert ([(mod.full_path, mod.module_id) for mod in modules]
            == list(build(spec).root.assign_ids().items()))
    assert all(mod.sim is sim for mod in modules)

    zero_delay = not spec.links or all(
        link.delay is None or link.delay.ns == 0 for link in spec.links)
    expected_trips = 0
    in_flight = 0
    for name, node in built.nodes.items():
        gen = getattr(node, "generator", None)
        if gen is None or gen.config is None:
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


def _assert_wired_as_connect_leaves_it(built, spec):
    """Every gate of the tree is a channel between two modules, found
    under its Out label in its source's table and under its In label in
    its owner's, and under no other label, and carries its channel's
    delay: its link's between nodes, 0 inside one. Only a radio's air
    input has one end."""
    link_delay = {frozenset((src, dst)): delay.ns
                  for src, dst, delay in instance_table(spec).links}
    for module in built.root.iter_tree():
        for label, gate in module._gates.items():
            if gate.source is None:
                assert (label, gate.owner, gate.label, gate.source_label, gate.delay_ns) == (
                    RADIO_IN, module, RADIO_IN, None, None)
                continue
            assert (gate.owner, gate.label) == (module, label) or (
                gate.source, gate.source_label) == (module, label)
            assert gate.owner is not None and gate.source is not gate.owner
            assert gate.source._gates[gate.source_label] is gate
            assert gate.owner._gates[gate.label] is gate
            nodes = frozenset((gate.source.parent.name, gate.owner.parent.name))
            assert gate.delay_ns == (0 if len(nodes) == 1 else link_delay[nodes])


@given(specs_with_stacks())
@settings(deadline=None)
def test_drawn_stacks_run_oracle_clean(spec):
    assert validate(spec) == []
    built = build(spec)
    _assert_wired_as_connect_leaves_it(built, spec)
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
    """Every gate in the tree that has a relay link, from its owner's table."""
    return [gate for module in root.iter_tree() for gate in module._gates.values()
            if gate.owner is module and gate.relay_to is not None]


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
    sim.root.assign_ids()
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
        sink.record(EventRecord(executed, t_ns, target.full_path, target.type_name,
                                target.module_id, msg.name, msg.kind_label, msg.msg_id))
        hop = target.handle_message(msg, gate_label)
        if hop is not None:
            fes.push(t_ns, t_ns, *hop)
    return out.getvalue(), executed, reason, sim.now_ns, len(fes)


def _step_link(gate):
    """The relay link the kernel's one step function fixes for `gate`: the
    next gate of its step on an empty route, for an In gate of a
    stock-handled module, where the step leaves the route empty; else
    None."""
    if not kernel._stock(gate.owner):
        return None
    step = kernel._step(gate, ())
    if step is None or step[1]:
        return None
    return step[0]


@given(st.one_of(network_specs(), specs_with_stacks()),
       st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_relay_links_change_nothing(spec, event_limit):
    """Hopping over relay links, against the same run with every handler
    called: wrapping the handler every class defines itself, as
    `_counting_handler_calls` does, turns every link off. Every gate of
    the linked run's tree has the link that the kernel's step function
    fixes for it; so every radio is linked to its PHY, every PHY up, and
    the reflector down unless its down gate is delayed."""
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
    assert all(gate.relay_to is _step_link(gate)
               for module in modules for gate in module._gates.values())
    radios = [module for module in modules if isinstance(module, RadioInterface)]
    phys = [module for module in modules if isinstance(module, PhyLayer)]
    reflector, = [module for module in modules if isinstance(module, ReflectorLayer)]
    assert radios and all(radio._gates[RADIO_IN].relay_to is radio.up_gate
                          for radio in radios)
    assert phys and all(phy._gates[IN_FROM_LOWER].relay_to is phy.up_gate
                        for phy in phys)
    down = reflector.down_gate
    assert reflector._gates[IN_FROM_LOWER].relay_to is (None if down.delay_ns else down)
    # and more: every UE's top layer links down
    assert {gate.owner for gate in _relay_links(built.root)} > {*radios, *phys}


class _NopBatchSink:
    """A batch sink that keeps nothing; binding it keeps a run hop by hop."""

    def on_events(self, first_no, rows):
        pass


def _waypoint(waypoint):
    """A route entry by name: a radio's path, or a reply gate's source
    path and Out label."""
    if isinstance(waypoint, Gate):
        return waypoint.source.full_path, waypoint.source_label
    return waypoint.full_path


def _end_state(spec, event_limit, sinks, replace=None):
    """What a run leaves behind: its event count, stop reason, clock and
    next message id, every pending entry, drained in order, with its
    message's kind, byte length, creation time and route, every
    generator's stats and every forwarder's drops. `replace(built)`, when
    given, changes the network before it runs."""
    built = build(spec)
    if replace is not None:
        replace(built)
    sim = built.simulator()
    summary = sim.run(until=spec.until, event_limit=event_limit, sinks=sinks)
    pending = [(t_ns, seq, target.full_path, label, msg.msg_id, msg.name, msg.kind,
                msg.byte_length, msg._created_ns, tuple(map(_waypoint, msg._route)))
               for t_ns, seq, target, label, msg in sim.fes.pop_before(MAX_TIME_NS + 1)]
    stats = [(name, node.generator.stats) for name, node in built.nodes.items()
             if node.generator is not None]
    drops = [(module.full_path, module.drop_count) for module in built.root.iter_tree()
             if isinstance(module, Forwarder)]
    return (summary.events_executed, summary.stop_reason, sim.now_ns, sim._next_msg_id,
            pending, stats, drops)


@given(st.one_of(network_specs(), specs_with_stacks()),
       st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_jumping_relay_chains_changes_nothing(spec, event_limit):
    """A run with no sink jumps whole walks of relay links and route
    steps while the lane is empty; the same run with a sink makes every
    hop. Both end in the same state, also when the event limit falls
    inside a walk."""
    assert (_end_state(spec, event_limit, [])
            == _end_state(spec, event_limit, [_NopBatchSink()]))


# Two UEs with offset starts on two eNBs. enb[0]'s backhaul has no delay,
# so ue[0]'s round trip is one walk from its top layer to its generator;
# enb[1]'s is delayed, so ue[1]'s walks stop at its eNB's top layer, and
# its reply's walks meet the S1's and the eNB PHY's pops of waypoints
# pushed before they started.
TWO_UES_ONE_DELAYED = """\
network Network {
    ue ue[2];
    enb enb[2];
    sgw_mme sgw_mme;
    pdn_gw pdn_gw;
    attach ue[0] -> enb[0];
    attach ue[1] -> enb[1];
    link enb[1] -> sgw_mme delay 1ms;
    generator on ue[0] { period 10ms; }
    generator on ue[1] { period 10ms; start 100us; payload packet 100; }
    run until 4ms;
}
"""


def _assert_no_sink_matches_hop_by_hop_at_every_limit(spec, replace=None):
    events = _end_state(spec, None, [], replace)[0]
    for limit in (None, *range(events + 1)):
        assert (_end_state(spec, limit, [], replace)
                == _end_state(spec, limit, [_NopBatchSink()], replace))


def test_jumping_relay_chains_stops_at_every_event_limit(minimal_spec):
    """Every event limit over one UE's first two round trips, and over the
    first trips of two UEs behind a plain and a delayed backhaul, so that
    a limit falls at every position of every chain and route walk the
    run jumps."""
    _assert_no_sink_matches_hop_by_hop_at_every_limit(
        dataclasses.replace(minimal_spec, until=SimTime.from_millis(20)))
    _assert_no_sink_matches_hop_by_hop_at_every_limit(parse(TWO_UES_ONE_DELAYED).spec)


def _delayed_net_apart():
    """The text of tests/fixtures/delayed.net with one generator per UE,
    each started apart, so that no two trips share a time bucket and a
    run with no sink walks wherever it can."""
    text = (pathlib.Path(__file__).parent / "fixtures" / "delayed.net").read_text()
    lines = [line for line in text.splitlines() if "generator on" not in line]
    at = next(i for i, line in enumerate(lines) if "run until" in line)
    lines[at:at] = [f"    generator on ue[{i}] {{ {config} start {start}us; }}"
                    for i, (config, start) in enumerate(zip(
                        ["period 7ms; payload packet 1500;"] * 3 + ["period 10ms;"] * 3,
                        (250, 263, 389, 0, 37, 101)))]
    return "\n".join(lines)


def _pending_routes(spec):
    return {entry[-1] for entry in _end_state(spec, None, [])[4]}


def _assert_walks_stop_where_handlers_pop(spec):
    """Every S1 arrival reaches its handler, and only some PHY arrivals."""
    walked, _ = _route_handler_calls(lambda: _end_state(spec, None, []))
    stepped, _ = _route_handler_calls(lambda: _end_state(spec, None, [_NopBatchSink()]))
    assert walked["S1"] == stepped["S1"] > 0
    assert 0 < walked["PHY"] < stepped["PHY"]


def test_a_walk_stops_at_a_delayed_s1_hop():
    """enb[0]'s backhaul undelayed and a one-layer S-GW/MME, whose S1
    sends up over the delayed core link: a walk up from ue[0..2] stops
    at the S1, which then pushes its reply gate onto the route the walk
    extended, and transmits. Every event limit over the first trips."""
    spec = parse(_delayed_net_apart().replace("sgw_mme delay 300us;", "sgw_mme;")).spec
    spec.chain_overrides[NodeType.SGW_MME] = (LayerSpec("S1", "lte_s1"),)
    spec.until = SimTime(700_000)  # ue[0..2]'s first messages are on the core link
    assert {("Network.ue[2].lte_radio", ("Network.sgw_mme.lte_s1", "outToLowerLayer[0]")),
            ("Network.ue[4].lte_radio",)} <= _pending_routes(spec)
    spec.until = SimTime.from_millis(3)
    _assert_walks_stop_where_handlers_pop(spec)
    _assert_no_sink_matches_hop_by_hop_at_every_limit(spec)


def test_a_walk_stops_at_a_pop_of_a_waypoint_pushed_before_it():
    """Every backhaul delayed: a walk down from the core link meets the
    S1's pop of the reply gate its trip pushed on the way up, and a walk
    down an eNB meets its PHY's pop of the UE's radio; each walk stops
    there and the handler pops the real route. Every event limit over
    the first trips."""
    spec = parse(_delayed_net_apart()).spec
    spec.until = SimTime(1_000_000)  # ue[3..5]'s first messages are on the backhaul
    assert {("Network.ue[4].lte_radio",)} <= _pending_routes(spec)
    spec.until = SimTime.from_millis(3)
    _assert_walks_stop_where_handlers_pop(spec)
    _assert_no_sink_matches_hop_by_hop_at_every_limit(spec)


# Three UEs with one shared start, ue[0..1] on enb[0] and ue[2] on
# enb[1], and no delay anywhere: each bucket's round trips start in one
# lane whose entries all walk alike, the first emissions and then the
# timers, over the first two buckets.
LOCKSTEP = """\
network Network {
    ue ue[3];
    enb enb[2];
    sgw_mme sgw_mme;
    pdn_gw pdn_gw;
    attach ue[0..1] -> enb[0];
    attach ue[2] -> enb[1];
    generator on ue[*] { period 10ms; start 1ms; }
    run until 12ms;
}
"""


@contextlib.contextmanager
def _recording_lane_checks():
    """Record each lane check of the runs inside, one a bucket, as
    `(t_ns, room, lane length, first entry's arrival label, events
    made)`: 0 events for a lane left to run hop by hop."""
    checks, walk_trips = [], kernel._walk_trips

    def recording(fes, walks, trips, t_ns, room):
        n, label = len(fes.lane), fes.lane[0][3]
        made = walk_trips(fes, walks, trips, t_ns, room)
        checks.append((t_ns, room, n, label, made))
        return made

    kernel._walk_trips = recording
    try:
        yield checks
    finally:
        kernel._walk_trips = walk_trips


@pytest.fixture
def lane_checks():
    """A function that lists the events each lane check of the runs in
    the test has made so far, 0 for a lane left to run hop by hop."""
    with _recording_lane_checks() as checks:
        yield lambda: [made for *_, made in checks]


def test_a_lockstep_lane_is_walked_at_every_event_limit(lane_checks):
    """The first bucket's lane of three emissions is made in one step,
    each trip whole: 37 steps and return, ending in its timer's push. So
    is the next bucket's lane of three timers: timer, 37 steps and return.
    Both leave what the hop-by-hop round-robin leaves at every event
    limit."""
    _assert_no_sink_matches_hop_by_hop_at_every_limit(parse(LOCKSTEP).spec)
    assert 3 * (37 + 1) in lane_checks()
    assert 3 * (37 + 2) in lane_checks()


# ue[0] and ue[1] on two eNBs, with one shared start and no delay.
TWO_UES_IN_STEP = """\
network Network {
    ue ue[2];
    enb enb[2];
    sgw_mme sgw_mme;
    pdn_gw pdn_gw;
    attach ue[0] -> enb[0];
    attach ue[1] -> enb[1];
    generator on ue[*] { period 10ms; start 1ms; }
    run until 12ms;
}
"""


def _send_twice(built):
    """At start, after its first emission, ue[0]'s stock generator sends
    one new message, by send_direct, into the top layers of ue[0] and
    ue[1], due with the emissions: one message in two entries of the
    first lane, each walking alike to a stock generator."""
    generator = built.nodes["ue[0]"].generator
    tops = [built.nodes[ue].stack[0] for ue in ("ue[0]", "ue[1]")]

    def on_start(sim, stock=generator.on_start):
        stock(sim)
        shared = sim.new_message("NASMsg", MessageKind.CONTROL_MESSAGE)
        for top in tops:
            send_direct(generator, shared, top, IN_FROM_UPPER, generator.config.start_time)

    generator.on_start = on_start


def test_a_lane_holding_one_message_twice_runs_hop_by_hop(lane_checks):
    """Hop by hop, the two entries of one message push and pop its route
    in turn, so they swap return routes at the S1 and each generator's
    returns come in another order than their walks end in: the first lane,
    which holds them, is left to run hop by hop, at every event limit,
    and the next bucket's four timers trip whole."""
    _assert_no_sink_matches_hop_by_hop_at_every_limit(parse(TWO_UES_IN_STEP).spec,
                                                      replace=_send_twice)
    assert lane_checks()[:2] == [0, 4 * (37 + 2)]


def test_a_lane_of_unequal_walks_runs_hop_by_hop(lane_checks):
    """One shared start, but enb[1]'s backhaul is delayed, so ue[2]'s walk
    of 12 steps stops at its eNB's top layer: the first lane, of all
    three emissions, runs hop by hop, and the next bucket's lane, the
    timers of ue[0] and ue[1], trips whole, at every event limit."""
    spec = parse(LOCKSTEP.replace("    generator", "    link enb[1] -> sgw_mme delay 1ms;\n"
                                                     "    generator")).spec
    _assert_no_sink_matches_hop_by_hop_at_every_limit(spec)
    assert lane_checks()[:2] == [0, 2 * (37 + 2)]


def test_a_lane_of_a_hop_then_a_timer_runs_hop_by_hop(lane_checks):
    """ue[1] starts at 11 ms, when ue[0]'s first timer is due: the 11 ms
    lane holds ue[1]'s first emission and then that timer, so its first
    entry makes it a lane of hops, which a timer cannot join. It runs hop
    by hop, and the 21 ms lane of both timers trips whole, at every event
    limit."""
    spec = parse(TWO_UES_IN_STEP.replace(
        "    generator on ue[*] { period 10ms; start 1ms; }",
        "    generator on ue[0] { period 10ms; start 1ms; }\n"
        "    generator on ue[1] { period 10ms; start 11ms; }").replace("12ms", "22ms")).spec
    _assert_no_sink_matches_hop_by_hop_at_every_limit(spec)
    assert lane_checks()[:2] == [0, 2 * (37 + 2)]


def _timer_first(built):
    """ue[0]'s stock generator schedules a timer at its start in place of
    sending its first emission, so the first lane holds that timer and
    then ue[1]'s first emission."""
    generator = built.nodes["ue[0]"].generator

    def on_start(sim):
        generator.schedule_self(sim.new_message(TIMER_NAME, MessageKind.CONTROL_MESSAGE),
                                generator.config.start_time)

    generator.on_start = on_start


def test_a_lane_of_a_timer_then_a_hop_runs_hop_by_hop(lane_checks):
    """A timer due with ue[1]'s first emission, ahead of it: its first
    entry makes the lane one of timers, which a hop cannot join. It runs
    hop by hop, and the next bucket's two timers trip whole, at every
    event limit."""
    _assert_no_sink_matches_hop_by_hop_at_every_limit(parse(TWO_UES_IN_STEP).spec,
                                                      replace=_timer_first)
    assert lane_checks()[:2] == [0, 2 * (37 + 2)]


def test_a_lane_of_hops_leaves_no_spare(lane_checks):
    """User code sends a message of its own down each UE's stack, due at
    the shared start, in place of the first emissions, and holds it. The
    lane of those hops is made whole, then the lane of the timers they
    arm, and no generator re-issues a held message."""
    spec = parse(LOCKSTEP).spec
    built = build(spec)
    sim = built.simulator()
    held = []
    for name in ("ue[0]", "ue[1]", "ue[2]"):
        generator = built.nodes[name].generator
        generator.on_start = lambda sim: None
        msg = sim.new_message("NASMsg", MessageKind.CONTROL_MESSAGE)
        send_direct(generator, msg, built.nodes[name].stack[0], IN_FROM_UPPER,
                    generator.config.start_time)
        held.append((msg, msg.msg_id, msg._created_ns))
    sim.run(until=spec.until)
    assert lane_checks() == [3 * (37 + 1), 3 * (37 + 2)]
    assert [(msg, msg.msg_id, msg._created_ns) for msg, *_ in held] == held


def test_a_handler_error_after_a_lane_walk_keeps_its_event_number(lane_checks):
    """ue[1]'s generator, started a millisecond after the others, fails on
    its second return: event #231 either way, after the lanes of ue[0]'s
    and ue[2]'s first emissions and of their timers are made whole (76
    and 78 events), around ue[1]'s first trip (38) and before its timer
    and 37 steps."""
    spec = parse(LOCKSTEP.replace(
        "    generator on ue[*] { period 10ms; start 1ms; }",
        "    generator on ue[0] { period 10ms; start 1ms; }\n"
        "    generator on ue[1] { period 10ms; start 2ms; }\n"
        "    generator on ue[2] { period 10ms; start 1ms; }").replace("12ms", "13ms")).spec

    def failure(sinks):
        built = build(spec)
        generator = built.nodes["ue[1]"].generator

        def handle_message(msg, arrival_gate, stock=generator.handle_message):
            if arrival_gate == IN_FROM_LOWER and generator.stats.returned:
                raise RuntimeError("second return")
            return stock(msg, arrival_gate)

        generator.handle_message = handle_message
        with pytest.raises(HandlerError) as info:
            built.simulator().run(until=spec.until, sinks=sinks)
        return info.value.event_no, info.value.module_path, str(info.value)

    assert failure([]) == failure([_NopBatchSink()])
    assert failure([])[:2] == (231, "Network.ue[1].generator")
    assert lane_checks() == [2 * (37 + 1), 2 * (37 + 2)] * 2


class _CountingLane(deque):
    """A lane that counts its pops."""

    pops = 0

    def popleft(self):
        self.pops += 1
        return super().popleft()


def test_a_lockstep_run_pops_only_timers_and_returns():
    """With no sink, the first bucket's lane of emissions is made whole,
    from first hop to re-arm, and so is each later bucket's lane of
    timers, from timer to re-arm: of 30 trips, a run pops no entry. Hop
    by hop, every event of the three interleaved trips is a pop."""
    spec = dataclasses.replace(parse(LOCKSTEP).spec, until=SimTime.from_millis(100))

    def pops_and_trips(sinks):
        built = build(spec)
        sim = built.simulator()
        sim.fes.lane = lane = _CountingLane()
        sim.run(until=spec.until, sinks=sinks)
        trips = sum(node.generator.stats.returned for node in built.nodes.values()
                    if node.generator is not None)
        return lane.pops, trips

    assert pops_and_trips([]) == (0, 30)
    pops, trips = pops_and_trips([_NopBatchSink()])
    assert trips == 30 and pops / trips >= 38


@given(st.one_of(network_specs(), specs_with_stacks()),
       st.sampled_from((0, 1, 3)).map(SimTime.from_millis),
       st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_lockstep_lanes_change_nothing(spec, start, event_limit):
    """Every generator started at one drawn time, so the round trips of
    a period share their first bucket and lanes of first emissions and of
    timers with equal walks are made whole in one step: no sink against
    hop by hop, over drawn stacks, delays and event limits."""
    spec.generators = [dataclasses.replace(decl, config=dataclasses.replace(
        decl.config, start_time=start)) for decl in spec.generators]
    assert (_end_state(spec, event_limit, [])
            == _end_state(spec, event_limit, [_NopBatchSink()]))


@given(network_specs(), st.sampled_from((0, 1, 3)).map(SimTime.from_millis), st.data())
@settings(deadline=None)
def test_a_lane_with_a_wrapped_generator_runs_hop_by_hop(spec, start, data):
    """Every generator started at one drawn time, and one drawn generator's
    handler replaced by a wrapper that calls the stock one. With no sink,
    the first bucket, which holds that generator's first emission, runs
    hop by hop, and the wrapper sees every return at that generator; the
    run ends as hop by hop, with no event limit and at a drawn one."""
    spec.generators = [dataclasses.replace(decl, config=dataclasses.replace(
        decl.config, start_time=start)) for decl in spec.generators]
    wrapped = data.draw(st.sampled_from(sorted(
        name for name, node in build(spec).nodes.items() if node.generator is not None)))
    seen = []

    def wrap(built):
        generator = built.nodes[wrapped].generator
        seen.append([generator, 0])

        def handle_message(msg, arrival_gate, stock=generator.handle_message):
            seen[-1][1] += arrival_gate == IN_FROM_LOWER
            return stock(msg, arrival_gate)

        generator.handle_message = handle_message

    with _recording_lane_checks() as checks:
        events = _end_state(spec, None, [], wrap)[0]
    assert all(made == 0 for t_ns, *_, made in checks if t_ns == start.ns)
    generator, returns = seen[-1]
    assert returns == generator.stats.returned
    for event_limit in (None, data.draw(st.integers(min_value=0, max_value=events))):
        assert (_end_state(spec, event_limit, [], wrap)
                == _end_state(spec, event_limit, [_NopBatchSink()], wrap))
        generator, returns = seen[-2]  # the run with no sink
        assert returns == generator.stats.returned


_STOCK_HANDLER = Forwarder.handle_message.__code__
_ROUTE_TYPES = {PhyLayer: "PHY", FanInLayer: "S1"}


def _route_handler_calls(run):
    """`run()`'s result and the calls it made of the stock handler,
    `Forwarder.handle_message`, on a PHY and on an S1, counted by
    `type(self)` with a profile hook, so that handlers and links stay
    as they are."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _STOCK_HANDLER:
            name = _ROUTE_TYPES.get(type(frame.f_locals["self"]))
            if name is not None:
                calls[name] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def test_route_walks_make_no_phy_or_s1_handler_call(minimal_spec):
    """A run with no sink walks each whole round trip, over the PHYs' air
    hops and the S1 both ways, and calls neither handler; hop by hop,
    each is called twice per trip. A handler set on the eNB's PHY stops
    the walks there and sees every arrival at it."""
    def run(sinks, replace=lambda built: None):
        built = build(minimal_spec)
        replace(built)
        built.simulator().run(until=minimal_spec.until, sinks=sinks)
        return built.nodes["ue"].generator.stats.returned

    calls, trips = _route_handler_calls(lambda: run([]))
    assert trips == 100 and calls == {}
    calls, trips = _route_handler_calls(lambda: run([_NopBatchSink()]))
    assert calls == {"PHY": 2 * trips, "S1": 2 * trips}
    seen = []

    def replace(built):
        phy = built.nodes["enb"].stack[-1]

        def handle_message(msg, arrival_gate, stock=phy.handle_message):
            seen.append(arrival_gate)
            return stock(msg, arrival_gate)

        phy.handle_message = handle_message

    calls, trips = _route_handler_calls(lambda: run([], replace))
    assert seen == [IN_FROM_LOWER, IN_FROM_UPPER] * trips
    assert calls == {"PHY": 2 * trips}


@given(st.one_of(network_specs(), specs_with_stacks()),
       st.one_of(st.none(), st.integers(min_value=0, max_value=1500)),
       st.one_of(st.none(), st.integers(min_value=0, max_value=15)))
@settings(deadline=None)
def test_route_walks_change_nothing(spec, event_limit, replaced):
    """No sink against hop by hop, over drawn delays and event limits,
    with the handler of one drawn PHY or S1 set on the instance: the end
    states match, and that handler sees the same arrivals."""
    def end_state(sinks):
        seen = []

        def replace(built):
            if replaced is None:
                return
            routed = [module for module in built.root.iter_tree()
                      if isinstance(module, (PhyLayer, FanInLayer))]
            module = routed[replaced % len(routed)]

            def handle_message(msg, arrival_gate, stock=module.handle_message):
                seen.append(arrival_gate)
                return stock(msg, arrival_gate)

            module.handle_message = handle_message

        return _end_state(spec, event_limit, sinks, replace), seen

    assert end_state([]) == end_state([_NopBatchSink()])


_REPLACED_PATHS = ["ue.lte_nas", "ue.lte_rrc", "ue.lte_phy", "enb.lte_radio", "enb.lte_phy",
                   "enb.lte_gtp", "sgw_mme.lte_s1", "pdn_gw.lte_ip"]


def _assert_a_replaced_handler_sees_every_arrival(spec, path, install):
    """`install(built, replace)` arranges for `replace(root)` to run before
    the first event: it sets a handler on the module at `path` that
    records each arrival. That handler is called at every arrival there,
    with no sink as hop by hop, and the run ends as without it."""
    sink = CollectingSink()
    build(spec).simulator().run(until=spec.until, sinks=[sink])
    arrivals = [rec.msg_name for rec in sink.records if rec.path == "Network." + path]
    assert len(arrivals) >= 5  # once or twice in each of 5 round trips

    def replace(root):
        module = root
        for name in path.split("."):
            module = module.child(name)

        def handle_message(msg, arrival_gate, stock=module.handle_message):
            seen.append(msg.name)
            return stock(msg, arrival_gate)

        module.handle_message = handle_message

    for sinks in ([], [_NopBatchSink()]):
        seen = []
        assert (_end_state(spec, None, sinks, lambda built: install(built, replace))
                == _end_state(spec, None, sinks))
        assert seen == arrivals


@pytest.mark.parametrize("path", _REPLACED_PATHS)
def test_a_handler_set_on_the_instance_before_the_run_sees_every_arrival(minimal_spec, path):
    """Relay links are set from the handlers in place once every
    `on_start` has run, and a run with no sink fixes each walk when it
    first uses it, so a handler set on a module before `run()` turns that
    module's links off and stops every walk at it: it is called at every
    arrival there, with no sink as hop by hop."""
    spec = dataclasses.replace(minimal_spec, until=SimTime.from_millis(50))
    _assert_a_replaced_handler_sees_every_arrival(
        spec, path, lambda built, replace: replace(built.root))


class _Replacer(SimpleModule):
    """A module whose `on_start` calls `replace(root)`."""

    def __init__(self, replace):
        super().__init__("replacer")
        self.replace = replace

    def on_start(self, sim):
        self.replace(sim.root)


@pytest.mark.parametrize("path", _REPLACED_PATHS)
def test_a_handler_set_in_the_last_on_start_sees_every_arrival(minimal_spec, path):
    """Links are set once every `on_start` has run, so a handler set in the
    `on_start` of the module last in tree order, after the `on_start` of
    the module it replaces, turns that module's links off as well."""
    spec = dataclasses.replace(minimal_spec, until=SimTime.from_millis(50))
    _assert_a_replaced_handler_sees_every_arrival(
        spec, path, lambda built, replace: built.root.add_child(_Replacer(replace)))


class _PushingGenerator(Generator):
    """The generator as it was before its timer returned a hop: the timer
    emits by `emit`, which pushes the emission, and returns None."""

    def handle_message(self, msg, arrival_gate):
        if arrival_gate == SELF_GATE:
            self.emit()
            return None
        return super().handle_message(msg, arrival_gate)


def _pushing_generators(built):
    for node in built.nodes.values():
        if node.generator is not None:
            node.generator.__class__ = _PushingGenerator


def _structured_trace(spec, event_limit, replace=None):
    built = build(spec)
    if replace is not None:
        replace(built)
    out = io.StringIO()
    built.simulator().run(until=spec.until, event_limit=event_limit,
                          sinks=[StructuredTraceSink(out)])
    return out.getvalue()


def _unnumbered(state):
    """An `_end_state` with its pending entries, drained in order, stripped
    of their seqs: a push draws a seq that a hop dispatched at once does
    not, so only the order of the seqs is the same."""
    events, reason, now_ns, next_id, pending, stats, drops = state
    return (events, reason, now_ns, next_id, [entry[:1] + entry[2:] for entry in pending],
            stats, drops)


def _assert_generator_hops_match_pushes(spec, event_limit):
    for sinks in ([], [_NopBatchSink()]):
        assert (_unnumbered(_end_state(spec, event_limit, sinks))
                == _unnumbered(_end_state(spec, event_limit, sinks, _pushing_generators)))
    assert (_structured_trace(spec, event_limit)
            == _structured_trace(spec, event_limit, _pushing_generators))


@given(network_specs(), st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_generator_hops_change_nothing(spec, event_limit):
    """A generator's timer returns its zero-delay emission as a hop; a
    generator whose timer pushes it leaves the same end state, with no
    sink and hop by hop, and the same structured trace."""
    _assert_generator_hops_match_pushes(spec, event_limit)


def test_generator_hops_change_nothing_at_every_event_limit():
    """Every event limit over the first three trips of two UEs behind a
    plain and a delayed backhaul: the timer first fires at 10 ms."""
    spec = dataclasses.replace(parse(TWO_UES_ONE_DELAYED).spec, until=SimTime.from_millis(25))
    events = _end_state(spec, None, [])[0]
    for limit in (None, *range(events + 1)):
        _assert_generator_hops_match_pushes(spec, limit)


class _TurnUp(PassThroughLayer):
    """A layer that sends every arrival from above back up."""

    forward_to = {IN_FROM_UPPER: "up_gate"}


def test_a_generator_over_a_delayed_channel_transmits_its_emission():
    """A hand-built UE whose generator reaches its one layer over a
    100 us channel: the timer transmits each emission and returns None,
    and the layer sees it 100 us after the timer fired."""
    root = CompoundModule("Network")
    generator = root.add_child(Generator("generator", GeneratorConfig(
        period=SimTime.from_millis(1))))
    layer = root.add_child(_TurnUp("lte_nas", "NAS"))
    wire_vertical(generator, layer, ChannelSpec(SimTime(100_000)))
    returned = []

    def handle_message(msg, arrival_gate, stock=generator.handle_message):
        hop = stock(msg, arrival_gate)
        if arrival_gate == SELF_GATE:
            returned.append(hop)
        return hop

    generator.handle_message = handle_message
    sink = CollectingSink()
    Simulator(root).run(until=SimTime.from_millis(4), sinks=[sink])
    assert returned == [None] * 3
    timers = [rec.t_ns for rec in sink.records if rec.msg_name == TIMER_NAME]
    arrivals = [rec.t_ns for rec in sink.records if rec.path == "Network.lte_nas"]
    assert timers == [1_200_000, 2_400_000, 3_600_000]
    assert arrivals == [100_000] + [t + 100_000 for t in timers]
    assert generator.stats.emitted == 4


class _OwnStartGenerator(Generator):
    """A generator whose `on_start` emits by `emit` and does not call the
    stock `on_start`, so its emission is fixed at that first `emit`."""

    def on_start(self, sim):
        if self.config is not None:
            self.emit(at=self.config.start_time)


def _own_start_generators(built):
    for node in built.nodes.values():
        if node.generator is not None:
            node.generator.__class__ = _OwnStartGenerator


def test_a_generator_whose_on_start_skips_the_stock_one_runs_the_same_trips():
    """Every event limit over the first three trips of two UEs, one with a
    packet payload and a start offset: the same end state, with no sink
    and hop by hop, and the same structured trace as stock generators."""
    spec = dataclasses.replace(parse(TWO_UES_ONE_DELAYED).spec, until=SimTime.from_millis(25))
    events = _end_state(spec, None, [])[0]
    for limit in (None, *range(events + 1)):
        for sinks in ([], [_NopBatchSink()]):
            assert (_end_state(spec, limit, sinks, _own_start_generators)
                    == _end_state(spec, limit, sinks))
    assert (_structured_trace(spec, None, _own_start_generators)
            == _structured_trace(spec, None))
    # its handler is the stock one, so with no sink the run loop calls it
    # once for each generator event that no whole lane makes
    for replace in (_own_start_generators, lambda built: None):
        with _recording_lane_checks() as checks:
            calls = _generator_handler_calls(spec, [], replace)
        assert (calls + _lane_generator_events(checks)
                == _generator_handler_calls(spec, [_NopBatchSink()], replace)
                == _generator_handler_calls(spec, [CollectingSink()], replace) == 9)


_STOCK_GENERATOR = Generator.handle_message.__code__
_WALK_TRIPS = kernel._walk_trips.__code__


def _calls_of(codes, run, unless_from=None):
    """`run()`'s result and the number of calls it made of functions whose
    code is in `codes`, other than calls from the function whose code is
    `unless_from`, counted with a profile hook, so that handlers stay as
    they are."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if (event == "call" and frame.f_code in codes
                and frame.f_back.f_code is not unless_from):
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def _generator_handler_calls(spec, sinks, replace):
    """The stock generator handler's calls in a run of `spec`, other than
    those a whole lane makes (`kernel._walk_trips`)."""
    built = build(spec)
    replace(built)
    calls, _ = _calls_of({_STOCK_GENERATOR},
                         lambda: built.simulator().run(until=spec.until, sinks=sinks),
                         unless_from=_WALK_TRIPS)
    return calls


def _lane_generator_events(checks):
    """The generator events that the whole lanes in `checks`, as
    `_recording_lane_checks` records them, made: a timer and a return for
    each entry of a lane of timers, a return for each entry of a lane of
    hops."""
    return sum(n * (2 if label == SELF_GATE else 1) for _, _, n, label, made in checks if made)


@given(network_specs(), st.data())
@settings(deadline=None)
def test_the_loop_calls_the_generator_handler_for_each_event_outside_whole_lanes(spec, data):
    """A generator on every UE from the drawn config, each started at a
    drawn time, one of two, so that trips share their first bucket and
    make whole lanes, and a drawn event limit. With no sink, the run loop
    calls the stock generator handler once for each generator event that
    no whole lane makes: those calls and the generator events made in
    whole lanes are the generator events of the run hop by hop, and both
    runs end alike."""
    count = spec.node_decls[0].count
    starts = st.sampled_from((0, 1)).map(SimTime.from_millis)
    spec.generators = [
        GeneratorDecl(_selector_for("u", count, i, want_all=False), dataclasses.replace(
            spec.generators[0].config, start_time=data.draw(starts)))
        for i in range(count or 1)]
    event_limit = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
    with _recording_lane_checks() as checks:
        calls, state = _calls_of({_STOCK_GENERATOR}, lambda: _end_state(spec, event_limit, []),
                                 unless_from=_WALK_TRIPS)
    events, hop_by_hop = _calls_of({_STOCK_GENERATOR},
                                   lambda: _end_state(spec, event_limit, [_NopBatchSink()]))
    assert calls + _lane_generator_events(checks) == events
    assert state == hop_by_hop


class _LazyGenerator(Generator):
    """A generator whose `on_start` pushes its first timer and does not
    fix its emission: the run fixes it when it starts."""

    def on_start(self, sim):
        if self.config is not None:
            self.schedule_self(sim.new_message(TIMER_NAME, MessageKind.CONTROL_MESSAGE),
                               self.config.start_time)


def _two_ues():
    spec = dataclasses.replace(parse(TWO_UES_ONE_DELAYED).spec, until=SimTime.from_millis(25))
    return build(spec), spec.until


def _generators(built):
    return [node.generator for node in built.nodes.values() if node.generator is not None]


def _class_override():
    built, until = _two_ues()
    _pushing_generators(built)
    return built.simulator(), until, {_PushingGenerator.handle_message.__code__}


def _instance_override():
    built, until = _two_ues()
    for generator in _generators(built):
        def handle_message(msg, arrival_gate, stock=generator.handle_message):
            return stock(msg, arrival_gate)

        generator.handle_message = handle_message
    return built.simulator(), until, {handle_message.__code__}


def _lazily_frozen():
    built, until = _two_ues()
    for generator in _generators(built):
        generator.__class__ = _LazyGenerator
    return built.simulator(), until, {_STOCK_GENERATOR}


def _inert():
    """Timers pushed to a generator with no config, two in one lane."""
    root = CompoundModule("Network")
    ue = root.add_child(build_node(NodeType.UE, "ue", generator=Generator()))
    sim = Simulator(root)
    for t_ns in (0, 5, 5, 9):
        sim.fes.push(t_ns, 0, ue.generator, SELF_GATE,
                     sim.new_message(TIMER_NAME, MessageKind.CONTROL_MESSAGE))
    return sim, SimTime(10), {_STOCK_GENERATOR}


def _delayed_down():
    """Two generators, started together, each over a 100 us channel to a
    layer that sends every arrival from above back up."""
    root = CompoundModule("Network")
    for i in range(2):
        generator = root.add_child(Generator(f"g{i}", GeneratorConfig(
            period=SimTime.from_millis(1))))
        wire_vertical(generator, root.add_child(_TurnUp(f"a{i}", "A")),
                      ChannelSpec(SimTime(100_000)))
    return Simulator(root), SimTime.from_millis(4), {_STOCK_GENERATOR}


@pytest.mark.parametrize("make", [_class_override, _instance_override, _lazily_frozen, _inert,
                                  _delayed_down], ids=lambda make: make.__name__.strip("_"))
def test_a_generator_that_is_not_stock_keeps_every_handler_call(make):
    """A generator whose handler is overridden on its class or on the
    instance, one whose `on_start` leaves it unfixed, an inert one, and
    one that sends down over a delay: with no sink as hop by hop, its
    handler is called at every event at it, and the two runs end
    alike."""
    sink = CollectingSink()
    sim, until, _ = make()
    sim.run(until=until, sinks=[sink])
    events = sum(rec.type_name == "generator" for rec in sink.records)
    assert events > 0
    states = []
    for sinks in ([], [_NopBatchSink()]):
        sim, until, codes = make()
        calls, summary = _calls_of(codes, lambda: sim.run(until=until, sinks=sinks))
        assert calls == events
        pending = [(t_ns, seq, target.full_path, label, msg.msg_id, msg.name)
                   for t_ns, seq, target, label, msg in sim.fes.pop_before(MAX_TIME_NS + 1)]
        states.append((summary.events_executed, sim.now_ns, sim._next_msg_id, pending,
                       [(module.full_path, module.stats) for module in sim.root.iter_tree()
                        if isinstance(module, Generator)]))
    assert states[0] == states[1]


# The next timer of u's generator falls 1 ns past the last valid time.
TIMER_PAST_THE_LAST_TIME = """\
network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    generator on u { period 9223372036854775807ns; start 1ns; }
    run until 9223372036854775807ns;
}
"""


@pytest.mark.parametrize("traced", [False, True])
def test_a_timer_past_the_last_time_fails_its_return_event(traced):
    """The return event that arms the timer fails as its HandlerError,
    caused by SimTimeRangeError, with no sink and hop by hop; the timer
    drew its message id, and nothing was pushed."""
    spec = parse(TIMER_PAST_THE_LAST_TIME).spec
    sim = build(spec).simulator()
    with pytest.raises(HandlerError) as err:
        sim.run(until=spec.until, sinks=[_NopBatchSink()] if traced else [])
    assert (err.value.event_no, err.value.module_path) == (38, "N.u.generator")
    assert isinstance(err.value.__cause__, SimTimeRangeError)
    assert str(err.value) == ("event #38 at N.u.generator: "
                              "simulation time overflows 64 bits: 9223372036854775808 ns")
    assert (sim._next_msg_id, len(sim.fes)) == (3, 0)


# Two UEs with one shared start, each generator's next timer past the last
# valid time: with period 2**63 - 1 at their first returns, with period
# 2**62 at the returns of the trips their first timers start, from one
# lane of two timers.
TWO_TIMERS_PAST_THE_LAST_TIME = """\
network N {
    ue u[2]; enb e; sgw_mme s; pdn_gw p;
    attach u[0..1] -> e;
    generator on u[*] { period PERIODns; start 1ns; }
    run until 9223372036854775807ns;
}
"""


@pytest.mark.parametrize("period,event_no,next_id", [(2**63 - 1, 75, 4), (2**62, 153, 8)])
def test_a_lane_of_timers_past_the_last_time_runs_hop_by_hop(lane_checks, period, event_no,
                                                              next_id):
    """A lane whose trips would push a timer past the last valid time is
    not made at once: with no sink as hop by hop, u[0]'s return is the
    event that fails, as its HandlerError caused by SimTimeRangeError,
    after its timer drew its message id, and u[1]'s return is left
    pending, with no timer pushed."""
    spec = parse(TWO_TIMERS_PAST_THE_LAST_TIME.replace("PERIOD", str(period))).spec

    def failure(sinks):
        sim = build(spec).simulator()
        with pytest.raises(HandlerError) as err:
            sim.run(until=spec.until, sinks=sinks)
        assert isinstance(err.value.__cause__, SimTimeRangeError)
        pending = [(t_ns, target.full_path, label)
                   for t_ns, _, target, label, _ in sim.fes.pop_before(MAX_TIME_NS + 1)]
        return err.value.event_no, err.value.module_path, str(err.value), sim._next_msg_id, pending

    event, path, text, next_msg_id, pending = failure([])
    assert failure([_NopBatchSink()]) == (event, path, text, next_msg_id, pending)
    fire_ns = 1 if period > 2**62 else 1 + period
    assert (event, path, next_msg_id) == (event_no, "N.u[0].generator", next_id)
    assert text == (f"event #{event_no} at N.u[0].generator: "
                    f"simulation time overflows 64 bits: {fire_ns + period} ns")
    assert pending == [(fire_ns, "N.u[1].generator", IN_FROM_LOWER)]
    # the lane whose pushes would overflow, of the two first emissions or
    # of the two timers after them, is left to run hop by hop
    assert lane_checks() == ([0] if period > 2**62 else [2 * (37 + 1), 0])


@st.composite
def generator_configs(draw):
    """A GeneratorConfig of either payload kind, with a drawn period,
    start offset and, for a packet, size."""
    kind = draw(st.sampled_from(list(MessageKind)))
    return GeneratorConfig(
        period=SimTime(draw(st.integers(min_value=4, max_value=40)) * 250_000),
        start_time=SimTime(draw(st.integers(min_value=0, max_value=5_000_000))),
        payload_kind=kind,
        payload_bytes=(draw(st.integers(min_value=0, max_value=1500))
                       if kind is MessageKind.PACKET else 0))


def _message_fields(msg):
    return (msg.msg_id, msg.name, msg.kind, msg.kind_label, msg.byte_length, list(msg._route),
            msg._created_ns)


@contextlib.contextmanager
def _recording_stamps():
    """Record each id a generator stamps on a message, whether
    `Simulator._message` makes it or the generator re-issues a spent one,
    as `(message, its fields then, the fields of the message
    Simulator.new_message would have made in its place)`: with that id,
    at that moment, and created at the `at` of the `Generator.emit` it is
    stamped in, if any. A generator stamps only inside its stock handler
    and `emit`, on a message that the call pushes or returns as its hop,
    so the ids an outermost such call draws are read when it ends, each
    from the one message it pushed or returned carrying that id."""
    stamps, pushed, depth = [], [], [0]
    handle, emit, push = Generator.handle_message, Generator.emit, FutureEventSet.push

    def stamping(gen, call, at=None):
        sim, start = gen._sim, len(pushed)
        first_id = sim._next_msg_id
        depth[0] += 1
        try:
            hop = call()
        finally:
            depth[0] -= 1
        if not depth[0]:
            carried = {msg.msg_id: msg for msg in pushed[start:] + ([hop[2]] if hop else [])}
            del pushed[start:]
            next_id = sim._next_msg_id
            for msg_id in range(first_id, next_id):
                msg = carried[msg_id]
                sim._next_msg_id = msg_id
                public = Simulator.new_message(sim, msg.name, msg.kind, msg.byte_length, at=at)
                stamps.append((msg, _message_fields(msg), _message_fields(public)))
            sim._next_msg_id = next_id
        return hop

    def recording_handle(self, msg, arrival_gate):
        return stamping(self, lambda: handle(self, msg, arrival_gate))

    def recording_emit(self, at=None):
        return stamping(self, lambda: emit(self, at), at)

    def recording_push(fes, t_ns, now_ns, target, gate_label, msg):
        if depth[0]:
            pushed.append(msg)
        return push(fes, t_ns, now_ns, target, gate_label, msg)

    # the stock handler is replaced as a whole, so trips are still made whole
    Generator.handle_message = Generator._trip_handler = recording_handle
    Generator.emit, FutureEventSet.push = recording_emit, recording_push
    try:
        yield stamps
    finally:
        Generator.handle_message = Generator._trip_handler = handle
        Generator.emit, FutureEventSet.push = emit, push


@given(network_specs(), generator_configs(),
       st.one_of(st.none(), st.integers(min_value=0, max_value=1500)), st.booleans())
@settings(deadline=None)
def test_generator_messages_equal_public_ones(spec, config, event_limit, traced):
    """Every id a run draws is stamped by a generator on a payload or
    timer, made by the kernel's private maker or re-issued, and when it
    is stamped, the message has the id, name, kind, kind label, byte
    length, empty route and creation time that `Simulator.new_message`
    gives at that moment; one is stamped per emission and one per
    return, and the payloads have the configured kind and size and the
    names of their generators' top layers."""
    spec = dataclasses.replace(spec, generators=[
        dataclasses.replace(decl, config=config) for decl in spec.generators])
    built = build(spec)
    sim = built.simulator()
    with _recording_stamps() as stamps:
        sim.run(until=spec.until, event_limit=event_limit,
                sinks=[_NopBatchSink()] if traced else [])
    assert [fields[0] for _, fields, _ in stamps] == list(range(1, sim._next_msg_id))
    for _, fields, public in stamps:
        assert fields == public
    payloads = [fields for _, fields, _ in stamps if fields[1] != TIMER_NAME]
    generators = [node.generator for node in built.nodes.values()
                  if node.generator is not None]
    assert len(payloads) == sum(gen.stats.emitted for gen in generators)
    assert len(stamps) - len(payloads) == sum(gen.stats.returned for gen in generators)
    assert {fields[2:5] for fields in payloads} <= {
        (config.payload_kind, config.payload_kind.value, config.payload_bytes)}
    # each named for its generator's top layer
    packets = config.payload_kind is MessageKind.PACKET
    top_names = {gen.down_gate.owner.packet_name if packets else gen.down_gate.owner.control_name
                 for gen in generators}
    assert {fields[1] for fields in payloads} <= top_names


class _TimerKeeper(Generator):
    """A generator whose own handler keeps each timer it is handed, in
    `kept`, with its id, name and creation time then."""

    def handle_message(self, msg, arrival_gate):
        if arrival_gate == SELF_GATE:
            self.kept.append((msg, (msg.msg_id, msg.name, msg._created_ns)))
        return super().handle_message(msg, arrival_gate)


@given(network_specs(), st.sampled_from(("layer", "generator", "user timer")), st.data())
@settings(deadline=None)
def test_a_held_message_is_never_reissued(spec, holder, data):
    """A run with no sink re-issues spent messages that no module holds,
    and no other: u[0], started at a drawn offset, has a top layer whose
    own handler keeps each payload that its lone trips bring back, or a
    generator whose own handler keeps each timer it is handed, or timers
    that user code pushes to its generator's self gate; while the other
    generators' trips may be made whole, each kept message keeps its id,
    name and creation time to the end of the run."""
    spec = dataclasses.replace(spec, until=SimTime.from_millis(60))
    built = build(spec)
    generator = built.nodes["u[0]" if "u[0]" in built.nodes else "u"].generator
    generator.config = dataclasses.replace(
        generator.config, start_time=SimTime(data.draw(st.integers(0, 5_000_000))))
    kept = []
    if holder == "layer":
        top = generator.down_gate.owner

        def keeping(msg, arrival_gate, handle=top.handle_message):
            hop = handle(msg, arrival_gate)
            if arrival_gate == IN_FROM_LOWER:  # renamed for the generator
                kept.append((msg, (msg.msg_id, msg.name, msg._created_ns)))
            return hop

        top.handle_message = keeping
    elif holder == "generator":
        generator.__class__, generator.kept = _TimerKeeper, kept
    sim = built.simulator()
    if holder == "user timer":
        period = generator.config.period.ns
        for t_ns in data.draw(st.lists(st.one_of(
                st.integers(0, 5).map(lambda k: k * period), st.integers(0, 59_999_999)),
                min_size=1, max_size=4)):
            msg = sim.new_message(TIMER_NAME, MessageKind.CONTROL_MESSAGE)
            sim.fes.push(t_ns, 0, generator, SELF_GATE, msg)
            kept.append((msg, (msg.msg_id, msg.name, msg._created_ns)))
    sim.run(until=spec.until)
    assert kept
    for msg, (msg_id, name, created_ns) in kept:
        assert (msg.msg_id, msg.name, msg._created_ns) == (msg_id, name, created_ns)


@given(st.one_of(network_specs(), specs_with_stacks()), generator_configs(), st.booleans(),
       st.booleans(), st.data())
@settings(deadline=None)
def test_trip_walks_change_nothing(spec, config, lockstep, equal_periods, data):
    """A generator on every UE, from one drawn config, each with the
    config's start or a drawn one of its own (lockstep or offset starts)
    and the config's period or a drawn one: first emissions or timers
    that share a bucket make lanes of trips, made in one step where their
    walks are equal.
    No sink against hop by hop, with no event limit, at a drawn one up to
    the run's event count, and at two drawn inside a lane of trips that
    the run with no limit made in one step, one of them among the lane's
    returns."""
    count = spec.node_decls[0].count
    starts = st.integers(min_value=0, max_value=5_000_000).map(SimTime)
    periods = st.integers(min_value=4, max_value=40).map(lambda k: SimTime(k * 250_000))
    spec.generators = [
        GeneratorDecl(_selector_for("u", count, i, want_all=False), dataclasses.replace(
            config,
            start_time=config.start_time if lockstep else data.draw(starts),
            period=config.period if equal_periods else data.draw(periods)))
        for i in range(count or 1)]
    with _recording_lane_checks() as checks:
        events = _end_state(spec, None, [])[0]
    # with no limit, the events before a lane check are sys.maxsize - room
    lanes = [(sys.maxsize - room, made, n) for _, room, n, _, made in checks if made]
    limits = [None, data.draw(st.integers(min_value=0, max_value=events))]
    if lanes:  # anywhere in a lane of trips, and among its last events, the returns
        before, walked, n = data.draw(st.sampled_from(lanes))
        limits += [before + data.draw(st.integers(min_value=0, max_value=walked)),
                   before + walked - data.draw(st.integers(min_value=1, max_value=n))]
    for event_limit in limits:
        assert (_end_state(spec, event_limit, [])
                == _end_state(spec, event_limit, [_NopBatchSink()]))


@pytest.mark.parametrize("workload", ["desk", "metro"])
def test_bench_scale_runs_end_as_hop_by_hop_runs(workload):
    """The benchmark's text at seed 7, where whole lanes hold up to 1,000
    trips: a run with no sink ends in the state of a run that makes every
    hop, with no limit, and at two limits inside a whole lane of timers,
    one among its steps and one among its returns."""
    spec = parse(bench_workloads()[workload](7)).spec
    with _recording_lane_checks() as checks:
        state = _end_state(spec, None, [])
    assert state == _end_state(spec, None, [_NopBatchSink()])
    # with no limit, the events before a lane check are sys.maxsize - room
    lanes = [(sys.maxsize - room, made, n) for _, room, n, label, made in checks
             if made and label == SELF_GATE]
    before, made, n = lanes[len(lanes) // 2]
    for event_limit in (before + made // 2, before + made - n // 2):
        assert (_end_state(spec, event_limit, [])
                == _end_state(spec, event_limit, [_NopBatchSink()]))


def test_emit_on_an_unbound_generator_raises(minimal_spec):
    generator = build(minimal_spec).nodes["ue"].generator
    with pytest.raises(SimulationError, match="not bound to a simulator"):
        generator.emit()
    assert generator.stats.emitted == 0


@contextlib.contextmanager
def _recording_walks():
    """Record every `_Walks` the runs inside make, each with the gates
    it walked afresh, in `fresh_gates`."""
    stock = kernel._Walks
    caches = []

    class Recording(stock):
        def __init__(self):
            super().__init__()
            self.fresh_gates = []
            caches.append(self)

        def fresh(self, gate):
            self.fresh_gates.append(gate)
            return stock.fresh(gate)

    kernel._Walks = Recording
    try:
        yield caches
    finally:
        kernel._Walks = stock


def _assert_walks_exact(caches):
    """Every cached walk, reused or not, is what an empty `_Walks`
    computes for its gate on the same tree, which the run left as it
    was."""
    stock = kernel._Walks
    assert caches
    for walks in caches:
        for gate, walk in walks.items():
            assert walk == stock()[gate]


@given(st.one_of(network_specs(), specs_with_stacks()),
       st.one_of(st.none(), st.integers(min_value=0, max_value=1500)))
@settings(deadline=None)
def test_reused_walks_are_exact(spec, event_limit):
    """A gate whose relay link leads to a gate with a cached walk takes
    that walk one step longer; over drawn stacks, delays and event
    limits, every walk a run with no sink caches equals the walk from
    its gate computed afresh."""
    with _recording_walks() as caches:
        _end_state(spec, event_limit, [])
    _assert_walks_exact(caches)


def test_a_trip_started_from_the_top_layer_and_the_one_below_is_walked_once():
    """ue[0]'s first emission is pushed, popped and relayed from its NAS
    to its RRC, where the run looks up the walk; each later one returns
    from the timer as a hop to the NAS, whose walk reuses the RRC's."""
    spec = dataclasses.replace(parse(TWO_UES_ONE_DELAYED).spec, until=SimTime.from_millis(25))
    with _recording_walks() as caches:
        built = build(spec)
        built.simulator().run(until=spec.until)
    walks, = caches
    nas, rrc = (layer._gates[IN_FROM_UPPER] for layer in built.nodes["ue[0]"].stack[:2])
    assert nas.relay_to is rrc
    assert walks.fresh_gates.count(rrc) == 1 and nas not in walks.fresh_gates
    end, steps, pushes = walks[rrc]
    assert walks[nas] == (end, steps + 1, pushes)
    assert end.owner is built.nodes["ue[0]"].generator
    _assert_walks_exact(caches)


def test_a_ring_of_relay_links_reuses_no_walk():
    """In a ring of links, the walk from each gate stops when it comes
    back to that gate, so the cached walk past a link runs through the
    gate before it and ends where it started: such a walk is not reused,
    and each gate of the ring is walked afresh."""
    root = CompoundModule("Network")
    a, b, c = (root.add_child(PassThroughLayer(name, name.upper())) for name in "abc")
    wire_vertical(a, b)
    wire_vertical(b, c)
    wire_vertical(c, a)
    sim = Simulator(root)
    sim.fes.push(0, 0, a, IN_FROM_UPPER, sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    with _recording_walks() as caches:
        sim.run(until=SimTime.from_seconds(1), event_limit=100)
    walks, = caches
    gates = [layer._gates[IN_FROM_UPPER] for layer in (a, b, c)]
    assert set(walks) == set(gates) and sorted(map(id, walks.fresh_gates)) == sorted(map(id, gates))
    assert all(walks[gate][:2] == (gate, 3) for gate in gates)
    _assert_walks_exact(caches)


class _TurnBack(PassThroughLayer):
    """A layer with the stock handler whose step rule sends arrivals from
    above back up, and keeps each route it is applied to."""

    waypoint = False  # whether an arrival from above pushes this layer

    def __init__(self, name, tag):
        super().__init__(name, tag)
        self.ruled = []

    def route_step(self, route, arrival_gate):
        if arrival_gate != IN_FROM_UPPER:
            return super().route_step(route, arrival_gate)
        self.ruled.append(route)
        if self.waypoint:
            route.append(self)
        return self.up_gate


class _TurnBackOverAWaypoint(_TurnBack):
    waypoint = True


@pytest.mark.parametrize("sink", [None, CollectingSink, _NopBatchSink],
                         ids=["untraced", "traced", "nop_batch"])
@pytest.mark.parametrize("cls", [_TurnBack, _TurnBackOverAWaypoint],
                         ids=lambda cls: cls.__name__)
def test_a_relay_link_follows_the_step_rule_of_its_module(cls, sink):
    """a -> b -> c, where b keeps the stock handler and its step rule
    sends arrivals from above back up: each message goes a, b, a and is
    dropped at a, which has nothing above it. b's gate from above is
    linked to a, unless the rule pushes a waypoint: then it has no link,
    and a run hop by hop applies the rule to each message's own route."""
    root = CompoundModule("Network")
    a, b, c = (root.add_child(layer(name, name.upper())) for layer, name in
               ((PassThroughLayer, "a"), (cls, "b"), (PassThroughLayer, "c")))
    wire_vertical(a, b)
    wire_vertical(b, c)
    sim = Simulator(root)
    msgs = [sim.new_message("m", MessageKind.CONTROL_MESSAGE),
            sim.new_message("p", MessageKind.PACKET, 100)]
    for t_ns, msg in zip((0, 1000), msgs):
        sim.fes.push(t_ns, 0, a, IN_FROM_UPPER, msg)
    sinks = [] if sink is None else [sink()]
    assert sim.run(until=SimTime.from_seconds(1), sinks=sinks).events_executed == 6
    assert [msg.name for msg in msgs] == ["AMsg", "APck"]
    assert [msg._route for msg in msgs] == [[b] if cls.waypoint else []] * 2
    assert [layer.drop_count for layer in (a, b, c)] == [2, 0, 0]
    linked = not cls.waypoint
    assert b._gates[IN_FROM_UPPER].relay_to is (a._gates[IN_FROM_LOWER] if linked else None)
    if sink is CollectingSink:
        assert [(rec.path, rec.msg_name) for rec in sinks[0].records] == [
            ("Network.a", "m"), ("Network.b", "BMsg"), ("Network.a", "AMsg"),
            ("Network.a", "p"), ("Network.b", "BPck"), ("Network.a", "APck")]
    # a link or walk probes the rule on a copy, never on a message's route
    own = [route for route in b.ruled if any(route is msg._route for msg in msgs)]
    assert all(type(route) is list for route in b.ruled)
    if sink is not None:
        assert own == ([] if linked else [msg._route for msg in msgs])


def _recording_rule(rule, calls):
    """`rule`, a module's bound step rule, keeping each call's route and
    label, and the message whose arrival it was applied at: the `msg` of
    the stock handler that called it, None for a link or walk probe."""
    handler = Forwarder.handle_message.__code__

    def route_step(route, arrival_gate):
        caller = sys._getframe(1)
        calls.append((route, arrival_gate,
                      caller.f_locals["msg"] if caller.f_code is handler else None))
        return rule(route, arrival_gate)

    return route_step


@given(st.one_of(network_specs(), specs_with_stacks()), st.booleans())
@settings(deadline=None)
def test_step_rules_see_a_route_and_a_label(spec, traced):
    """Every call of a stock-handled module's step rule gets a list and
    a label, never a message: at an arrival, the arriving message's own
    route, and at a link or walk probe, a copy that is no message's
    route."""
    built = build(spec)
    sim = built.simulator()
    msgs, calls = [], []
    new_message = sim.new_message

    def recording_new_message(*args, **kwargs):
        msgs.append(new_message(*args, **kwargs))
        return msgs[-1]

    sim.new_message = recording_new_message
    for module in built.root.iter_tree():
        if isinstance(module, Forwarder):
            module.route_step = _recording_rule(module.route_step, calls)
    with _recording_stamps() as stamps:
        sim.run(until=spec.until, sinks=[CollectingSink()] if traced else [])
    msgs += [msg for msg, _, _ in stamps]
    # the generators' payloads and timers: one stamp per emission and per return
    stats = [node.generator.stats for node in built.nodes.values()
             if node.generator is not None]
    assert len(stamps) == sum(stat.emitted + stat.returned for stat in stats)
    assert calls
    for route, label, msg in calls:
        assert type(route) is list and type(label) is str
        if msg is None:
            assert all(route is not other._route for other in msgs)
        else:
            assert route is msg._route


class _Echo(SimpleModule):
    """Records each arrival's label; sends its self-event's message on to
    its own Out gate's label, "o", as a hop."""

    def __init__(self, name):
        super().__init__(name)
        self.seen = []

    def handle_message(self, msg, arrival_gate):
        self.seen.append(arrival_gate)
        return (self, "o", msg) if arrival_gate == SELF_GATE else None


@pytest.mark.parametrize("sink", [None, CollectingSink, _NopBatchSink],
                         ids=["untraced", "traced", "nop_batch"])
def test_an_arrival_on_an_out_gate_label_reaches_the_handler(sink):
    """x's Out gate "o" is the channel into b, whose gate there has a relay
    link down to c. Arrivals at x on "o", popped from a lane of two and
    returned as a hop, still reach x's handler: a link or walk belongs to
    the In end of the channel only."""
    root = CompoundModule("Network")
    x, b, c = (root.add_child(module) for module in
               (_Echo("x"), PassThroughLayer("b", "B"), PassThroughLayer("c", "C")))
    connect(x, "o", b, IN_FROM_UPPER)
    wire_vertical(b, c)
    sim = Simulator(root)
    for t_ns, label in ((0, "o"), (0, "o"), (5, SELF_GATE)):
        sim.fes.push(t_ns, 0, x, label, sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    sinks = [] if sink is None else [sink()]
    assert sim.run(until=SimTime(10), sinks=sinks).events_executed == 4
    assert x.seen == ["o", "o", SELF_GATE, "o"]
    assert b._gates[IN_FROM_UPPER].relay_to is c._gates[IN_FROM_UPPER]
    assert (b.drop_count, c.drop_count) == (0, 0)


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
    wraps them, no relay link is set, so every event reaches a handler,
    with a sink and with none; and no handler calls another class's
    handle_message for the same event, so per-type handler counts are
    per-type event counts."""
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
    # with no sink too: a wrapped handler also keeps a generator's trips seen
    untraced = Counter()
    with _counting_handler_calls(untraced):
        assert build(spec).simulator().run(
            until=spec.until, event_limit=event_limit).events_executed == summary.events_executed
    assert untraced == calls


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
