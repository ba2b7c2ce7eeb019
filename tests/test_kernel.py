"""Kernel tests: SimTime arithmetic, FES ordering, message identity, run loop."""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from lteadv_sim.kernel import (MAX_TIME_NS, FutureEventSet, HandlerError,
                               MessageKind, RunSummary, SchedulingInPast, SimMessage, SimTime,
                               SimTimeRangeError, SimulationError, Simulator,
                               StopReason)
from lteadv_sim.lte_nodes import PassThroughLayer, wire_vertical
from lteadv_sim.model import IN_FROM_UPPER, CompoundModule, SimpleModule
from lteadv_sim.netconfig import build, parse
from lteadv_sim.trace import CollectingSink

from conftest import pop_entry


class Recorder(SimpleModule):
    """Test module that remembers every arrival."""

    def __init__(self, name="recorder"):
        super().__init__(name)
        self.seen = []

    def handle_message(self, msg, arrival_gate):
        self.seen.append((self.sim.now.ns, msg.name, arrival_gate))


class Exploder(SimpleModule):
    def handle_message(self, msg, arrival_gate):
        raise RuntimeError("boom")


class Relayer(SimpleModule):
    """Test module that hands every arrival on to `target` with no delay."""

    def __init__(self, name, target):
        super().__init__(name)
        self.target = target

    def handle_message(self, msg, arrival_gate):
        return self.target, "g", msg


def make_net(*modules):
    root = CompoundModule("Net")
    for m in modules:
        root.add_child(m)
    return root


# -- SimTime ---------------------------------------------------------------

def test_ten_ms_is_exact():
    assert SimTime.from_millis(10).ns == 10_000_000
    # the canonical generator period: 0.01 s exactly
    assert SimTime.from_millis(10).seconds_str() == "0.01"


def test_negative_time_rejected():
    with pytest.raises(SimTimeRangeError):
        SimTime(-1)
    with pytest.raises(SimTimeRangeError):
        SimTime(5) - SimTime(6)


def test_overflow_is_an_error_not_a_wrap():
    SimTime(MAX_TIME_NS)  # the boundary itself is fine
    with pytest.raises(SimTimeRangeError):
        SimTime(MAX_TIME_NS) + SimTime(1)
    with pytest.raises(SimTimeRangeError):
        SimTime(MAX_TIME_NS) * 2


def test_seconds_str_rendering():
    assert SimTime(0).seconds_str() == "0"
    assert SimTime(10_000_000).seconds_str() == "0.01"
    assert SimTime(1_500_000_000).seconds_str() == "1.5"
    assert SimTime.from_seconds(2).seconds_str() == "2"
    assert SimTime(1).seconds_str() == "0.000000001"
    assert str(SimTime(1_500_000_000)) == "1.5s"
    assert repr(SimTime(1_500_000_000)) == "SimTime(1500000000)"


def test_arithmetic_takes_simtimes_and_int_factors_only():
    for op in (lambda: SimTime(1) + 1, lambda: SimTime(1) - 1,
               lambda: SimTime(1) * 1.5, lambda: SimTime(1) * True):
        with pytest.raises(TypeError):
            op()
    assert 3 * SimTime(2) == SimTime(2) * 3 == SimTime(6)


@given(st.integers(min_value=0, max_value=MAX_TIME_NS))
def test_seconds_str_never_uses_exponent_or_trailing_zeros(ns):
    text = SimTime(ns).seconds_str()
    assert "e" not in text and "E" not in text
    if "." in text:
        assert not text.endswith("0") and not text.endswith(".")
    # it must round-trip exactly through decimal seconds
    secs, _, frac = text.partition(".")
    assert int(secs) * 10**9 + int(frac.ljust(9, "0") or "0") == ns


# -- FutureEventSet ---------------------------------------------------------

def push_named(fes, t_ns, tag="", now_ns=0):
    """Push a control message named `tag` to fire at `t_ns`."""
    msg = SimMessage(0, tag, MessageKind.CONTROL_MESSAGE, 0, SimTime(0))
    return fes.push(t_ns, now_ns, None, "g", msg)


def test_schedule_at_now_pops_before_later_events():
    fes = FutureEventSet()
    push_named(fes, 5, "later")
    push_named(fes, 0, "now")
    assert pop_entry(fes)[4].name == "now"
    assert pop_entry(fes)[4].name == "later"


def test_equal_times_pop_fifo():
    fes = FutureEventSet()
    t = SimTime.from_millis(10)
    fes.push(t.ns, 0, None, "g", SimMessage(1, "A", MessageKind.CONTROL_MESSAGE, 0, t))
    fes.push(t.ns, 0, None, "g", SimMessage(2, "B", MessageKind.CONTROL_MESSAGE, 0, t))
    assert pop_entry(fes)[4].name == "A"
    assert pop_entry(fes)[4].name == "B"


def test_scheduling_in_past_rejected():
    fes = FutureEventSet()
    with pytest.raises(SchedulingInPast):
        push_named(fes, 9_999_999, now_ns=10_000_000)


def test_pop_min_time_first():
    fes = FutureEventSet()
    push_named(fes, 5_000_000, "a")
    push_named(fes, 3_000_000, "b")
    popped = pop_entry(fes)
    assert popped[0] == 3_000_000 and popped[4].name == "b"


def test_pop_from_empty_returns_none():
    assert pop_entry(FutureEventSet()) is None


def _stable_sort_oracle(times):
    """Independent oracle: a stable sort of (time, arrival order)."""
    return [t for t, _ in sorted(((t, i) for i, t in enumerate(times)),
                                 key=lambda pair: pair[0])]


def test_pop_order_matches_stable_sort_oracle_1000_random():
    rng = random.Random(12345)
    times = [rng.randrange(0, 50) * 1_000_000 for _ in range(1000)]
    fes = FutureEventSet()
    for i, t in enumerate(times):
        msg = SimMessage(i, str(i), MessageKind.CONTROL_MESSAGE, 0, SimTime(0))
        fes.push(t, 0, None, "g", msg)
    popped = []
    while True:
        nxt = pop_entry(fes)
        if nxt is None:
            break
        popped.append((nxt[0], int(nxt[4].name)))
    expected = sorted(((t, i) for i, t in enumerate(times)), key=lambda p: p[0])
    assert popped == expected


@given(st.lists(st.integers(min_value=0, max_value=20), max_size=200))
def test_pop_order_property(times):
    fes = FutureEventSet()
    for i, t in enumerate(times):
        msg = SimMessage(i, str(i), MessageKind.CONTROL_MESSAGE, 0, SimTime(0))
        fes.push(t, 0, None, "g", msg)
    popped = []
    while fes:
        nxt = pop_entry(fes)
        popped.append((nxt[0], int(nxt[4].name)))
    assert popped == sorted(((t, i) for i, t in enumerate(times)),
                            key=lambda p: p[0])


def _tag(fes, t_ns, now_ns):
    """Push an event whose message name is its insertion sequence."""
    msg = SimMessage(0, "", MessageKind.CONTROL_MESSAGE, 0, SimTime(0))
    msg.name = str(fes.push(t_ns, now_ns, None, "g", msg))
    return msg.name


def test_delayed_entries_pop_before_zero_delay_ones_at_the_same_time():
    fes = FutureEventSet()
    # pushed at 0 with a delay: these fire at 10 and were inserted first
    early = [_tag(fes, 10, 0), _tag(fes, 10, 0)]
    first = pop_entry(fes)  # nothing earlier, so the clock moves to 10
    assert first[0] == 10 and first[4].name == early[0]
    # zero-delay pushes at 10, as a handler running at 10 makes them
    late = [_tag(fes, 10, 10), _tag(fes, 10, 10)]
    assert len(fes) == 3
    assert [pop_entry(fes)[4].name for _ in range(3)] == early[1:] + late
    assert not fes and pop_entry(fes) is None


_FES_OPS = st.lists(st.one_of(
    # push as the simulator does: now is the last popped time
    st.tuples(st.just("push_at_clock"), st.sampled_from([0, 0, 0, 1, 3])),
    # push with any now, at that now plus a delay
    st.tuples(st.just("push_free"), st.integers(0, 12), st.sampled_from([0, 0, 0, 1, 3])),
    st.tuples(st.just("pop_entry")),
    # start a pop_before over the live FES, then step it
    st.tuples(st.just("pop_before"), st.integers(0, 15)),
    st.tuples(st.just("step")),
), max_size=80)


@given(_FES_OPS)
# a zero-delay push at 0 after one at 1: the lane holds time 1 at that point
@example([("push_free", 1, 0), ("push_at_clock", 0), ("pop_entry",)])
# the lane drains at 10; then a push at 10, with an earlier entry pushed
# before it and after it
@example([("push_free", 9, 1), ("pop_entry",), ("push_free", 2, 1),
          ("push_free", 10, 0), ("pop_entry",), ("pop_entry",)])
@example([("push_free", 9, 1), ("pop_entry",), ("push_free", 10, 0),
          ("push_free", 2, 1), ("pop_entry",), ("pop_entry",)])
# the stage holds 1, so a push at 3 goes to the heap; once the stage is
# empty it takes 3, and the heap's earlier push at 3 pops first
@example([("push_free", 0, 1), ("push_free", 0, 3), ("pop_entry",),
          ("push_at_clock", 2), ("pop_entry",), ("pop_entry",)])
# the stage holds a far time while nearer pushes go to the heap
@example([("push_free", 0, 9), ("push_free", 0, 3), ("push_free", 0, 5),
          ("push_free", 0, 9), ("pop_entry",), ("pop_entry",), ("pop_entry",),
          ("pop_entry",)])
# a push before the lane's time moves the lane onto the heap, and leaves
# the stage as it is
@example([("push_free", 0, 5), ("push_free", 0, 2), ("push_free", 0, 2),
          ("pop_entry",), ("push_free", 0, 1), ("push_free", 0, 5), ("pop_entry",),
          ("pop_entry",), ("pop_entry",), ("pop_entry",)])
# only staged entries: len and bool count them
@example([("push_free", 0, 4), ("push_free", 0, 4)])
def test_interleaved_push_and_pop_follow_time_then_seq(ops):
    fes = FutureEventSet()
    ref = []  # (t_ns, seq) of every pending entry
    clock = 0
    gen, until = None, None

    def check_pop(entry):
        nonlocal clock
        head = min(ref)
        assert entry == head
        ref.remove(head)
        clock = head[0]

    for op in ops:
        if op[0] == "push_at_clock":
            t_ns, now_ns = clock + op[1], clock
        elif op[0] == "push_free":
            t_ns, now_ns = op[1] + op[2], op[1]
        if op[0].startswith("push"):
            ref.append((t_ns, fes.push(t_ns, now_ns, None, "g", None)))
        elif op[0] == "pop_entry":
            popped = pop_entry(fes)
            if ref:
                check_pop(popped[:2])
            else:
                assert popped is None
        elif op[0] == "pop_before":
            gen, until = fes.pop_before(op[1]), op[1]
        elif gen is not None:
            entry = next(gen, None)
            if entry is None:
                assert not ref or min(ref)[0] >= until
                gen = None
            else:
                assert entry[0] < until
                check_pop(entry[:2])
        assert len(fes) == len(ref)
        assert bool(fes) is bool(ref)


# -- message identity --------------------------------------------------------

def test_new_message_fields_and_ids():
    sim = Simulator(make_net())
    a = sim.new_message("NASMsg", MessageKind.CONTROL_MESSAGE, 0)
    b = sim.new_message("DataPck", MessageKind.PACKET, 1500)
    assert a.name == "NASMsg" and a.kind is MessageKind.CONTROL_MESSAGE
    assert a.creation_time == SimTime(0)
    assert b.msg_id == a.msg_id + 1
    assert b.kind is MessageKind.PACKET and b.byte_length == 1500
    assert repr(b) == "SimMessage(id=2, name='DataPck', kind=cPacket)"


def test_control_message_must_have_zero_bytes():
    sim = Simulator(make_net())
    with pytest.raises(ValueError):
        sim.new_message("x", MessageKind.CONTROL_MESSAGE, 10)


@pytest.mark.parametrize("msg_id, name, kind, byte_length, creation_time, error", [
    (1.5, "x", MessageKind.PACKET, 1, 0, TypeError),
    (True, "x", MessageKind.PACKET, 1, 0, TypeError),
    (1, None, MessageKind.PACKET, 1, 0, TypeError),
    (1, "x", "cPacket", 1, 0, TypeError),
    (1, "x", MessageKind.PACKET, 1.5, 0, TypeError),
    (1, "x", MessageKind.PACKET, True, 0, TypeError),
    (1, "x", MessageKind.PACKET, -1, 0, ValueError),
    (1, "x", MessageKind.PACKET, 1, -1, SimTimeRangeError),
    (1, "x", MessageKind.PACKET, 1, MAX_TIME_NS + 1, SimTimeRangeError),
    (1, "x", MessageKind.PACKET, 1, True, TypeError),
    (1, "x", MessageKind.PACKET, 1, 1.0, TypeError),
])
def test_message_arguments_are_checked_at_construction(msg_id, name, kind, byte_length,
                                                       creation_time, error):
    with pytest.raises(error):
        SimMessage(msg_id, name, kind, byte_length, creation_time)


def test_new_message_checks_its_creation_time():
    sim = Simulator(make_net())
    with pytest.raises(SimTimeRangeError):
        sim.new_message("x", MessageKind.CONTROL_MESSAGE, at=-5)
    assert sim.new_message("x", MessageKind.CONTROL_MESSAGE, at=SimTime(5)).msg_id == 1


def test_msg_id_survives_rename():
    sim = Simulator(make_net())
    m = sim.new_message("NASMsg", MessageKind.CONTROL_MESSAGE)
    before = m.msg_id
    m.name = "RRCMsg"
    assert m.msg_id == before


# -- run loop ----------------------------------------------------------------

def test_empty_network_run():
    sim = Simulator(make_net())
    summary = sim.run(until=SimTime.from_seconds(1))
    assert summary.events_executed == 0
    assert summary.stop_reason is StopReason.FES_EMPTY
    assert summary.final_time == SimTime(0)


def test_run_until_is_exclusive():
    rec = Recorder()
    root = make_net(rec)
    sim = Simulator(root)
    for t in (0, 5, 10):
        msg = sim.new_message(f"m{t}", MessageKind.CONTROL_MESSAGE)
        sim.fes.push(t, sim.now_ns, rec, "g", msg)
    summary = sim.run(until=SimTime(10))
    assert [name for _, name, _ in rec.seen] == ["m0", "m5"]
    assert summary.stop_reason is StopReason.TIME_LIMIT
    assert summary.final_time == SimTime(5)  # clock stays at the last executed event


class PeriodicSource(SimpleModule):
    """Self-scheduling emitter used for the emission-count oracle test."""

    def __init__(self, period_ns):
        super().__init__("source")
        self.period_ns = period_ns
        self.fired = 0

    def on_start(self, sim):
        msg = sim.new_message("tick", MessageKind.CONTROL_MESSAGE)
        sim.fes.push(0, sim.now_ns, self, "self", msg)

    def handle_message(self, msg, arrival_gate):
        self.fired += 1
        nxt = self.sim.new_message("tick", MessageKind.CONTROL_MESSAGE)
        self.schedule_self(nxt, self.sim.now + SimTime(self.period_ns))


@pytest.mark.parametrize("until_ns,period_ns", [
    (1_000_000_000, 10_000_000),   # 1 s, 10 ms
    (1_000_000_000, 7_000_000),    # period not dividing the horizon
    (10_000_000, 10_000_000),      # exactly one tick at t=0
    (5, 3),
])
def test_emission_count_matches_arithmetic_oracle(until_ns, period_ns):
    src = PeriodicSource(period_ns)
    sim = Simulator(make_net(src))
    sim.run(until=SimTime(until_ns))
    # one-line oracle: emissions in [0, until) at multiples of the period
    assert src.fired == (until_ns - 1) // period_ns + 1


def test_event_limit_stops_the_run():
    src = PeriodicSource(1)
    sim = Simulator(make_net(src))
    summary = sim.run(until=SimTime.from_seconds(1), event_limit=17)
    assert summary.events_executed == 17
    assert summary.stop_reason is StopReason.EVENT_LIMIT


def test_a_ring_of_relay_links_runs_hop_by_hop_to_the_event_limit():
    """Three layers wired in a ring pass one message around it forever at
    t = 0. A run with no sink, which jumps walks of relay links, stops
    each walk at the first gate it visits again, so it jumps one lap at
    a time, and makes each hop once a lap would pass the event limit."""
    root = CompoundModule("Network")
    a, b, c = (root.add_child(PassThroughLayer(name, name.upper())) for name in "abc")
    wire_vertical(a, b)
    wire_vertical(b, c)
    wire_vertical(c, a)
    sim = Simulator(root)
    sim.fes.push(0, 0, a, IN_FROM_UPPER, sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    summary = sim.run(until=SimTime.from_seconds(1), event_limit=1000)
    assert (summary.events_executed, summary.stop_reason, sim.now_ns, len(sim.fes)) == (
        1000, StopReason.EVENT_LIMIT, 0, 1)


def test_stop_counts_entries_still_waiting_at_the_current_time(minimal_spec):
    # event 10 is mid-way down the UE stack: the message is in flight, to
    # fire at the current time, and no generator timer is armed yet
    sim = build(minimal_spec).simulator()
    summary = sim.run(until=minimal_spec.until, event_limit=10)
    assert summary.stop_reason is StopReason.EVENT_LIMIT
    assert summary.final_time == SimTime(0)
    assert len(sim.fes) == 1 and sim.fes


def test_entries_pushed_around_a_pop_before_the_run_keep_their_order():
    # a pop before the run moves the FES to 10 ns; the push at 10 ns after
    # it must still wait behind the generator's first message, due at 0
    spec = parse((Path(__file__).parent / "fixtures" / "minimal.net").read_text()).spec
    sim = build(spec).simulator()
    nas = sim.root.child("ue").child("lte_nas")

    def push_at_10():
        sim.fes.push(10, 0, nas, "inFromUpperLayer",
                     sim.new_message("Early", MessageKind.CONTROL_MESSAGE))

    push_at_10()
    assert pop_entry(sim.fes)[0] == 10
    push_at_10()
    sink = CollectingSink()
    summary = sim.run(until=spec.until, event_limit=4, sinks=[sink])
    assert [(r.t_ns, r.path, r.msg_name) for r in sink.records] == [
        (0, "Network.ue.lte_nas", "NASMsg"),
        (0, "Network.ue.lte_rrc", "RRCMsg"),
        (0, "Network.ue.lte_pdcp", "PDCPMsg"),
        (0, "Network.ue.lte_rlc", "RLCMsg"),
    ]
    assert summary.final_time == SimTime(0)
    # the message in flight down the UE stack and the second push
    assert len(sim.fes) == 2


def test_time_and_empty_stop_reasons_are_unchanged(minimal_spec):
    # the first trip ends at 0; only the next timer, at 10 ms, is pending
    sim = build(minimal_spec).simulator()
    summary = sim.run(until=SimTime.from_millis(5))
    assert summary.stop_reason is StopReason.TIME_LIMIT
    assert summary.events_executed == 38
    assert len(sim.fes) == 1 and sim.fes

    rec = Recorder()
    sim = Simulator(make_net(rec))
    for _ in range(3):
        sim.fes.push(0, sim.now_ns, rec, "g",
                     sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    summary = sim.run(until=SimTime(10))
    assert summary.stop_reason is StopReason.FES_EMPTY
    assert summary.events_executed == 3
    assert len(sim.fes) == 0 and not sim.fes


def test_clock_is_monotone_and_events_counted():
    rec = Recorder()
    root = make_net(rec)
    sim = Simulator(root)
    rng = random.Random(7)
    times = [rng.randrange(0, 1000) for _ in range(300)]
    for t in times:
        sim.fes.push(t, sim.now_ns, rec, "g", sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    summary = sim.run(until=SimTime(2000))
    stamps = [t for t, _, _ in rec.seen]
    assert stamps == sorted(stamps)
    assert summary.events_executed == len(rec.seen) == len(times)


def test_handler_failure_carries_path_and_event_number():
    bad = Exploder("bad")
    root = make_net(bad)
    sim = Simulator(root)
    sim.fes.push(0, sim.now_ns, bad, "g", sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    with pytest.raises(HandlerError) as exc_info:
        sim.run(until=SimTime(10))
    assert exc_info.value.module_path == "Net.bad"
    assert exc_info.value.event_no == 1


@pytest.mark.parametrize("cause,text", [
    ("Net.bad: no route", "no route"),          # names the module: the path once
    ("Net.bad.x: no route", "Net.bad.x: no route"),
    ("no route at Net.bad: here", "no route at Net.bad: here"),
    ("", ""),
])
def test_handler_error_names_its_module_once(cause, text):
    assert str(HandlerError("Net.bad", 7, ValueError(cause))) == f"event #7 at Net.bad: {text}"


@pytest.mark.parametrize("others_due_now", [0, 2])
def test_handler_failure_on_a_returned_hop_carries_its_event_number(others_due_now):
    # alone at t=0 the hop is dispatched at once; behind two other entries
    # due now it is queued after them
    bad = Exploder("bad")
    relayer = Relayer("relayer", bad)
    rec = Recorder()
    sim = Simulator(make_net(relayer, bad, rec))
    sim.fes.push(0, sim.now_ns, relayer, "g",
                 sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    for _ in range(others_due_now):
        sim.fes.push(0, sim.now_ns, rec, "g",
                     sim.new_message("o", MessageKind.CONTROL_MESSAGE))
    sink = CollectingSink()
    with pytest.raises(HandlerError) as exc_info:
        sim.run(until=SimTime(10), sinks=[sink])
    last = sink.records[-1]
    assert exc_info.value.module_path == last.path == "Net.bad"
    assert exc_info.value.event_no == last.event_no == 2 + others_due_now
    assert len(rec.seen) == others_due_now


class Returner(SimpleModule):
    """Test module that returns `hop` from every arrival."""

    def __init__(self, name, hop):
        super().__init__(name)
        self.hop = hop

    def handle_message(self, msg, arrival_gate):
        return self.hop


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("hop,cause", [(True, TypeError), ("x", ValueError),
                                       ((1, 2), ValueError)], ids=["bool", "str", "pair"])
def test_a_returned_hop_that_does_not_unpack_is_a_handler_error(hop, cause, traced):
    # the event after one that queued nothing, so its number and the
    # module are the returner's
    rec = Recorder("rec")
    bad = Returner("bad", hop)
    sim = Simulator(make_net(rec, bad))
    sim.fes.push(0, 0, rec, "g", sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    sim.fes.push(1, 0, bad, "g", sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    sink = CollectingSink()
    with pytest.raises(HandlerError) as exc_info:
        sim.run(until=SimTime(10), sinks=[sink] if traced else [])
    assert (exc_info.value.module_path, exc_info.value.event_no) == ("Net.bad", 2)
    assert type(exc_info.value.__cause__) is cause
    assert [r.path for r in sink.records] == (["Net.rec", "Net.bad"] if traced else [])


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("busy", [False, True], ids=["lane_empty", "lane_busy"])
def test_a_returned_hop_to_no_module_is_a_handler_error(busy, traced):
    # a 3-tuple whose target is a string fails at the return, as the
    # returner's event, whether the hop would be dispatched or queued
    rec = Recorder("rec")
    bad = Returner("bad", None)
    sim = Simulator(make_net(rec, bad))
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    bad.hop = ("x", "g", msg)
    sim.fes.push(0, 0, bad, "g", msg)
    if busy:
        sim.fes.push(0, 0, rec, "g", sim.new_message("o", MessageKind.CONTROL_MESSAGE))
    sink = CollectingSink()
    with pytest.raises(HandlerError) as exc_info:
        sim.run(until=SimTime(10), sinks=[sink] if traced else [])
    assert (exc_info.value.module_path, exc_info.value.event_no) == ("Net.bad", 1)
    assert type(exc_info.value.__cause__) is AttributeError
    assert rec.seen == []
    assert [r.path for r in sink.records] == (["Net.bad"] if traced else [])


def test_a_hop_to_a_label_with_no_gate_reaches_its_handler_in_a_run_with_no_sink():
    # nothing else is due, so the run looks for relay links to jump from
    # the hop's gate; with no gate there is none, and the handler fails
    bad = Exploder("bad")
    relayer = Relayer("relayer", bad)
    sim = Simulator(make_net(relayer, bad))
    sim.fes.push(0, 0, relayer, "g", sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    with pytest.raises(HandlerError) as exc_info:
        sim.run(until=SimTime(10))
    assert (exc_info.value.module_path, exc_info.value.event_no) == ("Net.bad", 2)


def test_simulator_runs_once():
    sim = Simulator(make_net())
    assert isinstance(sim.run(until=SimTime(1)), RunSummary)
    with pytest.raises(SimulationError):
        sim.run(until=SimTime(2))


@pytest.mark.parametrize("bad, error", [
    ({"event_limit": 2.5}, TypeError),
    ({"event_limit": True}, TypeError),
    ({"event_limit": "5"}, TypeError),
    ({"event_limit": -1}, ValueError),
    ({"until": 1_000_000}, TypeError),
    ({"sinks": None}, TypeError),
    ({"sinks": [object()]}, AttributeError),
])
def test_run_refuses_bad_arguments_before_it_starts(bad, error):
    """A refused call runs nothing, pushes nothing and leaves the
    simulator able to run as a fresh one does."""
    spec = parse((Path(__file__).parent / "fixtures" / "minimal.net").read_text()).spec
    sim = build(spec).simulator()
    with pytest.raises(error):
        sim.run(**{"until": spec.until, **bad})
    assert len(sim.fes) == 0 and sim._next_msg_id == 1
    summary = sim.run(until=spec.until, event_limit=5)
    fresh = build(spec).simulator().run(until=spec.until, event_limit=5)
    assert summary.events_executed == fresh.events_executed == 5
    assert (summary.stop_reason, summary.final_time) == (fresh.stop_reason, fresh.final_time)


def test_one_simulator_per_module_tree():
    root = make_net(Recorder())
    Simulator(root)
    with pytest.raises(SimulationError):
        Simulator(root)
