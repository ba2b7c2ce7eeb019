"""Model tests: gates, channels, delivery timing, paths and id assignment."""

import pytest

from lteadv_sim.kernel import (MAX_TIME_NS, HandlerError, MessageKind,
                               SchedulingInPast, SimMessage, SimTime,
                               SimTimeRangeError, SimulationError, Simulator)
from lteadv_sim.model import (AlreadyAttached, ChannelSpec, CompoundModule, DetachedModule,
                              Direction, DirectionMismatch, DuplicateName,
                              GateAlreadyConnected, SimpleModule, TreeCycle,
                              UnconnectedGate, UnknownGate, UnknownTargetGate, WiringLocked,
                              connect, send, send_direct)

from conftest import gate_state, pop_entry


class Sink(SimpleModule):
    def __init__(self, name):
        super().__init__(name)
        self.seen = []

    def handle_message(self, msg, arrival_gate):
        self.seen.append((self.sim.now.ns, msg.msg_id, msg.name, arrival_gate))


def two_module_net():
    root = CompoundModule("Network")
    a = Sink("a")
    b = Sink("b")
    root.add_child(a)
    root.add_child(b)
    return root, a, b


# -- connect -----------------------------------------------------------------

def test_connect_and_zero_delay_arrival():
    root, a, b = two_module_net()
    out = a.add_gate("outToLowerLayer", Direction.OUT)
    inn = b.add_gate("inFromUpperLayer", Direction.IN)
    connect(out, inn, ChannelSpec(SimTime(0)))
    sim = Simulator(root)
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    seq = send(a, msg, "outToLowerLayer")
    t_ns, popped_seq, target, arrival_gate, payload = pop_entry(sim.fes)
    assert popped_seq == seq and payload is msg
    assert target is b
    assert arrival_gate == "inFromUpperLayer"
    assert t_ns == 0  # arrival time equals send time


def test_connect_enters_one_channel_in_both_tables():
    """The Out gate becomes the channel, under its Out label at its source
    and its In label at its target. The In gate is retired: it reads as
    a copy of the channel but sits in no table."""
    root, a, b = two_module_net()
    out = a.add_gate("o", Direction.OUT)
    inn = b.add_gate("i", Direction.IN, index=2)
    assert (out.owner, out.label, out.source, out.source_label) == (None, None, a, "o")
    assert (inn.owner, inn.label, inn.source, inn.source_label) == (b, "i[2]", None, None)
    connect(out, inn, ChannelSpec(SimTime(3)))
    assert a._gates == {"o": out} and b._gates == {"i[2]": out}
    assert (out.owner, out.label, out.source, out.source_label, out.delay_ns) == (
        b, "i[2]", a, "o", 3)
    assert (inn.owner, inn.label, inn.source, inn.source_label, inn.delay_ns) == (
        b, "i[2]", a, "o", 3)
    assert repr(out) == "Gate(a.o -> b.i[2])"


def test_a_module_connected_to_itself_sends_only_out_of_its_out_gate():
    """Both ends of the channel are in one table: "o" is its Out gate and
    "i" its In gate, and neither serves as the other."""
    root = CompoundModule("Network")
    a, b = root.add_child(Sink("a")), root.add_child(Sink("b"))
    connect(a.add_gate("o", Direction.OUT), a.add_gate("i", Direction.IN))
    assert list(a._gates) == ["o", "i"]
    sim = Simulator(root)
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    seq = send(a, msg, "o")
    assert pop_entry(sim.fes) == (0, seq, a, "i", msg)
    with pytest.raises(UnknownGate, match="^Network.a has no Out gate 'i'$"):
        send(a, msg, "i")
    with pytest.raises(UnknownTargetGate, match="^Network.a has no In gate 'o'$"):
        send_direct(b, msg, a, "o")
    assert len(sim.fes) == 0


def test_direction_mismatch():
    root, a, b = two_module_net()
    in1 = a.add_gate("in1", Direction.IN)
    in2 = b.add_gate("in2", Direction.IN)
    with pytest.raises(DirectionMismatch):
        connect(in1, in2)


def test_gate_already_connected():
    root, a, b = two_module_net()
    out = a.add_gate("o", Direction.OUT)
    inn = b.add_gate("i", Direction.IN)
    connect(out, inn)
    c = Sink("c")
    root.add_child(c)
    with pytest.raises(GateAlreadyConnected):
        connect(out, c.add_gate("i", Direction.IN))
    with pytest.raises(GateAlreadyConnected):
        connect(c.add_gate("o", Direction.OUT), inn)


def test_send_adds_channel_delay():
    root, a, b = two_module_net()
    connect(a.add_gate("o", Direction.OUT), b.add_gate("i", Direction.IN),
            ChannelSpec(SimTime.from_millis(5)))
    sim = Simulator(root)
    seq = send(a, sim.new_message("m", MessageKind.CONTROL_MESSAGE),
               "o", now=SimTime.from_millis(10))
    assert pop_entry(sim.fes)[:2] == (SimTime.from_millis(15).ns, seq)


def test_send_on_unknown_and_unconnected_gates():
    root, a, b = two_module_net()
    a.add_gate("wired_not", Direction.OUT)
    sim = Simulator(root)
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    with pytest.raises(UnknownGate):
        send(a, msg, "nope")
    with pytest.raises(UnconnectedGate):
        send(a, msg, "wired_not")


def test_scheduling_calls_need_a_bound_module():
    root, a, b = two_module_net()
    connect(a.add_gate("o", Direction.OUT), b.add_gate("i", Direction.IN))
    b.add_gate("radioIn", Direction.IN)
    msg = SimMessage(1, "m", MessageKind.CONTROL_MESSAGE, 0, SimTime(0))
    for call in (lambda: send(a, msg, "o"),
                 lambda: send_direct(a, msg, b, "radioIn"),
                 lambda: a.schedule_self(msg, SimTime(0))):
        with pytest.raises(SimulationError,
                           match="^a: module is not bound to a simulator$"):
            call()


def one_ns_channel_net():
    root, a, b = two_module_net()
    connect(a.add_gate("o", Direction.OUT), b.add_gate("i", Direction.IN),
            ChannelSpec(SimTime(1)))
    return root, a, b


def test_send_past_max_time_overflows():
    root, a, b = one_ns_channel_net()
    sim = Simulator(root)
    with pytest.raises(SimTimeRangeError):
        send(a, sim.new_message("m", MessageKind.CONTROL_MESSAGE), "o",
             now=SimTime(MAX_TIME_NS))
    assert len(sim.fes) == 0


class LastMinuteSender(SimpleModule):
    """Forwards every arrival out of gate "o" at once."""

    def handle_message(self, msg, arrival_gate):
        send(self, msg, "o")


def test_overflow_inside_run_is_a_handler_error():
    root = CompoundModule("Network")
    a = root.add_child(LastMinuteSender("a"))
    b = root.add_child(Sink("b"))
    a.add_gate("in", Direction.IN)
    connect(a.add_gate("o", Direction.OUT), b.add_gate("i", Direction.IN),
            ChannelSpec(SimTime(2)))
    sim = Simulator(root)
    sim.fes.push(MAX_TIME_NS - 1, sim.now_ns, a, "in",
                 sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    with pytest.raises(HandlerError) as exc_info:
        sim.run(until=SimTime(MAX_TIME_NS))
    assert isinstance(exc_info.value.__cause__, SimTimeRangeError)


class Rewinder(SimpleModule):
    """Tries to schedule a self-event one nanosecond in the past."""

    def handle_message(self, msg, arrival_gate):
        self.schedule_self(msg, SimTime(self.sim.now.ns - 1))


def test_schedule_self_in_the_past_rejected():
    root = CompoundModule("Network")
    r = root.add_child(Rewinder("r"))
    sim = Simulator(root)
    sim.fes.push(10, sim.now_ns, r, "in",
                 sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    with pytest.raises(HandlerError) as exc_info:
        sim.run(until=SimTime(20))
    assert isinstance(exc_info.value.__cause__, SchedulingInPast)


def test_a_leaf_with_no_handler_fails_as_a_handler_error():
    root = CompoundModule("Network")
    mute = root.add_child(SimpleModule("mute"))
    sim = Simulator(root)
    sim.fes.push(0, sim.now_ns, mute, "in",
                 sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    with pytest.raises(HandlerError) as exc_info:
        sim.run(until=SimTime(10))
    assert (exc_info.value.module_path, exc_info.value.event_no) == ("Network.mute", 1)
    cause = exc_info.value.__cause__
    assert type(cause) is SimulationError
    assert str(cause) == "Network.mute does not handle messages"


def test_returned_events_equal_the_popped_ones():
    root, a, b = two_module_net()
    connect(a.add_gate("o", Direction.OUT), b.add_gate("i", Direction.IN),
            ChannelSpec(SimTime(4)))
    b.add_gate("radioIn", Direction.IN)
    sim = Simulator(root)
    msgs = [sim.new_message("m", MessageKind.CONTROL_MESSAGE),
            sim.new_message("d", MessageKind.PACKET, 10)]
    sent = [send(a, msgs[0], "o"),
            send_direct(a, msgs[1], b, "radioIn", delay=SimTime(2))]
    popped = [pop_entry(sim.fes), pop_entry(sim.fes)]
    assert pop_entry(sim.fes) is None
    want = [(b, "i", 4, msgs[0]), (b, "radioIn", 2, msgs[1])]
    for got, seq, (target, arrival_gate, t_ns, payload) in zip(popped[::-1], sent, want):
        assert got[1] == seq
        assert (got[2], got[3], got[0]) == (target, arrival_gate, t_ns)
        assert got[4] is payload


# -- send_direct ---------------------------------------------------------------

def test_send_direct_delay_and_target():
    root, a, b = two_module_net()
    b.add_gate("radioIn", Direction.IN)
    sim = Simulator(root)
    seq = send_direct(a, sim.new_message("m", MessageKind.CONTROL_MESSAGE),
                      b, "radioIn", delay=SimTime.from_millis(3))
    t_ns, popped_seq, target, arrival_gate, _ = pop_entry(sim.fes)
    assert popped_seq == seq
    assert target is b and t_ns == SimTime.from_millis(3).ns
    assert arrival_gate == "radioIn"


def test_send_direct_unknown_target_gate():
    root, a, b = two_module_net()
    sim = Simulator(root)
    with pytest.raises(UnknownTargetGate):
        send_direct(a, sim.new_message("m", MessageKind.CONTROL_MESSAGE),
                    b, "radioln")  # misspelled


def test_send_direct_needs_an_in_gate():
    root, a, b = two_module_net()
    b.add_gate("o", Direction.OUT)
    sim = Simulator(root)
    with pytest.raises(UnknownTargetGate):
        send_direct(a, sim.new_message("m", MessageKind.CONTROL_MESSAGE), b, "o")


def test_delivery_correctness_one_event_per_send():
    root, a, b = two_module_net()
    connect(a.add_gate("o", Direction.OUT), b.add_gate("i", Direction.IN),
            ChannelSpec(SimTime(7)))
    sim = Simulator(root)
    ids, seqs = [], []
    for _ in range(5):
        msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
        ids.append(msg.msg_id)
        seqs.append(send(a, msg, "o"))
    events = []
    while sim.fes:
        events.append(pop_entry(sim.fes))
    assert [e[4].msg_id for e in events] == ids
    assert [e[1] for e in events] == seqs
    assert all(e[2] is b and e[0] == 7 for e in events)


# -- paths and ids ---------------------------------------------------------------

def test_full_path_three_levels():
    root = CompoundModule("Network")
    ue = CompoundModule("ue")
    root.add_child(ue)
    nas = Sink("lte_nas")
    ue.add_child(nas)
    assert nas.full_path == "Network.ue.lte_nas"


def test_full_path_root_alone():
    assert CompoundModule("Network").full_path == "Network"


def test_full_path_with_bracket_index():
    root = CompoundModule("Network")
    ue3 = CompoundModule("ue[3]")
    root.add_child(ue3)
    mac = Sink("lte_mac")
    ue3.add_child(mac)
    assert mac.full_path == "Network.ue[3].lte_mac"


def test_detached_module_has_no_path():
    with pytest.raises(DetachedModule):
        Sink("floating").full_path


def test_assign_ids_single_module_network():
    root = CompoundModule("Network")
    m = Sink("m")
    root.add_child(m)
    ids = root.assign_ids()
    assert ids == {"Network": 1, "Network.m": 2}


def test_assign_ids_deterministic_and_unique():
    def make():
        root = CompoundModule("Network")
        for name in ("ue", "enb"):
            node = CompoundModule(name)
            root.add_child(node)
            for sub in ("x", "y"):
                node.add_child(Sink(sub))
        return root

    first, second = make().assign_ids(), make().assign_ids()
    assert first == second
    assert len(set(first.values())) == len(first)


def test_path_uniqueness():
    root = CompoundModule("Network")
    names = set()
    for i in range(3):
        node = CompoundModule(f"n[{i}]")
        root.add_child(node)
        node.add_child(Sink("leaf"))
    for mod in root.iter_tree():
        assert mod.full_path not in names
        names.add(mod.full_path)


def test_duplicate_child_name_rejected():
    root = CompoundModule("Network")
    root.add_child(Sink("ue"))
    with pytest.raises(DuplicateName):
        root.add_child(Sink("ue"))


def test_a_child_with_a_parent_is_refused():
    a, b = CompoundModule("A"), CompoundModule("B")
    x = a.add_child(Sink("lte_x"))
    with pytest.raises(AlreadyAttached):
        b.add_child(x)
    assert (a.children, b.children, b._by_name, x.parent) == ([x], [], {}, a)
    assert x.full_path == "A.lte_x"


def _tree_state(*roots):
    """All add_child may change: each module's parent, children and
    child names."""
    return [(mod, mod.parent, list(mod.children), dict(getattr(mod, "_by_name", {})))
            for root in roots for mod in root.iter_tree()]


@pytest.mark.parametrize("case", ["itself", "its parent", "its grandparent", "a lone root"])
def test_a_child_that_is_the_parent_or_an_ancestor_is_refused(case):
    a = CompoundModule("A")
    b = a.add_child(CompoundModule("B"))
    c = b.add_child(CompoundModule("C"))
    lone = CompoundModule("L")
    parent, child = {"itself": (c, c), "its parent": (b, a), "its grandparent": (c, a),
                     "a lone root": (lone, lone)}[case]
    before = _tree_state(a, lone)
    with pytest.raises(TreeCycle) as err:
        parent.add_child(child)
    assert str(err.value) == f"cannot add {child.name!r} below itself"
    assert _tree_state(a, lone) == before
    assert (c.full_path, lone.full_path) == ("A.B.C", "L")


# -- wiring lockdown --------------------------------------------------------------

def test_no_connect_after_run_starts():
    root, a, b = two_module_net()
    out = a.add_gate("o", Direction.OUT)
    inn = b.add_gate("i", Direction.IN)
    sim = Simulator(root)
    sim.run(until=SimTime(1))
    with pytest.raises(WiringLocked):
        connect(out, inn)


def test_no_new_gates_after_run_starts():
    root, a, b = two_module_net()
    sim = Simulator(root)
    sim.run(until=SimTime(1))
    with pytest.raises(WiringLocked):
        a.add_gate("late", Direction.OUT)


def test_a_bound_parent_takes_no_late_child():
    root, a, b = two_module_net()
    Simulator(root)
    late = Sink("late")
    before = _tree_state(root)
    with pytest.raises(WiringLocked,
                       match="^cannot add 'late' to 'Network': a tree is bound$"):
        root.add_child(late)
    assert _tree_state(root) == before
    assert (late.parent, late._sim) == (None, None)


@pytest.mark.parametrize("which", ["root", "leaf"])
def test_a_bound_module_joins_no_other_tree(which):
    root, a, b = two_module_net()
    sim = Simulator(root)
    moved = root if which == "root" else a
    other = CompoundModule("Other")
    before = _tree_state(root, other)
    with pytest.raises(WiringLocked,
                       match=f"^cannot add '{moved.name}' to 'Other': a tree is bound$"):
        other.add_child(moved)
    assert _tree_state(root, other) == before
    assert (moved.sim, other._sim) == (sim, None)


@pytest.mark.parametrize("change", ["add_gate", "connect_from_bound", "connect_to_bound"])
def test_a_bound_module_gains_no_gate_and_no_wire(change):
    root, a, b = two_module_net()
    out, inn = a.add_gate("o", Direction.OUT), b.add_gate("i", Direction.IN)
    free = Sink("free")
    free_out, free_in = free.add_gate("o", Direction.OUT), free.add_gate("i", Direction.IN)
    Simulator(root)
    call, message = {
        "add_gate": (lambda: a.add_gate("late", Direction.OUT),
                     "a: cannot add gates to a bound module"),
        "connect_from_bound": (lambda: connect(out, free_in),
                               "cannot connect a gate of a bound module"),
        "connect_to_bound": (lambda: connect(free_out, inn),
                             "cannot connect a gate of a bound module"),
    }[change]
    before = gate_state(a, b, free)
    with pytest.raises(WiringLocked) as err:
        call()
    assert str(err.value) == message
    assert gate_state(a, b, free) == before


def test_a_simulator_needs_a_root_in_a_network():
    leaf = Sink("x")
    with pytest.raises(DetachedModule, match="^module 'x' is not attached to a network$"):
        Simulator(leaf)
    assert leaf._sim is None
    root = CompoundModule("Network")
    root.add_child(leaf)
    sim = Simulator(root)
    sim.run(until=SimTime(1))
    assert (leaf.sim, leaf.module_id, leaf.full_path) == (sim, 2, "Network.x")


def test_a_simulator_refuses_a_root_with_a_parent():
    """A bound subtree's ancestors would stay free to move, and the paths
    a run cached with them: binding takes a network's root only."""
    p = CompoundModule("P")
    sub = p.add_child(CompoundModule("sub"))
    x = sub.add_child(Sink("x"))
    with pytest.raises(SimulationError) as err:
        Simulator(sub)
    assert str(err.value) == "P.sub: a simulator binds a network's root, not a module below it"
    assert all(module._sim is None for module in p.iter_tree())
    CompoundModule("Q").add_child(p)
    assert x.full_path == "Q.P.sub.x"


def test_two_connects_wire_both_directions():
    root, a, b = two_module_net()
    channel = ChannelSpec(SimTime.from_millis(2))
    connect(a.add_gate("outToLowerLayer", Direction.OUT),
            b.add_gate("inFromUpperLayer", Direction.IN), channel)
    connect(b.add_gate("outToUpperLayer", Direction.OUT),
            a.add_gate("inFromLowerLayer", Direction.IN), channel)
    sim = Simulator(root)
    down_seq = send(a, sim.new_message("d", MessageKind.CONTROL_MESSAGE), "outToLowerLayer")
    up_seq = send(b, sim.new_message("u", MessageKind.CONTROL_MESSAGE), "outToUpperLayer")
    down, up = pop_entry(sim.fes), pop_entry(sim.fes)
    assert (down[1], up[1]) == (down_seq, up_seq)
    assert down[2] is b and up[2] is a
    assert down[0] == up[0] == SimTime.from_millis(2).ns
