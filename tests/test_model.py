"""Model tests: gates, channels, delivery timing, paths and id assignment."""

import pytest

from lteadv_sim.kernel import (MAX_TIME_NS, HandlerError, MessageKind,
                               SchedulingInPast, SimMessage, SimTime,
                               SimTimeRangeError, SimulationError, Simulator)
from lteadv_sim.lte_nodes import wire_vertical
from lteadv_sim.model import (IN_FROM_LOWER, IN_FROM_UPPER, OUT_TO_LOWER, OUT_TO_UPPER,
                              AlreadyAttached, ChannelSpec, CompoundModule, DetachedModule,
                              DuplicateName, SimpleModule, TreeCycle, UnknownChild,
                              UnknownGate, UnknownTargetGate, WiringLocked, connect, send,
                              send_direct)

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
    connect(a, "outToLowerLayer", b, "inFromUpperLayer", ChannelSpec(SimTime(0)))
    sim = Simulator(root)
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    seq = send(a, msg, "outToLowerLayer")
    t_ns, popped_seq, target, arrival_gate, payload = pop_entry(sim.fes)
    assert popped_seq == seq and payload is msg
    assert target is b
    assert arrival_gate == "inFromUpperLayer"
    assert t_ns == 0  # arrival time equals send time


def test_connect_enters_one_channel_in_both_tables():
    """The channel it returns is one gate, under its Out label at its
    source and its In label at its target; `add_gate` makes an In gate
    with no wire."""
    root, a, b = two_module_net()
    gate = connect(a, "o", b, "i[2]", ChannelSpec(SimTime(3)))
    assert a._gates == {"o": gate} and b._gates == {"i[2]": gate}
    assert (gate.owner, gate.label, gate.source, gate.source_label, gate.delay_ns) == (
        b, "i[2]", a, "o", 3)
    assert repr(gate) == "Gate(a.o -> b.i[2])"
    radio = b.add_gate("radioIn")
    assert b._gates == {"i[2]": gate, "radioIn": radio}
    assert (radio.owner, radio.label, radio.source, radio.source_label, radio.delay_ns) == (
        b, "radioIn", None, None, None)
    assert repr(radio) == "Gate(-> b.radioIn)"


def _table(module, names):
    """`module`'s gate table, each gate as `(owner, label, source,
    source_label, delay_ns)` with its modules replaced by `names[module]`."""
    return {label: (names[g.owner], g.label, names[g.source], g.source_label, g.delay_ns)
            for label, g in module._gates.items()}


def test_wire_vertical_leaves_the_tables_of_its_two_connects():
    channel = ChannelSpec(SimTime(5))
    u1, l1, u2, l2 = Sink("u"), Sink("l"), Sink("u"), Sink("l")
    wire_vertical(u1, l1, channel)
    connect(u2, OUT_TO_LOWER, l2, IN_FROM_UPPER, channel)
    connect(l2, OUT_TO_UPPER, u2, IN_FROM_LOWER, channel)
    names = {u1: "u", l1: "l", u2: "u", l2: "l"}
    assert _table(u1, names) == _table(u2, names)
    assert _table(l1, names) == _table(l2, names)
    assert _table(u1, names) == {OUT_TO_LOWER: ("l", IN_FROM_UPPER, "u", OUT_TO_LOWER, 5),
                                 IN_FROM_LOWER: ("u", IN_FROM_LOWER, "l", OUT_TO_UPPER, 5)}
    for upper, lower in ((u1, l1), (u2, l2)):
        assert upper._gates[OUT_TO_LOWER] is lower._gates[IN_FROM_UPPER]
        assert lower._gates[OUT_TO_UPPER] is upper._gates[IN_FROM_LOWER]


def test_a_module_connected_to_itself_sends_only_out_of_its_out_gate():
    """Both ends of the channel are in one table: "o" is its Out gate and
    "i" its In gate, and neither serves as the other."""
    root = CompoundModule("Network")
    a, b = root.add_child(Sink("a")), root.add_child(Sink("b"))
    connect(a, "o", a, "i")
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


@pytest.mark.parametrize("case", ["taken_out_label", "taken_in_label", "bound",
                                  "one_label_on_one_module"])
def test_a_refused_connect_changes_neither_module(case):
    """A connect naming either end of a wired channel again, a bound
    module, or one label on one module is refused and changes no module."""
    root, a, b = two_module_net()
    connect(a, "o", b, "i")
    c = root.add_child(Sink("c"))
    if case == "bound":
        Simulator(root)
    src, out_label, dst, in_label, error, message = {
        "taken_out_label": (a, "o", c, "i", DuplicateName, "a already has a gate 'o'"),
        "taken_in_label": (c, "o", b, "i", DuplicateName, "b already has a gate 'i'"),
        "bound": (c, "o", a, "j", WiringLocked, "c: cannot add gates to a bound module"),
        "one_label_on_one_module": (c, "x", c, "x", DuplicateName,
                                    "c cannot connect gate 'x' to itself"),
    }[case]
    before = gate_state(a, b, c)
    with pytest.raises(error) as err:
        connect(src, out_label, dst, in_label)
    assert str(err.value) == message
    assert gate_state(a, b, c) == before


def test_send_adds_channel_delay():
    root, a, b = two_module_net()
    connect(a, "o", b, "i", ChannelSpec(SimTime.from_millis(5)))
    sim = Simulator(root)
    seq = send(a, sim.new_message("m", MessageKind.CONTROL_MESSAGE),
               "o", now=SimTime.from_millis(10))
    assert pop_entry(sim.fes)[:2] == (SimTime.from_millis(15).ns, seq)


def test_send_on_an_unknown_gate_or_an_in_gate():
    root, a, b = two_module_net()
    a.add_gate("radioIn")
    sim = Simulator(root)
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    for label in ("nope", "radioIn"):
        with pytest.raises(UnknownGate, match=f"^Network.a has no Out gate '{label}'$"):
            send(a, msg, label)
    assert len(sim.fes) == 0


def test_scheduling_calls_need_a_bound_module():
    root, a, b = two_module_net()
    connect(a, "o", b, "i")
    b.add_gate("radioIn")
    msg = SimMessage(1, "m", MessageKind.CONTROL_MESSAGE, 0, SimTime(0))
    for call in (lambda: send(a, msg, "o"),
                 lambda: send_direct(a, msg, b, "radioIn"),
                 lambda: a.schedule_self(msg, SimTime(0))):
        with pytest.raises(SimulationError,
                           match="^a: module is not bound to a simulator$"):
            call()


def one_ns_channel_net():
    root, a, b = two_module_net()
    connect(a, "o", b, "i", ChannelSpec(SimTime(1)))
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
    a.add_gate("in")
    connect(a, "o", b, "i", ChannelSpec(SimTime(2)))
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
    connect(a, "o", b, "i", ChannelSpec(SimTime(4)))
    b.add_gate("radioIn")
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
    b.add_gate("radioIn")
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
    connect(b, "o", a, "i")
    sim = Simulator(root)
    with pytest.raises(UnknownTargetGate):
        send_direct(a, sim.new_message("m", MessageKind.CONTROL_MESSAGE), b, "o")


def test_delivery_correctness_one_event_per_send():
    root, a, b = two_module_net()
    connect(a, "o", b, "i", ChannelSpec(SimTime(7)))
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
    # errors name such a module by its name alone
    assert Sink("floating").full_path_or_name() == "floating"


def test_child_by_name():
    root, a, b = two_module_net()
    assert (root.child("a"), root.child("b")) == (a, b)
    with pytest.raises(UnknownChild, match="^Network has no child named 'c'$"):
        root.child("c")


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
    sim = Simulator(root)
    sim.run(until=SimTime(1))
    with pytest.raises(WiringLocked):
        connect(a, "o", b, "i")


def test_no_new_gates_after_run_starts():
    root, a, b = two_module_net()
    sim = Simulator(root)
    sim.run(until=SimTime(1))
    with pytest.raises(WiringLocked):
        a.add_gate("late")


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
    free = Sink("free")
    Simulator(root)
    call, message = {
        "add_gate": (lambda: a.add_gate("late"),
                     "a: cannot add gates to a bound module"),
        "connect_from_bound": (lambda: connect(a, "o", free, "i"),
                               "a: cannot add gates to a bound module"),
        "connect_to_bound": (lambda: connect(free, "o", b, "i"),
                             "b: cannot add gates to a bound module"),
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
    connect(a, "outToLowerLayer", b, "inFromUpperLayer", channel)
    connect(b, "outToUpperLayer", a, "inFromLowerLayer", channel)
    sim = Simulator(root)
    down_seq = send(a, sim.new_message("d", MessageKind.CONTROL_MESSAGE), "outToLowerLayer")
    up_seq = send(b, sim.new_message("u", MessageKind.CONTROL_MESSAGE), "outToUpperLayer")
    down, up = pop_entry(sim.fes), pop_entry(sim.fes)
    assert (down[1], up[1]) == (down_seq, up_seq)
    assert down[2] is b and up[2] is a
    assert down[0] == up[0] == SimTime.from_millis(2).ns
