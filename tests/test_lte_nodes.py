"""Layer behavior and builder tests.

The frozen walk below was derived by hand from the wiring rules: down the
UE stack (each layer entered under its own tag), across the air into the
eNB radio, up to the eNB's GTP, through the S-GW/MME to the PDN-GW top,
reflected, and back in exact reverse. It is kept as a literal so neither
the builders nor the computed oracle can drift without this test noticing.
"""

import os
from collections import Counter

import pytest

from lteadv_sim import build, lte_nodes, parse
from lteadv_sim.kernel import (MessageKind, SimTime, Simulator, HandlerError,
                               SimulationError)
from lteadv_sim.lte_nodes import (FanInLayer, Forwarder, LayerSpec, NoRadioPeer, NodeType,
                                  PassThroughLayer, PhyLayer, RadioInterface,
                                  ReflectorLayer, SelfJoin, attach_ue, build_node,
                                  link_enb_to_sgw, link_sgw_to_pdn, wire_vertical)
from lteadv_sim.model import (IN_FROM_LOWER, IN_FROM_UPPER, RADIO_IN, AlreadyAttached,
                              ChannelSpec, CompoundModule, DuplicateName, SELF_GATE,
                              UnknownArrivalGate, WiringLocked)
from lteadv_sim.traffic import Generator, GeneratorConfig
from lteadv_sim.trace import CollectingSink, data_walk, summarize, ue_instances

from conftest import MINIMAL_SOURCE, gate_state, pop_entry, run_spec

# One complete round trip on the default single-UE network, by hand.
HAND_WALK = [
    ("Network.ue.lte_nas", "NASMsg"),
    ("Network.ue.lte_rrc", "RRCMsg"),
    ("Network.ue.lte_pdcp", "PDCPMsg"),
    ("Network.ue.lte_rlc", "RLCMsg"),
    ("Network.ue.lte_mac", "MACMsg"),
    ("Network.ue.lte_phy", "PHYMsg"),
    ("Network.enb.lte_radio", "PHYMsg"),
    ("Network.enb.lte_phy", "PHYMsg"),
    ("Network.enb.lte_mac", "MACMsg"),
    ("Network.enb.lte_rlc", "RLCMsg"),
    ("Network.enb.lte_pdcp", "PDCPMsg"),
    ("Network.enb.lte_rrc", "RRCMsg"),
    ("Network.enb.lte_gtp", "GTPMsg"),
    ("Network.sgw_mme.lte_s1", "S1Msg"),
    ("Network.sgw_mme.lte_gtp", "GTPMsg"),
    ("Network.sgw_mme.lte_s5", "S5Msg"),
    ("Network.pdn_gw.lte_s5", "S5Msg"),
    ("Network.pdn_gw.lte_gtp", "GTPMsg"),
    ("Network.pdn_gw.lte_ip", "IPMsg"),
    ("Network.pdn_gw.lte_gtp", "GTPMsg"),
    ("Network.pdn_gw.lte_s5", "S5Msg"),
    ("Network.sgw_mme.lte_s5", "S5Msg"),
    ("Network.sgw_mme.lte_gtp", "GTPMsg"),
    ("Network.sgw_mme.lte_s1", "S1Msg"),
    ("Network.enb.lte_gtp", "GTPMsg"),
    ("Network.enb.lte_rrc", "RRCMsg"),
    ("Network.enb.lte_pdcp", "PDCPMsg"),
    ("Network.enb.lte_rlc", "RLCMsg"),
    ("Network.enb.lte_mac", "MACMsg"),
    ("Network.enb.lte_phy", "PHYMsg"),
    ("Network.ue.lte_radio", "PHYMsg"),
    ("Network.ue.lte_phy", "PHYMsg"),
    ("Network.ue.lte_mac", "MACMsg"),
    ("Network.ue.lte_rlc", "RLCMsg"),
    ("Network.ue.lte_pdcp", "PDCPMsg"),
    ("Network.ue.lte_rrc", "RRCMsg"),
    ("Network.ue.lte_nas", "NASMsg"),
    ("Network.ue.generator", "GenMsg"),
]


def ue_with_generator(name):
    """A UE with a generator on the default config."""
    return build_node(NodeType.UE, name,
                      generator=Generator("generator", config=GeneratorConfig()))


def attached_ue(name, enb):
    ue = ue_with_generator(name)
    attach_ue(ue, enb)
    return ue


# -- single-layer handlers ------------------------------------------------------

def deliver(module, msg, label):
    """Call one handler outside the run loop and queue the zero-delay hop
    it returns, if any, as the loop would when other events are due now."""
    hop = module.handle_message(msg, label)
    if hop is not None:
        now = module.sim.now_ns
        module.sim.fes.push(now, now, *hop)


def wired_ue():
    """A UE with generator, inside a rooted network, bound to a simulator."""
    root = CompoundModule("Network")
    ue = ue_with_generator("ue")
    root.add_child(ue)
    sim = Simulator(root)
    return root, ue, sim


def test_nas_passes_generator_traffic_down_as_rrc():
    root, ue, sim = wired_ue()
    nas = ue.child("lte_nas")
    msg = sim.new_message("NASMsg", MessageKind.CONTROL_MESSAGE)
    deliver(nas, msg, "inFromUpperLayer")
    _, _, target, _, payload = pop_entry(sim.fes)
    assert target.name == "lte_rrc"
    assert payload.name == "RRCMsg"


def test_mac_sends_packets_up_as_rlc_pck():
    root, ue, sim = wired_ue()
    mac = ue.child("lte_mac")
    pck = sim.new_message("MACPck", MessageKind.PACKET, 64)
    deliver(mac, pck, "inFromLowerLayer")
    _, _, target, _, payload = pop_entry(sim.fes)
    assert target.name == "lte_rlc"
    assert payload.name == "RLCPck"


def test_unknown_arrival_gate_rejected():
    root, ue, sim = wired_ue()
    rrc = ue.child("lte_rrc")
    with pytest.raises(UnknownArrivalGate):
        rrc.handle_message(sim.new_message("m", MessageKind.CONTROL_MESSAGE), "bogus")


MINIMAL_NET = os.path.join(os.path.dirname(__file__), "fixtures", "minimal.net")


@pytest.mark.parametrize("path", [
    "ue.lte_nas", "ue.lte_rrc", "ue.lte_phy",
    "enb.lte_radio", "enb.lte_phy", "enb.lte_gtp",
    "sgw_mme.lte_s5", "sgw_mme.lte_gtp",
    "pdn_gw.lte_ip", "pdn_gw.lte_s5",
    "ue.generator",
])
def test_every_module_type_rejects_an_unknown_arrival(path):
    with open(MINIMAL_NET, encoding="utf-8") as fh:
        built = build(parse(fh.read()).spec)
    sim = built.simulator()
    node, module = path.split(".")
    with pytest.raises(UnknownArrivalGate) as err:
        built.nodes[node].child(module).handle_message(
            sim.new_message("m", MessageKind.CONTROL_MESSAGE), "bogus")
    assert str(err.value) == f"Network.{path}: unexpected arrival on 'bogus'"


def test_enb_top_with_nothing_linked_above_drops_and_counts():
    root = CompoundModule("Network")
    enb = build_node(NodeType.ENB, "enb")
    ue = attached_ue("ue", enb)
    root.add_child(ue)
    root.add_child(enb)
    sim = Simulator(root)
    summary = sim.run(until=SimTime.from_millis(1))
    assert enb.child("lte_gtp").drop_count == 1
    assert ue.generator.stats.emitted == 1 and ue.generator.stats.returned == 0
    assert summary.events_executed == 13  # UE NAS down to the eNB GTP
    assert len(sim.fes) == 0


def test_one_layer_sgw_with_nothing_linked_above_drops_and_counts():
    root = CompoundModule("Network")
    enb = build_node(NodeType.ENB, "enb")
    ue = attached_ue("ue", enb)
    sgw = build_node(NodeType.SGW_MME, "sgw_mme", stack=[LayerSpec("S1", "lte_s1")])
    for node in (ue, enb, sgw):
        root.add_child(node)
    link_enb_to_sgw(enb, sgw)
    sim = Simulator(root)
    summary = sim.run(until=SimTime.from_millis(1))
    assert sgw.child("lte_s1").drop_count == 1
    assert ue.generator.stats.emitted == 1 and ue.generator.stats.returned == 0
    assert summary.events_executed == 14  # UE NAS up to the S-GW's S1
    assert len(sim.fes) == 0


def wired_sgw():
    """An S-GW/MME with one eNB linked, inside a rooted network, bound to
    a simulator; returns its S1 layer and the simulator."""
    root = CompoundModule("Network")
    enb = build_node(NodeType.ENB, "enb")
    sgw = build_node(NodeType.SGW_MME, "sgw_mme")
    root.add_child(enb)
    root.add_child(sgw)
    link_enb_to_sgw(enb, sgw)
    sim = Simulator(root)
    return sgw.child("lte_s1"), sim


def test_s1_going_down_without_a_route_has_no_return_route():
    s1, sim = wired_sgw()
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    with pytest.raises(NoRadioPeer) as err:
        s1.handle_message(msg, "inFromUpperLayer")
    assert str(err.value) == "Network.sgw_mme.lte_s1: no return route"
    # in a run, its HandlerError names the event and the module
    sim.fes.push(0, 0, s1, "inFromUpperLayer", msg)
    with pytest.raises(HandlerError) as err:
        sim.run(until=SimTime(1))
    assert (err.value.event_no, err.value.module_path) == (1, "Network.sgw_mme.lte_s1")
    assert isinstance(err.value.__cause__, NoRadioPeer)
    # and gives the path once: the cause's own text names it already
    assert str(err.value) == "event #1 at Network.sgw_mme.lte_s1: no return route"


@pytest.mark.parametrize("label", ["inFromLowerLayer", "inFromLowerLayer[1]",
                                   "outToLowerLayer[0]", "bogus"])
def test_s1_rejects_a_lower_label_it_does_not_have(label):
    s1, sim = wired_sgw()
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    with pytest.raises(UnknownArrivalGate) as err:
        s1.handle_message(msg, label)
    assert str(err.value) == f"Network.sgw_mme.lte_s1: unexpected arrival on {label!r}"


def test_linking_an_enb_twice_leaves_the_s1_fully_wired():
    enb, sgw = build_node(NodeType.ENB, "enb"), build_node(NodeType.SGW_MME, "sgw_mme")
    link_enb_to_sgw(enb, sgw)
    s1 = sgw.child("lte_s1")
    with pytest.raises(DuplicateName):
        link_enb_to_sgw(enb, sgw)
    assert list(s1.reply_gates) == ["inFromLowerLayer[0]"]
    assert all(gate.source is not None and gate.owner is not None
               for gate in s1._gates.values())


def _locked(module):
    root = CompoundModule("Network")
    root.add_child(module)
    Simulator(root)


def _layers(*names):
    return [PassThroughLayer(name, name.upper()) for name in names]


# Each refused join: (the call, the modules it may touch, the error).
def _upper_wired_below():
    a, b, c = _layers("a", "b", "c")
    wire_vertical(a, b)
    return (lambda: wire_vertical(a, c), [a, b, c],
            DuplicateName("a already has a gate 'outToLowerLayer'"))


def _lower_wired_above():
    a, b, c = _layers("a", "b", "c")
    wire_vertical(a, b)
    return (lambda: wire_vertical(c, b), [a, b, c],
            DuplicateName("b already has a gate 'inFromUpperLayer'"))


def _self_joined():
    a, = _layers("a")
    return lambda: wire_vertical(a, a), [a], SelfJoin("cannot join 'a' to itself")


def _upper_locked():
    a, b = _layers("a", "b")
    _locked(a)
    return lambda: wire_vertical(a, b), [a, b], WiringLocked(
        "a: cannot add gates to a bound module")


def _lower_locked():
    a, b = _layers("a", "b")
    _locked(b)
    return lambda: wire_vertical(a, b), [a, b], WiringLocked(
        "b: cannot add gates to a bound module")


def _s1_locked():
    enb, sgw = build_node(NodeType.ENB, "enb"), build_node(NodeType.SGW_MME, "sgw")
    link_enb_to_sgw(build_node(NodeType.ENB, "enb0"), sgw)
    _locked(sgw)
    return lambda: link_enb_to_sgw(enb, sgw), [*enb.stack, *sgw.stack], WiringLocked(
        "lte_s1: cannot add gates to a bound module")


def _pdn_linked_twice():
    sgw, sgw2 = build_node(NodeType.SGW_MME, "sgw"), build_node(NodeType.SGW_MME, "sgw2")
    pdn = build_node(NodeType.PDN_GW, "pdn")
    link_sgw_to_pdn(sgw, pdn)
    return (lambda: link_sgw_to_pdn(sgw2, pdn), [*sgw.stack, *sgw2.stack, *pdn.stack],
            DuplicateName("lte_s5 already has a gate 'outToLowerLayer'"))


def _wiring_state(module):
    """All a join may change on a module: its gate table, with every
    field of each gate, its ends of the column and its reply gates."""
    return (gate_state(module),
            getattr(module, "up_gate", None), getattr(module, "down_gate", None),
            dict(getattr(module, "reply_gates", {})))


@pytest.mark.parametrize("refused", [_upper_wired_below, _lower_wired_above, _self_joined,
                                     _upper_locked, _lower_locked, _s1_locked,
                                     _pdn_linked_twice],
                         ids=lambda case: case.__name__.strip("_"))
def test_a_refused_join_leaves_both_modules_as_they_were(refused):
    join, modules, error = refused()
    before = [_wiring_state(module) for module in modules]
    with pytest.raises(type(error)) as err:
        join()
    assert str(err.value) == str(error)
    assert [_wiring_state(module) for module in modules] == before


# Each generator build_node refuses: (the generator, the error).
def _generator_with_a_parent():
    generator = Generator("generator")
    CompoundModule("holder").add_child(generator)
    return generator, AlreadyAttached("'generator' is already a child of holder")


def _generator_bound():
    generator = Generator("generator")
    _locked(generator)
    return generator, WiringLocked("generator: cannot add gates to a bound module")


def _generator_wired_below():
    generator = Generator("generator")
    wire_vertical(generator, PassThroughLayer("below", "BELOW"))
    return generator, DuplicateName("generator already has a gate 'outToLowerLayer'")


def _generator_named_for_a_layer():
    return Generator("lte_rrc"), DuplicateName("ue already has a child named 'lte_rrc'")


@pytest.mark.parametrize("refused", [_generator_with_a_parent, _generator_bound,
                                     _generator_wired_below, _generator_named_for_a_layer],
                         ids=lambda case: case.__name__.strip("_"))
def test_a_refused_generator_is_left_as_it_was(refused):
    """build_node checks the one module it did not make before it wires
    any, so a refused generator keeps no gate of the discarded stack and
    a second try fails the same way."""
    generator, error = refused()
    before = (_wiring_state(generator), generator.parent)
    for _ in range(2):
        with pytest.raises(type(error)) as err:
            build_node(NodeType.UE, "ue", generator=generator)
        assert str(err.value) == str(error)
        assert (_wiring_state(generator), generator.parent) == before


@pytest.mark.parametrize("fixture, gates", [("desk_50ms.net", 1550), ("delayed.net", 122),
                                            ("minimal.net", 38)])
def test_a_built_network_holds_one_gate_per_channel(fixture, gates):
    """Every wired channel is one object, held in both its modules'
    tables, and each radio's air input one more."""
    built = build(parse(_fixture_source(fixture)).spec)
    modules = list(built.root.iter_tree())
    channels = {gate for module in modules for gate in module._gates.values()}
    radios = [module for module in modules if isinstance(module, RadioInterface)]
    assert len(channels) == gates
    assert sum(map(len, (module._gates for module in modules))) == 2 * gates - len(radios)


def test_a_ue_gate_tables_keep_their_order():
    """A column pair adds the lower In and Out gates, then the upper Out
    and In; the radio's hand-off to the PHY comes after the column."""
    lower, upper = [IN_FROM_UPPER, "outToUpperLayer"], ["outToLowerLayer", IN_FROM_LOWER]
    ue = ue_with_generator("ue")
    assert [(child.name, list(child._gates)) for child in ue.children] == [
        ("generator", upper),
        ("lte_nas", lower + upper),
        ("lte_rrc", lower + upper),
        ("lte_pdcp", lower + upper),
        ("lte_rlc", lower + upper),
        ("lte_mac", lower + upper),
        ("lte_phy", lower + [IN_FROM_LOWER]),
        ("lte_radio", ["outToUpperLayer", RADIO_IN]),
    ]


@pytest.mark.parametrize("link, lower, upper", [
    (link_enb_to_sgw, NodeType.SGW_MME, NodeType.ENB),
    (link_enb_to_sgw, NodeType.ENB, NodeType.PDN_GW),
    (link_sgw_to_pdn, NodeType.PDN_GW, NodeType.SGW_MME),
    (link_sgw_to_pdn, NodeType.ENB, NodeType.SGW_MME),
])
def test_a_link_between_the_wrong_kinds_is_refused_before_any_wiring(link, lower, upper):
    a, b = build_node(lower, "a"), build_node(upper, "b")
    gates_before = [sorted(layer._gates) for layer in a.stack + b.stack]
    with pytest.raises(SimulationError) as err:
        link(a, b)
    assert str(err.value).startswith("cannot link 'a' to 'b': a link runs from a ")
    assert [sorted(layer._gates) for layer in a.stack + b.stack] == gates_before


@pytest.mark.parametrize("ue, enb", [(NodeType.ENB, NodeType.ENB), (NodeType.UE, NodeType.UE),
                                     (NodeType.SGW_MME, NodeType.ENB)])
def test_an_attachment_between_the_wrong_kinds_is_refused(ue, enb):
    a, b = build_node(ue, "a"), build_node(enb, "b")
    with pytest.raises(SimulationError) as err:
        attach_ue(a, b)
    assert str(err.value) == "cannot attach 'a' to 'b': a ue attaches to an enb"
    assert getattr(a.stack[-1], "peer_radio", None) is None


def test_layers_add_no_delay():
    root, ue, sim = wired_ue()
    pdcp = ue.child("lte_pdcp")
    msg = sim.new_message("PDCPMsg", MessageKind.CONTROL_MESSAGE)
    deliver(pdcp, msg, "inFromUpperLayer")
    assert pop_entry(sim.fes)[0] == sim.now_ns


def test_nas_delivers_returns_to_generator():
    root, ue, sim = wired_ue()
    nas = ue.child("lte_nas")
    msg = sim.new_message("NASMsg", MessageKind.CONTROL_MESSAGE)
    deliver(nas, msg, "inFromLowerLayer")
    _, _, target, _, payload = pop_entry(sim.fes)
    assert target.name == "generator"
    assert payload.name == "GenMsg"
    assert nas.drop_count == 0


def test_nas_without_generator_drops_and_counts():
    root = CompoundModule("Network")
    ue = build_node(NodeType.UE, "ue")
    root.add_child(ue)
    sim = Simulator(root)
    nas = ue.child("lte_nas")
    nas.handle_message(sim.new_message("NASMsg", MessageKind.CONTROL_MESSAGE),
                       "inFromLowerLayer")
    assert nas.drop_count == 1
    assert pop_entry(sim.fes) is None  # nothing forwarded


def test_phy_air_hop_reaches_attached_enb_radio():
    root = CompoundModule("Network")
    enb = build_node(NodeType.ENB, "enb")
    ue = attached_ue("ue", enb)
    root.add_child(ue)
    root.add_child(enb)
    sim = Simulator(root)
    phy = ue.child("lte_phy")
    msg = sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE)
    deliver(phy, msg, "inFromUpperLayer")
    t_ns, _, target, arrival_gate, _ = pop_entry(sim.fes)
    assert target is enb.child("lte_radio")
    assert arrival_gate == "radioIn"
    assert t_ns == sim.now_ns


def test_unattached_ue_phy_raises_no_radio_peer():
    root, ue, sim = wired_ue()  # never attached
    phy = ue.child("lte_phy")
    with pytest.raises(NoRadioPeer):
        phy.handle_message(sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE),
                           "inFromUpperLayer")


def test_enb_phy_returns_to_originating_ue():
    root = CompoundModule("Network")
    enb = build_node(NodeType.ENB, "enb")
    ue_a = attached_ue("ue_a", enb)
    ue_b = attached_ue("ue_b", enb)
    for node in (ue_a, ue_b, enb):
        root.add_child(node)
    sim = Simulator(root)
    msg = sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE)
    deliver(ue_b.child("lte_phy"), msg, "inFromUpperLayer")  # stamps ue_b
    pop_entry(sim.fes)
    deliver(enb.child("lte_phy"), msg, "inFromUpperLayer")
    assert pop_entry(sim.fes)[2] is ue_b.child("lte_radio")


def test_radio_forwards_unrenamed_preserving_id():
    root, ue, sim = wired_ue()
    radio = ue.child("lte_radio")
    msg = sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE)
    deliver(radio, msg, "radioIn")
    _, _, target, _, payload = pop_entry(sim.fes)
    assert target.name == "lte_phy"
    assert payload.name == "PHYMsg" and payload.msg_id == msg.msg_id


def test_two_simultaneous_air_messages_delivered_fifo():
    root, ue, sim = wired_ue()
    radio = ue.child("lte_radio")
    first = sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE)
    second = sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE)
    deliver(radio, first, "radioIn")
    deliver(radio, second, "radioIn")
    assert pop_entry(sim.fes)[4].msg_id == first.msg_id
    assert pop_entry(sim.fes)[4].msg_id == second.msg_id


def test_reflector_turns_ip_msg_around_same_timestamp():
    root = CompoundModule("Network")
    pdn = build_node(NodeType.PDN_GW, "pdn_gw")
    root.add_child(pdn)
    sim = Simulator(root)
    ip = pdn.child("lte_ip")
    msg = sim.new_message("IPMsg", MessageKind.CONTROL_MESSAGE)
    mid = msg.msg_id
    deliver(ip, msg, "inFromLowerLayer")
    t_ns, _, target, arrival_gate, payload = pop_entry(sim.fes)
    assert target.name == "lte_gtp"
    assert arrival_gate == "inFromUpperLayer"
    assert payload.name == "GTPMsg" and payload.msg_id == mid
    assert t_ns == sim.now_ns


def test_enb_gtp_queues_a_delayed_hop_instead_of_returning_it():
    root = CompoundModule("Network")
    enb = build_node(NodeType.ENB, "enb")
    sgw = build_node(NodeType.SGW_MME, "sgw_mme")
    root.add_child(enb)
    root.add_child(sgw)
    link_enb_to_sgw(enb, sgw, ChannelSpec(SimTime.from_millis(1)))
    sim = Simulator(root)
    msg = sim.new_message("GTPMsg", MessageKind.CONTROL_MESSAGE)
    assert enb.child("lte_gtp").handle_message(msg, "inFromLowerLayer") is None
    t_ns, _, target, arrival_gate, payload = pop_entry(sim.fes)
    assert target is sgw.child("lte_s1")
    assert arrival_gate == "inFromLowerLayer[0]"
    assert payload.name == "S1Msg"
    assert t_ns == (sim.now + SimTime.from_millis(1)).ns
    assert pop_entry(sim.fes) is None


# -- builders ----------------------------------------------------------------------

def test_ue_children_order():
    ue = ue_with_generator("ue")
    assert [c.name for c in ue.children] == [
        "generator", "lte_nas", "lte_rrc", "lte_pdcp", "lte_rlc",
        "lte_mac", "lte_phy", "lte_radio"]


def test_enb_children_order():
    enb = build_node(NodeType.ENB, "enb")
    assert [c.name for c in enb.children] == [
        "lte_radio", "lte_phy", "lte_mac", "lte_rlc", "lte_pdcp",
        "lte_rrc", "lte_gtp"]


def test_core_node_children():
    sgw, pdn = build_node(NodeType.SGW_MME, "s"), build_node(NodeType.PDN_GW, "p")
    assert [c.name for c in sgw.children] == ["lte_s1", "lte_gtp", "lte_s5"]
    assert [c.name for c in pdn.children] == ["lte_s5", "lte_gtp", "lte_ip"]


def test_sgw_mme_is_one_node():
    sgw = build_node(NodeType.SGW_MME, "sgw_mme")
    assert sgw.kind is NodeType.SGW_MME
    assert isinstance(sgw, CompoundModule)


def test_duplicate_node_names_rejected():
    root = CompoundModule("Network")
    root.add_child(ue_with_generator("ue"))
    with pytest.raises(DuplicateName):
        root.add_child(ue_with_generator("ue"))


@pytest.mark.parametrize("kind", [NodeType.ENB, NodeType.SGW_MME, NodeType.PDN_GW])
def test_only_a_ue_takes_a_generator(kind):
    with pytest.raises(ValueError) as err:
        build_node(kind, "n", generator=Generator("generator"))
    assert str(err.value) == f"a {kind.value} takes no generator"


@pytest.mark.parametrize("kind, layers", [
    (NodeType.UE, 1), (NodeType.ENB, 1), (NodeType.SGW_MME, 0), (NodeType.PDN_GW, 0)])
def test_a_stack_too_short_for_its_kind_is_rejected(kind, layers):
    with pytest.raises(ValueError) as err:
        build_node(kind, "n", stack=[LayerSpec("PHY", "lte_phy")][:layers])
    assert str(err.value) == f"a {kind.value} stack needs at least {layers + 1} layers"


@pytest.mark.parametrize("kind", list(NodeType))
def test_a_node_keeps_its_kind_stack_and_generator(kind):
    generator = Generator("generator") if kind is NodeType.UE else None
    node = build_node(kind, "n", generator=generator)
    assert node.kind is kind and node.type_name == kind.value
    assert node.generator is generator
    layers = [c for c in node.children if isinstance(c, PassThroughLayer)]
    assert node.stack == (layers if kind is NodeType.UE else layers[::-1])


# -- the full walk -------------------------------------------------------------------

def test_single_round_trip_matches_hand_walk():
    result = parse(MINIMAL_SOURCE)
    spec = result.spec
    records, summary, built = run_spec(spec, until=SimTime(1))  # just above t=0
    seq = [(r.path, r.msg_name) for r in records]
    assert seq == HAND_WALK
    assert all(r.t_ns == 0 for r in records)  # layer neutrality: zero time added


def test_computed_oracle_agrees_with_hand_walk(minimal_spec):
    assert data_walk(minimal_spec, "ue") == HAND_WALK


def test_no_loss_no_duplication_per_round_trip(minimal_spec):
    records, summary, built = run_spec(minimal_spec, until=SimTime(1))
    data_records = [r for r in records if r.msg_name != "GenTimer"]
    mids = {r.msg_id for r in data_records}
    assert len(mids) == 1
    # each module on the walk handles this message exactly as often as the
    # walk visits it
    visits = {}
    for r in data_records:
        visits[r.path] = visits.get(r.path, 0) + 1
    expected = {}
    for path, _ in HAND_WALK:
        expected[path] = expected.get(path, 0) + 1
    assert visits == expected


# -- relay links -----------------------------------------------------------------------

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def metro_shaped_source(n_ue=12, n_enb=4):
    """The metro workload's shape at a small size: one attach and one
    generator statement per UE, offset starts, both payload kinds."""
    lines = ["network Network {", f"    ue ue[{n_ue}];", f"    enb enb[{n_enb}];",
             "    sgw_mme sgw_mme;", "    pdn_gw pdn_gw;"]
    lines += [f"    attach ue[{i}] -> enb[{i * 3 % n_enb}];" for i in range(n_ue)]
    lines += [f"    generator on ue[{i}] {{ period {5 + i}ms; start {300 * i}us; "
              f"payload {'packet 200' if i % 2 else 'message'}; }}" for i in range(n_ue)]
    return "\n".join(lines + ["    run until 100ms;", "}"]) + "\n"


def _name(module, kind):
    return module.packet_name if kind is MessageKind.PACKET else module.control_name


def _follow_links(gate, kind):
    """(path, name) of the module of `gate` and of each module a message
    arriving there goes on to by relay links alone."""
    hops = []
    while gate is not None:
        module = gate.owner
        hops.append((module.full_path, _name(module, kind)))
        gate = gate.relay_to
    return hops


def _fixture_source(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


# a one-layer PDN-GW behind a delayed core link: its reflector is also its
# bottom layer, and its down gate is that delayed link
DELAYED_ONE_LAYER_PDN = (
    MINIMAL_SOURCE.replace("    run until", "    link sgw_mme -> pdn_gw delay 1ms;\n    run until"),
    (LayerSpec("IP", "lte_ip"),))


@pytest.mark.parametrize("source, pdn_stack", [
    *((_fixture_source(name), None)
      for name in ("minimal.net", "multi_ue.net", "delayed.net", "desk_50ms.net")),
    (metro_shaped_source(), None),
    DELAYED_ONE_LAYER_PDN,
], ids=["minimal", "multi_ue", "delayed", "desk_50ms", "metro_shaped", "delayed_one_layer_pdn"])
def test_relay_chains_follow_the_oracle_walk(source, pdn_stack):
    """Down each UE's stack from its top layer to its PHY; from its eNB's
    radio up the eNB's stack to the top layer (and on to the S1 when the
    backhaul has no delay); and from the PDN-GW's bottom layer up to the
    reflector and back down (and on down the S-GW/MME to its S1 when the
    core link has no delay): the relay links visit the modules, under
    the names, of the matching segments of the oracle's walk. A run then
    follows the walk, over links and handlers alike."""
    spec = parse(source).spec
    if pdn_stack is not None:
        spec.chain_overrides[NodeType.PDN_GW] = pdn_stack
    built = build(spec)
    built.simulator().run(until=SimTime(0))  # sets the links, runs no event
    for inst in ue_instances(spec):
        walk = data_walk(spec, inst)
        ue = built.nodes[inst]
        kind = None if ue.generator.config is None else ue.generator.config.payload_kind
        down = _follow_links(ue.stack[0]._gates[IN_FROM_UPPER], kind)
        assert down == walk[:len(ue.stack)]
        enb = ue.stack[-1].peer_radio.parent
        phy, top = enb.stack[-1], enb.stack[0]
        # the radio has no names of its own: it is entered under its PHY's
        radio = phy.home_radio
        up = [(radio.full_path, _name(phy, kind)),
              *_follow_links(radio._gates[RADIO_IN].relay_to, kind)]
        at = len(ue.stack)
        assert up == walk[at:at + len(up)]
        assert len(up) == 1 + len(enb.stack) + (top.up_gate.delay_ns == 0)
        sgw = top.up_gate.owner.parent
        pdn = sgw.stack[0].up_gate.owner.parent
        turn = _follow_links(pdn.stack[-1]._gates[IN_FROM_LOWER], kind)
        at += 1 + len(enb.stack) + len(sgw.stack)
        assert turn == walk[at:at + len(turn)]
        core_delay = pdn.stack[-1].down_gate.delay_ns
        assert len(turn) == 2 * len(pdn.stack) - 1 + (core_delay == 0) * len(sgw.stack)
    records, summary, _ = run_spec(spec)
    metrics = summarize(records, spec, summary)
    assert metrics.path_mismatches == []
    assert metrics.round_trips > 0


def _records(spec, built=None):
    sink = CollectingSink()
    (built or build(spec)).simulator().run(until=spec.until, sinks=[sink])
    return sink.records


def _assert_seen_at_their_modules(seen, modules, records, plain):
    """`seen` counts every event of `modules`, and the run traced what
    the plain run traced."""
    paths = {module.full_path for module in modules}
    assert paths
    assert seen == Counter(rec.path for rec in records if rec.path in paths)
    assert records == plain


def _short(spec):
    spec.until = SimTime.from_millis(30)
    return spec


def test_a_layer_subclass_overriding_the_handler_sees_every_event(monkeypatch, multi_ue_spec):
    spec = _short(multi_ue_spec)
    plain = _records(spec)
    seen = Counter()

    class Counted(PassThroughLayer):
        def handle_message(self, msg, arrival_gate):
            seen[self.full_path] += 1
            return super().handle_message(msg, arrival_gate)

    monkeypatch.setattr(lte_nodes, "PassThroughLayer", Counted)  # build_node's plain layer
    built = build(spec)
    records = _records(spec, built)
    counted = [module for module in built.root.iter_tree() if type(module) is Counted]
    assert all(gate.relay_to is None for module in counted
               for gate in module._gates.values() if gate.owner is module)
    _assert_seen_at_their_modules(seen, counted, records, plain)


def test_a_layer_subclass_with_its_own_table_and_handler_sees_every_event(monkeypatch):
    """A class that declares a table of its own and overrides the handler
    gets no links, so its handler sees every arrival at its modules, in
    a run with no sink as in a traced one."""
    spec = _short(parse(_fixture_source("minimal.net")).spec)
    plain = _records(spec)
    seen = Counter()

    class OwnTable(PassThroughLayer):
        forward_to = {IN_FROM_UPPER: "down_gate", IN_FROM_LOWER: "up_gate"}

        def handle_message(self, msg, arrival_gate):
            seen[self.full_path] += 1
            return super().handle_message(msg, arrival_gate)

    monkeypatch.setattr(lte_nodes, "PassThroughLayer", OwnTable)  # build_node's plain layer
    build(spec).simulator().run(until=spec.until)
    unseen = seen.copy()
    assert sum(unseen.values()) == 84
    seen.clear()
    built = build(spec)
    records = _records(spec, built)
    owned = [module for module in built.root.iter_tree() if type(module) is OwnTable]
    _assert_seen_at_their_modules(seen, owned, records, plain)
    assert seen == unseen


def _link_sites(built):
    return {(gate.owner.full_path, gate.label) for module in built.root.iter_tree()
            for gate in module._gates.values() if gate.relay_to is not None}


@pytest.mark.parametrize("cls", [Forwarder, PassThroughLayer, PhyLayer, FanInLayer,
                                 RadioInterface, ReflectorLayer], ids=lambda cls: cls.__name__)
def test_a_handler_replaced_on_the_class_sees_every_event(monkeypatch, multi_ue_spec, cls):
    """Replacing a class's handler turns off the links of every module
    that then calls the replacement, and no other module's. Each class
    but Forwarder inherits the handler it replaces: the one handler,
    `Forwarder.handle_message`, which applies each class's step rule."""
    spec = _short(multi_ue_spec)
    plain_built = build(spec)
    plain = _records(spec, plain_built)
    seen = Counter()
    stock = cls.handle_message

    def handle_message(module, msg, arrival_gate):
        seen[module.full_path] += 1
        return stock(module, msg, arrival_gate)

    monkeypatch.setattr(cls, "handle_message", handle_message)
    built = build(spec)
    records = _records(spec, built)
    replaced = [module for module in built.root.iter_tree()
                if getattr(module.handle_message, "__func__", None) is handle_message]
    assert all(isinstance(module, cls) for module in replaced)
    _assert_seen_at_their_modules(seen, replaced, records, plain)
    paths = {module.full_path for module in replaced}
    plain_links = _link_sites(plain_built)
    assert _link_sites(built) == {site for site in plain_links if site[0] not in paths}
    # the S1 carries a route both ways, so it has no link to turn off
    assert any(site[0] in paths for site in plain_links) == (cls is not FanInLayer)


def test_a_handler_set_on_the_instance_sees_every_event(multi_ue_spec):
    spec = _short(multi_ue_spec)
    plain = _records(spec)
    seen = Counter()
    built = build(spec)
    rlc = built.nodes["ue[1]"].child("lte_rlc")

    def handle_message(msg, arrival_gate, stock=rlc.handle_message):
        seen[rlc.full_path] += 1
        return stock(msg, arrival_gate)

    rlc.handle_message = handle_message
    records = _records(spec, built)
    assert rlc._gates[IN_FROM_UPPER].relay_to is None
    assert rlc._gates[IN_FROM_LOWER].relay_to is None
    assert built.nodes["ue[1]"].child("lte_mac")._gates[IN_FROM_UPPER].relay_to is not None
    _assert_seen_at_their_modules(seen, [rlc], records, plain)


def test_an_unknown_label_at_a_linked_layer_fails_at_its_event(monkeypatch, multi_ue_spec):
    def failure():
        built = build(multi_ue_spec)
        sim = built.simulator()
        rrc = built.nodes["ue[1]"].child("lte_rrc")
        sim.fes.push(SimTime.from_millis(25).ns, 0, rrc, "bogus",
                     sim.new_message("m", MessageKind.CONTROL_MESSAGE))
        with pytest.raises(HandlerError) as err:
            sim.run(until=multi_ue_spec.until)
        assert isinstance(err.value.__cause__, UnknownArrivalGate)
        return err.value.event_no, err.value.module_path, str(err.value)

    linked = failure()
    assert linked == (465, "Network.ue[1].lte_rrc",
                      "event #465 at Network.ue[1].lte_rrc: unexpected arrival on 'bogus'")
    stock = PassThroughLayer.handle_message
    monkeypatch.setattr(PassThroughLayer, "handle_message",
                        lambda module, msg, arrival_gate: stock(module, msg, arrival_gate))
    assert failure() == linked


@pytest.mark.parametrize("label", [IN_FROM_UPPER, IN_FROM_LOWER])
def test_a_layer_next_to_a_module_without_tag_names_gets_no_link(label):
    """lte_x lies between lte_y and a radio, below it on the way up and
    above it on the way down: a message reaches lte_x by lte_y's link,
    and lte_x's handler fails to name it for the radio."""
    root = CompoundModule("Network")
    radio, layer, mid, end = (
        root.add_child(RadioInterface()), root.add_child(PassThroughLayer("lte_x", "X")),
        root.add_child(PassThroughLayer("lte_y", "Y")),
        root.add_child(PassThroughLayer("lte_z", "Z")))
    column = [radio, layer, mid, end] if label == IN_FROM_LOWER else [end, mid, layer, radio]
    for upper, lower in zip(column, column[1:]):
        wire_vertical(upper, lower)
    sim = Simulator(root)
    sim.fes.push(0, 0, mid, label, sim.new_message("m", MessageKind.CONTROL_MESSAGE))
    with pytest.raises(HandlerError) as err:
        sim.run(until=SimTime(1))
    assert mid._gates[label].relay_to is layer._gates[label]
    assert layer._gates[label].relay_to is None
    assert (err.value.event_no, err.value.module_path) == (2, "Network.lte_x")
    assert isinstance(err.value.__cause__, AttributeError)
