"""Layer behavior and builder tests.

The frozen walk below was derived by hand from the wiring rules: down the
UE stack (each layer entered under its own tag), across the air into the
eNB radio, up to the eNB's GTP, through the S-GW/MME to the PDN-GW top,
reflected, and back in exact reverse. It is kept as a literal so neither
the builders nor the computed oracle can drift without this test noticing.
"""

import os

import pytest

from lteadv_sim import build, parse
from lteadv_sim.kernel import (MessageKind, SimTime, Simulator, HandlerError,
                               SimulationError)
from lteadv_sim.lte_nodes import (LayerSpec, NoRadioPeer, NodeType,
                                  PassThroughLayer, attach_ue, build_node,
                                  link_enb_to_sgw, link_sgw_to_pdn)
from lteadv_sim.model import (ChannelSpec, CompoundModule, DuplicateName,
                              SELF_GATE, UnknownArrivalGate)
from lteadv_sim.traffic import Generator, GeneratorConfig
from lteadv_sim.trace import CollectingSink, data_walk

from conftest import MINIMAL_SOURCE, run_spec

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
    ev = sim.fes.pop_next()
    assert ev.target.name == "lte_rrc"
    assert ev.payload.name == "RRCMsg"


def test_mac_sends_packets_up_as_rlc_pck():
    root, ue, sim = wired_ue()
    mac = ue.child("lte_mac")
    pck = sim.new_message("MACPck", MessageKind.PACKET, 64)
    deliver(mac, pck, "inFromLowerLayer")
    ev = sim.fes.pop_next()
    assert ev.target.name == "lte_rlc"
    assert ev.payload.name == "RLCPck"


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
    assert str(err.value) == ("Network.sgw_mme.lte_s1: no return route on "
                              "SimMessage(id=1, name='m', kind=cMessage)")


@pytest.mark.parametrize("label", ["inFromLowerLayer", "inFromLowerLayer[1]",
                                   "outToLowerLayer[0]", "bogus"])
def test_s1_rejects_a_lower_label_it_does_not_have(label):
    s1, sim = wired_sgw()
    msg = sim.new_message("m", MessageKind.CONTROL_MESSAGE)
    with pytest.raises(UnknownArrivalGate) as err:
        s1.handle_message(msg, label)
    assert str(err.value) == f"Network.sgw_mme.lte_s1: unexpected arrival on {label!r}"


def test_linking_an_enb_twice_leaves_the_s1_fully_wired():
    s1, sim = wired_sgw()
    enb, sgw = sim.root.child("enb"), sim.root.child("sgw_mme")
    with pytest.raises(DuplicateName):
        link_enb_to_sgw(enb, sgw)
    assert list(s1.reply_gates) == ["inFromLowerLayer[0]"]
    assert all(gate.peer is not None for gate in s1._gates.values())


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
    ev = sim.fes.pop_next()
    assert ev.fire_time == sim.now


def test_nas_delivers_returns_to_generator():
    root, ue, sim = wired_ue()
    nas = ue.child("lte_nas")
    msg = sim.new_message("NASMsg", MessageKind.CONTROL_MESSAGE)
    deliver(nas, msg, "inFromLowerLayer")
    ev = sim.fes.pop_next()
    assert ev.target.name == "generator"
    assert ev.payload.name == "GenMsg"
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
    assert sim.fes.pop_next() is None  # nothing forwarded


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
    ev = sim.fes.pop_next()
    assert ev.target is enb.child("lte_radio")
    assert ev.arrival_gate == "radioIn"
    assert ev.fire_time == sim.now


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
    sim.fes.pop_next()
    deliver(enb.child("lte_phy"), msg, "inFromUpperLayer")
    ev = sim.fes.pop_next()
    assert ev.target is ue_b.child("lte_radio")


def test_radio_forwards_unrenamed_preserving_id():
    root, ue, sim = wired_ue()
    radio = ue.child("lte_radio")
    msg = sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE)
    deliver(radio, msg, "radioIn")
    ev = sim.fes.pop_next()
    assert ev.target.name == "lte_phy"
    assert ev.payload.name == "PHYMsg" and ev.payload.msg_id == msg.msg_id


def test_two_simultaneous_air_messages_delivered_fifo():
    root, ue, sim = wired_ue()
    radio = ue.child("lte_radio")
    first = sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE)
    second = sim.new_message("PHYMsg", MessageKind.CONTROL_MESSAGE)
    deliver(radio, first, "radioIn")
    deliver(radio, second, "radioIn")
    assert sim.fes.pop_next().payload.msg_id == first.msg_id
    assert sim.fes.pop_next().payload.msg_id == second.msg_id


def test_reflector_turns_ip_msg_around_same_timestamp():
    root = CompoundModule("Network")
    pdn = build_node(NodeType.PDN_GW, "pdn_gw")
    root.add_child(pdn)
    sim = Simulator(root)
    ip = pdn.child("lte_ip")
    msg = sim.new_message("IPMsg", MessageKind.CONTROL_MESSAGE)
    mid = msg.msg_id
    deliver(ip, msg, "inFromLowerLayer")
    ev = sim.fes.pop_next()
    assert ev.target.name == "lte_gtp"
    assert ev.arrival_gate == "inFromUpperLayer"
    assert ev.payload.name == "GTPMsg" and ev.payload.msg_id == mid
    assert ev.fire_time == sim.now


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
    ev = sim.fes.pop_next()
    assert ev.target is sgw.child("lte_s1")
    assert ev.arrival_gate == "inFromLowerLayer[0]"
    assert ev.payload.name == "S1Msg"
    assert ev.fire_time == sim.now + SimTime.from_millis(1)
    assert sim.fes.pop_next() is None


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
