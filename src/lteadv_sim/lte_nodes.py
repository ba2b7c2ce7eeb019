"""LTE-Advanced node skeletons.

Four node types (UE, eNB, S-GW/MME, PDN-GW) built from layer modules that
forward messages up or down and rename them with the tag of the module
they are headed to: a control message entering lte_rrc is named
"RRCMsg", a packet handed to lte_mac is "MACPck". Layers add no delay of
their own. Each class routes by one step rule, `route_step`: a table of
where arrivals go, or for the PHY's air hop and the S1 fan-in a push or
pop of a waypoint on the message's route. One handler applies every
class's rule (see `Forwarder`); how the run loop makes these steps with
no handler call is told in `lteadv_sim.kernel`.

`build_node` builds every kind from one per-kind table: a stack of
pass-through layers with one special layer, the PHY at the bottom of a
UE or eNB, which crosses the air to the peer's radio, the S1 fan-in at
the bottom of the S-GW/MME, or the reflector at the top of the PDN-GW.
A node keeps its `kind`, `stack` and `generator`; the cross-node links
read the ends of the stack.
"""

from __future__ import annotations

import enum
import functools
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .kernel import _CONTROL, _PACKET, SimMessage, SimulationError
from .model import (IN_FROM_LOWER, IN_FROM_UPPER, OUT_TO_LOWER, OUT_TO_UPPER,
                    RADIO_IN, AlreadyAttached, ChannelSpec, CompoundModule,
                    DuplicateName, Gate, ModuleNode, SimpleModule, _channel, transmit)


class NoRadioPeer(SimulationError):
    pass


class SelfJoin(SimulationError):
    """`wire_vertical` was given one module as both neighbors."""


class NodeType(enum.Enum):
    UE = "ue"
    ENB = "enb"
    SGW_MME = "sgw_mme"
    PDN_GW = "pdn_gw"


@dataclass(frozen=True, slots=True)
class LayerSpec:
    """One stack layer: the tag a message arriving there is renamed with,
    plus the module name it instantiates."""

    tag: str
    module_name: str


# Default stacks, top to bottom, each layer's module named lte_<tag>. The
# UE's six layers follow the standard protocol stack; the core-side chains
# are minimal linear stand-ins whose endpoints carry the cross-node wiring.
def _stack(*tags: str) -> tuple[LayerSpec, ...]:
    return tuple(LayerSpec(tag, f"lte_{tag.lower()}") for tag in tags)


UE_STACK = _stack("NAS", "RRC", "PDCP", "RLC", "MAC", "PHY")
ENB_STACK = _stack("GTP", "RRC", "PDCP", "RLC", "MAC", "PHY")
SGW_MME_STACK = _stack("S5", "GTP", "S1")
PDN_GW_STACK = _stack("IP", "GTP", "S5")


@functools.cache
def _tag_names(tag: str) -> tuple[str, str]:
    """A tag's (control, packet) message names, made and interned once,
    so every layer with one tag shares them."""
    return sys.intern(tag + _CONTROL.name_suffix), sys.intern(tag + _PACKET.name_suffix)


class Forwarder(SimpleModule):
    """A module that forwards each arrival by its class's step rule,
    `route_step(route, arrival_gate)`: from the message's route list, which
    it may push or pop, and the arrival label, the gate the message goes
    on to, a channel or a radio's air input. This class's rule is a table,
    `forward_to`: arrival label -> the attribute holding the channel the
    arrival leaves by; the PHY's air hop and the S1 fan-in override it.
    `handle_message` applies the rule: a None from it (a UE's top layer
    with no generator) drops the message, counted in `drop_count`; a label
    the rule lacks raises; otherwise it renames the message for the gate's
    owner and returns the hop, or transmits it over a delayed channel.

    A run makes a module's steps with no handler call (`lteadv_sim.kernel`)
    only while its handler is `Forwarder.handle_message`: one overridden
    in a subclass, or replaced on a class or instance before the run or in
    any `on_start`, is called at every arrival; one replaced later is not
    called for the steps the run makes without it. A handler of its own
    calls the stock one at most once, so one event is one call.
    """

    def __init__(self, name: str):
        super().__init__(name, type_name=name)
        self.up_gate: Optional[Gate] = None  # the channel upward, set when wired
        self.drop_count = 0

    def route_step(self, route: list, arrival_gate: str) -> Optional[Gate]:
        """The table rule: the channel `forward_to` names, None when none
        is wired."""
        attr = self.forward_to.get(arrival_gate)
        if attr is None:
            raise self.unknown_arrival(arrival_gate)
        return getattr(self, attr)

    def handle_message(self, msg: SimMessage, arrival_gate: str) -> Optional[tuple]:
        gate = self.route_step(msg._route, arrival_gate)
        if gate is None:
            self.drop_count += 1
            return None
        owner = gate.owner
        msg.name = owner.packet_name if msg._kind is _PACKET else owner.control_name
        if gate.delay_ns:  # None for a radio's unwired air input
            transmit(gate, msg)
            return None
        return owner, gate.label, msg

    _table_handler = handle_message  # the handler that links and walks stand for


class PassThroughLayer(Forwarder):
    """A stack layer: arrivals from above go down, arrivals from below go
    up, each renamed with the tag of the layer it is headed to."""

    forward_to = {IN_FROM_UPPER: "down_gate", IN_FROM_LOWER: "up_gate"}

    def __init__(self, name: str, tag: str):
        super().__init__(name)
        # the names a message takes on arriving here, per kind
        self.control_name, self.packet_name = _tag_names(tag)
        self.down_gate: Optional[Gate] = None  # the channel downward, set when wired


class FanInLayer(PassThroughLayer):
    """Bottom of the S-GW/MME (S1): one lower gate pair per linked eNB.

    `reply_gates` maps the label of each pair's In gate to the pair's
    channel down, recorded when the eNB is linked. A message coming up
    carries that channel on its route, so the reply leaves through it;
    then it goes up, or is dropped with nothing wired above.
    """

    forward_to = {}  # every arrival takes a route step

    def __init__(self, name: str, tag: str):
        super().__init__(name, tag)
        self.reply_gates: dict[str, Gate] = {}

    def route_step(self, route: list, arrival_gate: str) -> Optional[Gate]:
        """The step rule: the channel the arrival leaves by; None when it
        goes up with nothing wired above. Going up it pushes its pair's
        reply gate, going down it pops one."""
        if arrival_gate == IN_FROM_UPPER:
            gate = route.pop() if route else None
            if not isinstance(gate, Gate):
                raise NoRadioPeer(f"{self.full_path_or_name()}: no return route")
            return gate
        reply_gate = self.reply_gates.get(arrival_gate)
        if reply_gate is None:
            raise self.unknown_arrival(arrival_gate)
        route.append(reply_gate)
        return self.up_gate


class PhyLayer(PassThroughLayer):
    """Bottom of a radio-capable stack; downward traffic crosses the air.

    A UE's PHY has a statically attached peer (its eNB): it stamps its own
    radio onto the message as the return address and delivers direct to
    the peer's radio input. An eNB's PHY has no static peer; it pops the
    return address the originating UE stamped on the way up. Either way
    it names the message for the far radio (`RadioInterface`). Upward
    traffic is forwarded by the table.
    """

    forward_to = {IN_FROM_LOWER: "up_gate"}

    def __init__(self, name: str, tag: str):
        super().__init__(name, tag)
        self.peer_radio: Optional[ModuleNode] = None
        self.home_radio: Optional[ModuleNode] = None

    def route_step(self, route: list, arrival_gate: str) -> Optional[Gate]:
        """The step rule: for an arrival from above, the air input of the
        radio it crosses to; any other arrival goes by the table."""
        if arrival_gate != IN_FROM_UPPER:
            return super().route_step(route, arrival_gate)
        if self.peer_radio is not None:
            radio = self.peer_radio
            route.append(self.home_radio)
        else:
            radio = route.pop() if route else None
            if not isinstance(radio, RadioInterface):
                raise NoRadioPeer(
                    f"{self.full_path_or_name()}: no radio peer for downward send")
        return radio._gates[RADIO_IN]


class RadioInterface(Forwarder):
    """Receives direct air deliveries and hands them to its PHY, renamed
    with the PHY's names, which `build_node` gives the radio too: the air
    hop, naming the message for the radio, already gave it those names.
    A radio made alone has none."""

    forward_to = {RADIO_IN: "up_gate"}

    def __init__(self, name: str = "lte_radio"):
        super().__init__(name)


class ReflectorLayer(PassThroughLayer):
    """Top of the PDN-GW: turns traffic around in the same event."""

    forward_to = {IN_FROM_LOWER: "down_gate"}


def wire_vertical(upper: ModuleNode, lower: ModuleNode,
                  channel: ChannelSpec = ChannelSpec()) -> None:
    """Join two stack neighbors with an opposed pair of one-way channels
    of the channel's delay; a FanInLayer above gets its next pair and
    reply gate. A module joined to itself raises SelfJoin. Both modules
    are checked, the lower one first, before either gains a gate, so a
    refused join (SelfJoin, WiringLocked, DuplicateName) changes neither."""
    if upper is lower:
        raise SelfJoin(f"cannot join {upper.name!r} to itself")
    index = len(upper.reply_gates) if isinstance(upper, FanInLayer) else None
    u_out_label, u_in_label = ((OUT_TO_LOWER, IN_FROM_LOWER) if index is None else
                               (f"{OUT_TO_LOWER}[{index}]", f"{IN_FROM_LOWER}[{index}]"))
    lower._check_new_gates((IN_FROM_UPPER, OUT_TO_UPPER))
    upper._check_new_gates((u_out_label, u_in_label))
    delay_ns = channel.delay.ns
    down = _channel(upper, u_out_label, lower, IN_FROM_UPPER, delay_ns)
    lower.up_gate = _channel(lower, OUT_TO_UPPER, upper, u_in_label, delay_ns)
    if index is None:
        upper.down_gate = down
    else:
        upper.reply_gates[u_in_label] = down


# Per kind: the default stack, the position in the stack of the one
# layer that is not a PassThroughLayer, and that layer's class.
_NODE_LAYOUT = {
    NodeType.UE: (UE_STACK, -1, PhyLayer),
    NodeType.ENB: (ENB_STACK, -1, PhyLayer),
    NodeType.SGW_MME: (SGW_MME_STACK, -1, FanInLayer),
    NodeType.PDN_GW: (PDN_GW_STACK, 0, ReflectorLayer),
}


def build_node(kind: NodeType, name: str,
               stack: Optional[Sequence[LayerSpec]] = None,
               generator: Optional[ModuleNode] = None) -> CompoundModule:
    """One node: `stack` (top to bottom, the kind's default when None)
    wired in a column, a radio under a PHY, and for a UE `generator` on
    top. A UE's children are added top-down, every other node's
    bottom-up. The node, its layers and its radio are new, so the column
    is wired and the children added with no checks; `generator`, the one
    module from outside, is checked first, and one refused (WiringLocked,
    DuplicateName, AlreadyAttached) is left as it was."""
    default, special, special_cls = _NODE_LAYOUT[kind]
    chain = default if stack is None else tuple(stack)
    if generator is not None and kind is not NodeType.UE:
        raise ValueError(f"a {kind.value} takes no generator")
    least = 2 if special_cls is PhyLayer else 1  # the air hop needs a top and a PHY
    if len(chain) < least:
        raise ValueError(f"a {kind.value} stack needs at least {least} layers")
    if generator is not None:
        generator._check_new_gates((OUT_TO_LOWER, IN_FROM_LOWER))
        if generator.parent is not None:
            raise AlreadyAttached(f"{generator.name!r} is already a child of "
                                  f"{generator.parent.full_path_or_name()}")
    special %= len(chain)
    layers = [(special_cls if i == special else PassThroughLayer)(s.module_name, s.tag)
              for i, s in enumerate(chain)]
    column = layers if generator is None else [generator, *layers]
    modules = column
    if special_cls is PhyLayer:
        phy = layers[-1]
        radio = phy.home_radio = RadioInterface()
        radio.control_name, radio.packet_name = phy.control_name, phy.packet_name
        modules = [*column, radio]
    children = modules if kind is NodeType.UE else modules[::-1]
    names = [child.name for child in children]
    if len(set(names)) < len(names):
        twice = next(n for i, n in enumerate(names) if n in names[:i])
        raise DuplicateName(f"{name} already has a child named {twice!r}")
    for upper, lower in zip(column, column[1:]):  # as wire_vertical joins them
        upper.down_gate = _channel(upper, OUT_TO_LOWER, lower, IN_FROM_UPPER)
        lower.up_gate = _channel(lower, OUT_TO_UPPER, upper, IN_FROM_LOWER)
    if special_cls is PhyLayer:  # the radio's hand-off to the PHY, and its air input
        radio.up_gate = _channel(radio, OUT_TO_UPPER, phy, IN_FROM_LOWER)
        radio.add_gate(RADIO_IN)
    node = CompoundModule(name, type_name=kind.value)
    node._adopt(children)
    node.kind = kind
    node.stack = layers
    node.generator = generator
    return node


def attach_ue(ue: CompoundModule, enb: CompoundModule) -> None:
    """Point the UE's PHY at its serving eNB's radio interface."""
    if (getattr(ue, "kind", None), getattr(enb, "kind", None)) != (NodeType.UE, NodeType.ENB):
        raise SimulationError(f"cannot attach {ue.name!r} to {enb.name!r}: "
                              f"a ue attaches to an enb")
    ue.stack[-1].peer_radio = enb.stack[-1].home_radio


def _link(lower: CompoundModule, upper: CompoundModule, kinds: tuple,
          channel: ChannelSpec) -> None:
    """Wire the top of `lower` to the bottom of `upper`; refuse other
    kinds than `kinds`, whose stack ends would wire without complaint."""
    if (getattr(lower, "kind", None), getattr(upper, "kind", None)) != kinds:
        raise SimulationError(f"cannot link {lower.name!r} to {upper.name!r}: a link runs "
                              f"from a {kinds[0].value} to a {kinds[1].value}")
    wire_vertical(upper.stack[-1], lower.stack[0], channel)


def link_enb_to_sgw(enb: CompoundModule, sgw: CompoundModule,
                    channel: ChannelSpec = ChannelSpec()) -> None:
    """Backhaul link: the eNB's top layer to a fresh S1 gate pair."""
    _link(enb, sgw, (NodeType.ENB, NodeType.SGW_MME), channel)


def link_sgw_to_pdn(sgw: CompoundModule, pdn: CompoundModule,
                    channel: ChannelSpec = ChannelSpec()) -> None:
    """Core link: the S-GW/MME's top layer to the PDN-GW's bottom one."""
    _link(sgw, pdn, (NodeType.SGW_MME, NodeType.PDN_GW), channel)
