"""Composition model.

Named modules, compound modules, wired channels with delay, and direct
delivery for the over-the-air hop. `Simulator(root)` binds a tree and
fixes its shape and wiring (see `WiringLocked`). `connect` makes each
wired one-way channel, one `Gate` held in both its modules' gate tables;
`ModuleNode.add_gate` makes an unwired In gate, for `send_direct`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .kernel import SELF_GATE, SimMessage, SimTime, SimulationError


class UnknownGate(SimulationError):
    pass


class UnconnectedGate(SimulationError):
    pass


class UnknownTargetGate(SimulationError):
    pass


class DetachedModule(SimulationError):
    pass


class DuplicateName(SimulationError):
    pass


class WiringLocked(SimulationError):
    """A child, parent, gate or connection for a module bound to a simulator."""


class AlreadyAttached(SimulationError):
    """A module added as a child already has a parent."""


class TreeCycle(SimulationError):
    """A module added as a child is the parent or one of its ancestors."""


class UnknownArrivalGate(SimulationError):
    pass


class UnknownChild(SimulationError):
    """A compound module has no child under the name asked for."""


# The four layer gate names are a fixed compatibility surface, plus the
# unwired air-interface input on radio modules.
IN_FROM_UPPER = "inFromUpperLayer"
OUT_TO_LOWER = "outToLowerLayer"
IN_FROM_LOWER = "inFromLowerLayer"
OUT_TO_UPPER = "outToUpperLayer"
RADIO_IN = "radioIn"


@dataclass(frozen=True, slots=True)
class ChannelSpec:
    """Delay carried by one one-way connection; a bidirectional channel is
    a pair of these with equal delay."""

    delay: SimTime = SimTime(0)


@dataclass(slots=True, eq=False)
class Gate:
    """A one-way channel, held in both its modules' gate tables, or an
    unwired In gate (`source` None). `owner` and `label` name its In end,
    the module a message arrives at and its arrival label; `source` and
    `source_label` its Out end. So a module's entry under L is its In gate
    exactly when `owner` and `label` are that module and L. Only `relay_to`
    changes once a gate is made: the In end's relay link, which a run sets
    and follows (see `lteadv_sim.kernel`).
    """

    owner: ModuleNode
    label: str
    source: Optional[ModuleNode] = None
    source_label: Optional[str] = None
    delay_ns: Optional[int] = None
    relay_to: Optional[Gate] = field(default=None, init=False)

    def __repr__(self) -> str:
        src = "" if self.source is None else f"{self.source.name}.{self.source_label} "
        return f"Gate({src}-> {self.owner.name}.{self.label})"


class ModuleNode:
    """A node in the module tree; see SimpleModule and CompoundModule."""

    children: tuple = ()  # a leaf has none; CompoundModule keeps a list

    def __init__(self, name: str, type_name: Optional[str] = None):
        self.name = name
        self.type_name = type_name if type_name is not None else name
        self.parent: Optional[ModuleNode] = None
        self.module_id: Optional[int] = None
        self._gates: dict[str, Gate] = {}
        self._path: Optional[str] = None
        self._sim = None

    # -- gates ---------------------------------------------------------

    def add_gate(self, label: str) -> Gate:
        """A new unwired In gate, such as `radioIn`, for `send_direct`."""
        self._check_new_gates((label,))
        gate = self._gates[label] = Gate(self, label)
        return gate

    def _check_new_gates(self, labels: tuple) -> None:
        """Raise WiringLocked if this module is bound, else DuplicateName
        for the first of `labels` it already has a gate under."""
        if self._sim is not None:
            raise WiringLocked(f"{self.name}: cannot add gates to a bound module")
        for label in labels:
            if label in self._gates:
                raise DuplicateName(f"{self.name} already has a gate {label!r}")

    # -- tree ----------------------------------------------------------

    def iter_tree(self) -> Iterator["ModuleNode"]:
        """This module and every module below it, depth-first pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    @property
    def full_path(self) -> str:
        """Dot-joined names from the network root down to this module."""
        if self._path is not None:
            return self._path
        chain = []
        node: Optional[ModuleNode] = self
        while node is not None:
            chain.append(node.name)
            top, node = node, node.parent
        if not isinstance(top, CompoundModule):
            raise DetachedModule(f"module {self.name!r} is not attached to a network")
        return ".".join(reversed(chain))

    def full_path_or_name(self) -> str:
        try:
            return self.full_path
        except DetachedModule:
            return self.name

    def assign_ids(self) -> dict[str, int]:
        """Number this subtree depth-first pre-order starting at 1, by tree
        shape and names alone, and return the path -> id map. Simulator.run
        numbers the tree the same way; build() leaves it unnumbered."""
        ids: dict[str, int] = {}
        for module_id, node in enumerate(self.iter_tree(), 1):
            node.module_id = module_id
            ids[node.full_path] = module_id
        return ids

    # -- simulation hooks ------------------------------------------------

    @property
    def sim(self):
        if self._sim is None:
            raise SimulationError(f"{self.name}: module is not bound to a simulator")
        return self._sim

    def on_start(self, sim) -> None:
        """Called once, in tree order, before the first event dispatches."""

    def handle_message(self, msg: SimMessage, arrival_gate: str) -> None:
        raise SimulationError(f"{self.full_path_or_name()} does not handle messages")


class SimpleModule(ModuleNode):
    """Leaf module with behavior; subclasses implement handle_message."""

    def unknown_arrival(self, arrival_gate: str) -> UnknownArrivalGate:
        """The error a handler raises for a gate it has no rule for."""
        return UnknownArrivalGate(
            f"{self.full_path_or_name()}: unexpected arrival on {arrival_gate!r}")

    def schedule_self(self, msg: SimMessage, fire_at: SimTime) -> int:
        """Schedule a self-event; it arrives on the pseudo-gate "self".
        Returns the event's insertion sequence."""
        sim = self.sim
        return sim.fes.push(fire_at.ns, sim.now_ns, self, SELF_GATE, msg)


class CompoundModule(ModuleNode):
    """Module containing an ordered list of children; no behavior of its own."""

    def __init__(self, name: str, type_name: Optional[str] = None):
        super().__init__(name, type_name)
        self.children: list[ModuleNode] = []
        self._by_name: dict[str, ModuleNode] = {}

    def add_child(self, child: ModuleNode) -> ModuleNode:
        """Append `child`, or raise WiringLocked, TreeCycle, AlreadyAttached
        or DuplicateName (see each) and change neither tree."""
        if self._sim is not None or child._sim is not None:
            raise WiringLocked(f"cannot add {child.name!r} to {self.name!r}: a tree is bound")
        node: Optional[ModuleNode] = self
        while node is not None:
            if node is child:
                raise TreeCycle(f"cannot add {child.name!r} below itself")
            node = node.parent
        if child.parent is not None:
            raise AlreadyAttached(
                f"{child.name!r} is already a child of {child.parent.full_path_or_name()}")
        if child.name in self._by_name:
            raise DuplicateName(
                f"{self.full_path_or_name()} already has a child named {child.name!r}")
        child.parent = self
        self.children.append(child)
        self._by_name[child.name] = child
        return child

    def _adopt(self, children: list) -> None:
        """Make `children` this module's, unchecked: `add_child` with no
        checks, for a caller that made this module and them, and checked
        their names."""
        for child in children:
            child.parent = self
        self.children = list(children)
        self._by_name = {child.name: child for child in children}

    def child(self, name: str) -> ModuleNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownChild(
                f"{self.full_path_or_name()} has no child named {name!r}") from None


def connect(src: ModuleNode, out_label: str, dst: ModuleNode, in_label: str,
            channel: ChannelSpec = ChannelSpec()) -> Gate:
    """Wire a new Out gate `out_label` of `src` to a new In gate `in_label`
    of `dst` with the channel's delay; return that one `Gate`. `src` is
    checked first, then `dst`; a refused connect changes neither."""
    src._check_new_gates((out_label,))
    if src is dst and out_label == in_label:
        raise DuplicateName(f"{src.name} cannot connect gate {out_label!r} to itself")
    dst._check_new_gates((in_label,))
    return _channel(src, out_label, dst, in_label, channel.delay.ns)


def _channel(src: ModuleNode, out_label: str, dst: ModuleNode, in_label: str,
             delay_ns: int = 0) -> Gate:
    """A new one-way channel from `src` to `dst`, entered unchecked in both
    tables: `connect` with no checks, for callers that made them."""
    gate = src._gates[out_label] = dst._gates[in_label] = Gate(
        dst, in_label, src, out_label, delay_ns)
    return gate


def transmit(gate: Gate, msg: SimMessage, at_ns: Optional[int] = None) -> int:
    """Send through a connected gate at `at_ns`, or now when it is None,
    with no lookup by name; return the event's insertion sequence. `send`
    and the built-in modules send through it, the latter only a hop with
    a delay or a new message."""
    sim = gate.source._sim
    now = sim.now_ns
    return sim.fes.push((now if at_ns is None else at_ns) + gate.delay_ns, now,
                        gate.owner, gate.label, msg)


def send(from_module: ModuleNode, msg: SimMessage, out_gate_name: str,
         now: Optional[SimTime] = None) -> int:
    """Send out a named gate; the target sees the message after the
    channel delay. Returns the event's insertion sequence."""
    from_module.sim  # raises when the module is not bound to a simulator
    g = from_module._gates.get(out_gate_name)
    if g is None or g.source is not from_module or g.source_label != out_gate_name:
        raise UnknownGate(
            f"{from_module.full_path_or_name()} has no Out gate {out_gate_name!r}")
    return transmit(g, msg, None if now is None else now.ns)


def send_direct(from_module: ModuleNode, msg: SimMessage, target: ModuleNode,
                in_gate_name: str, delay: SimTime = SimTime(0)) -> int:
    """Deliver straight to a target module's In gate, no wiring required.
    Returns the event's insertion sequence."""
    sim = from_module.sim
    g = target._gates.get(in_gate_name)
    if g is None or g.owner is not target or g.label != in_gate_name:
        raise UnknownTargetGate(
            f"{target.full_path_or_name()} has no In gate {in_gate_name!r}")
    return sim.fes.push(sim.now_ns + delay.ns, sim.now_ns, target, g.label, msg)
