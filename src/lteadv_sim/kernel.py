"""Deterministic discrete-event kernel.

Simulation clock, future event set with stable FIFO tie-breaking, message
identity allocation, and the run loop. Time is integer nanoseconds
throughout; there is no floating point anywhere on the event path, so two
runs of the same network produce byte-identical traces.

The run loop, told once here; the docstrings below state contracts. Each
shortcut leaves the events, their order and numbers, the clock, every seq,
message id, name and route, and every pending entry as a loop that pushes
every hop and calls every handler would leave them.

*Lane, stage and heap.* The future event set is a FIFO lane of the
entries due at `lane_ns`, a staged bucket of the entries due at
`stage_ns`, each in seq order, and a binary heap of the rest. `push`
appends to the lane when `t_ns == lane_ns`; else to the stage when
`t_ns == stage_ns` or the stage is empty, which then takes `t_ns` as its
time; else it pushes onto the heap. `refill` fills an empty lane with the
earliest bucket: the heap's entries due at the earlier of its head and
`stage_ns`, then the stage if it is due then too. Heap entries due at t
were pushed while now < t, and seq only grows, so they precede anything
pushed at t: the lane alone heads the `(t_ns, seq)` order, and the loop
pops it with no compare. A heap entry due at `stage_ns` was pushed before
the stage took that time, so it precedes every staged entry. Timers that
share a fire time, such as the n timer pushes of a whole lane, so pass
from the stage to the lane with no heap work. A push from outside a run
due before `lane_ns` first moves the lane back onto the heap; the stage,
due later than the lane, keeps its entries.

*Returned hops.* A handler may return its zero-delay hop,
`(target, arrival_label, msg)`, in place of pushing it. While the lane
holds entries, the loop appends the hop with `next(seq_counter)`, as
`push` would. With the lane empty, the hop is the next entry to pop: the
loop dispatches it at once, drawing no seq, or pushes it at the event
limit.

*Relay links.* After every `on_start`, `_set_links_and_trips` sets
`Gate.relay_to` on each In gate of a stock-handled module (`_stock`) to
the next gate of its `_step` (the module's `route_step`, applied to an
empty route), where that step leaves the route empty. An arrival on a
linked gate makes that hop with no handler call: the loop renames the
message for that gate's owner, by its kind, and goes on as with a
returned hop. An arrival on the target's own Out gate takes no link and
no walk.

*No-sink walks.* With no sink, a message due with the lane empty, popped
or returned, jumps the whole walk from its gate before its event, if the
event at the walk's end is within the limit. `_Walks` computes a gate's
walk once per run: it follows links and, where a gate has none, takes
the `_step` of a stock-handled module on the route of the waypoints it
pushed, and stops where no step is found or at a gate it visited. The
jump counts the steps as events, appends the walk's net pushes to the
route, renames the message for the end gate's owner and dispatches that
gate next; no step pushes an entry and nothing else is due now, so
nothing comes between the steps.

*Trip walks.* After every `on_start`, `_set_links_and_trips` fixes each
generator with the links: its `_trip` fixes an emission that `on_start`
left unfixed and gives the trip of a generator whose handler is the
stock one and which has a config and sends down with no delay. The loop
calls every handler that no link or walk stands in for, a generator's at
each of its events; only `_walk_trips` makes generator events without
the loop, by calling that stock handler itself. With no sink the loop
checks each bucket's lane once, right after `refill`: `_walk_trips`
makes a lane of n >= 2 entries at once when each walks alike to the In
gate from below of a generator with a trip and no timer would pass
`MAX_TIME_NS`. The first entry sets the lane's kind: timers, each of
whose walks starts at its own generator's channel down, or hops that
carry distinct messages, such as the first emissions `on_start` pushed,
each of whose walks starts at its own In gate and takes a step or more.
One count rule covers both. Let S be a walk's steps, plus one in a lane
of timers, as a timer's own event is a step: the lane makes n*(S+1)
events, n*S steps and n returns, if they end within the limit, and the
counter is advanced past the n*S appends of the hop-by-hop run. The
timers' payloads take their ids in lane order, then the n returns push
their timers in lane order, through `FutureEventSet.push`, taking the
next ids and seqs, and the lane is left empty. Any other lane runs hop
by hop: one message in two entries pushes and pops its route in turn,
and a lane that would overflow fails at its own return, as its
HandlerError.

*Spent messages.* A message is re-issued only where no module but its
stock generator can still hold it (`lteadv_sim.traffic`). The handler
re-issues its own timer at the return, and a lane of timers hands it
each entry's timer. Each payload of such a lane is made and returned
within the lane, stepped only by stock modules, so the walk leaves it
on its generator as a spare, unless its route still holds a waypoint,
and that generator's next emission re-issues the spare. A lone trip's
payload passes handlers that may keep it, and so do the first
emissions of a lane of hops: they stay new objects.
"""

from __future__ import annotations

import enum
import itertools
import sys
import time as _wallclock
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator, Optional

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

# SimTime is confined to a signed 64-bit range even though Python ints are
# unbounded: overflow must be an error, not a silently huge timestamp.
MAX_TIME_NS = 2**63 - 1


class SimulationError(Exception):
    """Base class for every error this package raises."""


class SimTimeRangeError(SimulationError):
    """Simulation time left the valid [0, 2**63 - 1] nanosecond range."""


class SchedulingInPast(SimulationError):
    """An event was scheduled before the current simulation time."""


class HandlerError(SimulationError):
    """A module handler failed while dispatching an event."""

    def __init__(self, module_path: str, event_no: int, cause: BaseException):
        super().__init__(f"event #{event_no} at {module_path}: "  # the path once
                         + str(cause).removeprefix(f"{module_path}: "))
        self.module_path = module_path
        self.event_no = event_no


def format_seconds(t_ns: int) -> str:
    """Render integer nanoseconds as decimal seconds with no trailing zeros
    and no exponent: 0 -> "0", 10,000,000 -> "0.01", 1,500,000,000 -> "1.5".

    Raises SimTimeRangeError outside [0, MAX_TIME_NS], as SimTime would.
    """
    if not 0 <= t_ns <= MAX_TIME_NS:
        raise SimTimeRangeError(f"simulation time out of range: {t_ns} ns")
    secs, rem = divmod(t_ns, NS_PER_S)
    if rem == 0:
        return str(secs)
    # %-formatting: a third faster than an f-string's "09d" format spec
    return ("%d.%09d" % (secs, rem)).rstrip("0")


@dataclass(frozen=True, slots=True, order=True)
class SimTime:
    """Integer-nanosecond simulation timestamp.

    Arithmetic is exact and checked: any result outside the 64-bit
    non-negative range raises instead of wrapping, and 0.01 s is exactly
    10,000,000 ns. Instances are immutable and totally ordered.
    """

    ns: int

    def __post_init__(self) -> None:
        if not isinstance(self.ns, int) or isinstance(self.ns, bool):
            raise TypeError(f"SimTime needs an int nanosecond count, got {self.ns!r}")
        if self.ns < 0:
            raise SimTimeRangeError(f"negative simulation time: {self.ns} ns")
        if self.ns > MAX_TIME_NS:
            raise SimTimeRangeError(f"simulation time overflows 64 bits: {self.ns} ns")

    @classmethod
    def from_millis(cls, ms: int) -> "SimTime":
        return cls(ms * NS_PER_MS)

    @classmethod
    def from_seconds(cls, s: int) -> "SimTime":
        return cls(s * NS_PER_S)

    def __add__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        return SimTime(self.ns + other.ns)

    def __sub__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        return SimTime(self.ns - other.ns)

    def __mul__(self, k: int) -> "SimTime":
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return SimTime(self.ns * k)

    __rmul__ = __mul__

    def seconds_str(self) -> str:
        """Render as decimal seconds with no trailing zeros and no exponent
        (see `format_seconds`)."""
        return format_seconds(self.ns)

    def __str__(self) -> str:
        return f"{self.seconds_str()}s"

    def __repr__(self) -> str:
        return f"SimTime({self.ns})"


class MessageKind(enum.Enum):
    """Control message vs. packet; the value is the trace label."""

    CONTROL_MESSAGE = "cMessage"
    PACKET = "cPacket"

    @property
    def name_suffix(self) -> str:
        return "Msg" if self is _CONTROL else "Pck"


_CONTROL = MessageKind.CONTROL_MESSAGE
_PACKET = MessageKind.PACKET
# The arrival label of a self-event, a pseudo-gate that no gate table holds.
SELF_GATE = "self"
_new_object = object.__new__  # a SimMessage with no __init__: `Simulator._message`


class SimMessage:
    """The unit flowing through layers. Layers may rename it; its msgId,
    kind, byte length and creation time are fixed at creation. Only a
    stock generator re-issues a message, a spent one of its own that no
    module can still hold, and then as a new message: a new msgId and
    creation time (`lteadv_sim.traffic`). Its private route stack,
    `_route`, holds the waypoints that the PHY's air hop and the S1
    fan-in push and pop (their `route_step`), so a reply goes back the
    way it came with no handler keeping cross-event state.
    """

    __slots__ = ("_msg_id", "name", "_kind", "kind_label", "_byte_length",
                 "_created_ns", "_route")

    def __init__(self, msg_id: int, name: str, kind: MessageKind,
                 byte_length: int, creation_time: SimTime | int):
        """`creation_time` is a SimTime or, from the simulator, its
        integer-nanosecond clock, checked as SimTime checks it."""
        if not isinstance(msg_id, int) or isinstance(msg_id, bool):
            raise TypeError(f"message id must be an int, got {msg_id!r}")
        if not isinstance(name, str):
            raise TypeError(f"message name must be a str, got {name!r}")
        if not isinstance(kind, MessageKind):
            raise TypeError(f"message kind must be a MessageKind, got {kind!r}")
        if not isinstance(byte_length, int) or isinstance(byte_length, bool):
            raise TypeError(f"byte length must be an int, got {byte_length!r}")
        if byte_length < 0:
            raise ValueError("byte length must be non-negative")
        if kind is _CONTROL and byte_length != 0:
            raise ValueError("control messages carry no payload bytes")
        self._msg_id = msg_id
        self.name = name
        self._kind = kind
        # the member's own attribute: `kind.value` is a Python-level
        # property, and a dict keyed by kind a Python-level __hash__
        self.kind_label = kind._value_
        self._byte_length = byte_length
        if isinstance(creation_time, SimTime):
            creation_time = creation_time.ns
        elif type(creation_time) is not int or not 0 <= creation_time <= MAX_TIME_NS:
            # SimTime raises for each of these but an in-range int subclass
            creation_time = SimTime(creation_time).ns
        self._created_ns = creation_time
        self._route: list = []

    @property
    def msg_id(self) -> int:
        return self._msg_id

    @property
    def kind(self) -> MessageKind:
        return self._kind

    @property
    def byte_length(self) -> int:
        return self._byte_length

    @property
    def creation_time(self) -> SimTime:
        return SimTime(self._created_ns)

    def __repr__(self) -> str:
        return (f"SimMessage(id={self._msg_id}, name={self.name!r}, "
                f"kind={self.kind_label})")


@dataclass(slots=True)
class EventRecord:
    """One executed event, the unit of tracing and metrics."""

    event_no: int
    t_ns: int
    path: str
    type_name: str
    module_id: int
    msg_name: str
    msg_kind: str
    msg_id: int


class StopReason(enum.Enum):
    FES_EMPTY = "FesEmpty"
    TIME_LIMIT = "TimeLimit"
    EVENT_LIMIT = "EventLimit"


@dataclass(slots=True)
class RunSummary:
    events_executed: int
    final_time: SimTime
    stop_reason: StopReason
    wall_clock_seconds: float


class FutureEventSet:
    """Pending events in `(t_ns, seq)` order: nondecreasing fire time, and
    strictly FIFO among equal fire times, so simultaneous events never
    reorder between runs. Entries are plain `(t_ns, seq, target,
    gate_label, msg)` tuples, kept in a FIFO `lane` of the entries due at
    `lane_ns`, a `stage` of the entries due at `stage_ns` and a `heap` of
    the rest (the module note, *Lane, stage and heap*). `lane` and
    `seq_counter` are public for the run loop; apart from it, only `push`,
    `refill` and the pops change them, and only `push` and `refill` the
    stage.
    """

    def __init__(self) -> None:
        self.heap: list = []
        self.lane: deque = deque()
        self.lane_ns = -1  # the fire time of every lane entry; -1: none
        self.stage: list = []
        self.stage_ns = -1  # the fire time of every staged entry
        self.seq_counter = itertools.count()  # the one source of insertion seqs

    def __len__(self) -> int:
        return len(self.heap) + len(self.lane) + len(self.stage)

    def push(self, t_ns: int, now_ns: int, target, gate_label: str,
             msg: SimMessage) -> int:
        """Schedule `msg` to arrive at `target` on `gate_label` at `t_ns`,
        and return the insertion seq that breaks ties between equal fire
        times. Every send, direct delivery and self-event ends here."""
        if t_ns < now_ns:
            raise SchedulingInPast(
                f"cannot schedule at {t_ns} ns when now is {now_ns} ns")
        if t_ns > MAX_TIME_NS:
            raise SimTimeRangeError(f"simulation time overflows 64 bits: {t_ns} ns")
        seq = next(self.seq_counter)
        lane_ns = self.lane_ns
        if t_ns == lane_ns:
            self.lane.append((t_ns, seq, target, gate_label, msg))
            return seq
        heap = self.heap
        if t_ns < lane_ns:
            # only a push with a `now` before the lane's time gets here
            for entry in self.lane:
                heappush(heap, entry)
            self.lane.clear()
            self.lane_ns = -1
        stage = self.stage
        if t_ns == self.stage_ns or not stage:
            self.stage_ns = t_ns
            stage.append((t_ns, seq, target, gate_label, msg))
        else:
            heappush(heap, (t_ns, seq, target, gate_label, msg))
        return seq

    def refill(self, until_ns: int) -> Optional[int]:
        """Return `lane_ns` if the lane holds entries due before
        `until_ns`, first moving the earliest bucket into an empty lane:
        the heap's entries due then, and then the stage when it is due
        then too. Return None when nothing is due before `until_ns`."""
        lane = self.lane
        if lane:
            return self.lane_ns if self.lane_ns < until_ns else None
        heap, stage = self.heap, self.stage
        t_ns = self.stage_ns if stage else until_ns  # until_ns: nothing due
        if heap and heap[0][0] < t_ns:
            t_ns = heap[0][0]
        if t_ns >= until_ns:
            return None
        self.lane_ns = t_ns
        while heap and heap[0][0] == t_ns:
            lane.append(heappop(heap))
        if t_ns == self.stage_ns:  # an empty stage extends the lane by nothing
            lane.extend(stage)
            stage.clear()
        return t_ns

    def pop_before(self, until_ns: int) -> Iterator[tuple]:
        """Pop entries in order while the earliest fires before `until_ns`,
        including those pushed while iterating. The one way to pop outside
        a run: `next(fes.pop_before(MAX_TIME_NS + 1), None)` pops the
        earliest entry, or gives None when the set is empty."""
        lane = self.lane
        while self.refill(until_ns) is not None:
            yield lane.popleft()


# The rows `Simulator.run` holds for the batch sinks before a bucket
# boundary hands them over: at most this many plus one bucket's.
CHUNK_ROWS = 512


def _event_entry(sink):
    """The per-event call `Simulator.run` makes on a sink with no
    `on_events`, as `entry(event_no, t_ns, module, msg)`: an adapter that
    builds the event's EventRecord and passes it to the sink's `record`,
    before the target handler runs."""
    record = sink.record

    def record_event(event_no: int, t_ns: int, module, msg: SimMessage) -> None:
        # run() cached the path of every module in its tree; a module
        # outside it computes its own
        record(EventRecord(event_no, t_ns, module._path or module.full_path,
                           module.type_name, module.module_id, msg.name,
                           msg.kind_label, msg._msg_id))

    return record_event


def _hand_over(batch: list, executed: int, rows: list) -> None:
    """Pass the held rows, the events up to number `executed`, to every
    batch sink's `on_events`, then empty the list, also when a sink
    raises, so no sink sees a row twice."""
    first_no = executed - len(rows) + 1
    try:
        for on_events in batch:
            on_events(first_no, rows)
    finally:
        rows.clear()


def _stock(module) -> bool:
    """Whether `module`'s handler is the stock one, which its `_table_handler`
    names: only then may a run step through it unseen."""
    return module.handle_message == getattr(module, "_table_handler", None)


def _step(gate, route) -> Optional[tuple]:
    """The stock handler's step from `gate`, made unseen: the step rule of
    its module, `route_step`, applied to a copy of `route`. Returns
    `(next gate, route after)`, or None where the handler would raise,
    drop or transmit: the rule raises or returns None, the next gate is a
    delayed channel, or its owner lacks `control_name` or `packet_name`.
    The caller checks `_stock` first."""
    route = list(route)
    try:
        nxt = gate.owner.route_step(route, gate.label)
    except Exception:  # the handler raises it at this event, as a HandlerError
        return None
    if (nxt is None or nxt.delay_ns or not hasattr(nxt.owner, "control_name")
            or not hasattr(nxt.owner, "packet_name")):
        return None
    return nxt, route


def _set_links_and_trips(modules) -> dict:
    """Set the relay link of every In gate of each `_stock` module in
    `modules` that gets one (the module note, *Relay links*), and fix each
    generator by its `_trip()`. Returns generator -> trip for each
    generator that gives one (the module note, *Trip walks*)."""
    trips = {}
    for mod in modules:
        if _stock(mod):
            for gate in mod._gates.values():
                if gate.owner is mod:
                    step = _step(gate, ())
                    if step is not None and not step[1]:
                        gate.relay_to = step[0]
        elif hasattr(mod, "_trip"):
            trip = mod._trip()
            if trip is not None:
                trips[mod] = trip
    return trips


class _Walks(dict):
    """An arrival's gate -> `(end, steps, pushes)`, computed afresh by
    `fresh` on first lookup and fixed for the run: the no-sink walk from
    that gate (the module note). `end` is the gate it stops at, `steps`
    the events it covers and `pushes` the waypoints it leaves pushed, as
    a tuple. None, for a label the target has no In gate under, maps to
    `(None, 0, ())`.
    """

    def __missing__(self, gate):
        walk = self[gate] = self.fresh(gate)
        return walk

    @staticmethod
    def fresh(gate) -> tuple:
        """The walk from `gate`, computed step by step with no cache."""
        end, steps, route, seen = gate, 0, [], {gate}
        while end is not None:
            nxt = end.relay_to
            if nxt is None:
                step = _step(end, route) if _stock(end.owner) else None
                if step is None:
                    break
                nxt, route = step
            end, steps = nxt, steps + 1
            if end in seen:
                break
            seen.add(end)
        return end, steps, tuple(route)


def _walk_on(msg: SimMessage, walk: tuple):
    """Leave `msg` as the steps of `walk`, a `_Walks` value of a step or
    more, leave it: the walk's net pushes appended to its route, and named
    for the owner of the gate the walk ends at. Returns that gate."""
    end, _, pushes = walk
    if pushes:
        msg._route += pushes
    msg.name = end.owner.packet_name if msg._kind is _PACKET else end.owner.control_name
    return end


def _walk_trips(fes: FutureEventSet, walks: _Walks, trips: dict, t_ns: int,
                room: int) -> int:
    """Make the lane of `fes`, due at `t_ns`, whole in one step, by the
    walks of `walks` to the generators of `trips` (generator -> trip, from
    `_set_links_and_trips`), if its events are at most `room`. Returns the
    number of events made, with the lane left empty and the next timers
    pushed through `FutureEventSet.push`, or 0, with the lane untouched."""
    lane = fes.lane
    timers = lane[0][3] == SELF_GATE
    steps, walked, held = 0, [], set()
    for _, _, target, label, msg in lane:
        if timers:  # a timer walks from its generator's channel down
            gen, trip = target, trips.get(target) if label == SELF_GATE else None
            walk = None if trip is None else walks[trip[0]]
        else:  # a hop from its own In gate, a step or more, with a message no other entry has
            gate = target._gates.get(label)
            walk = walks[None if gate is None or gate.source is target else gate]
            gen = walk[0].owner if walk[1] and msg not in held else None
            trip = trips.get(gen)
            held.add(msg)
        if (trip is None or walk[0] is not trip[1] or (walked and walk[1] != steps)
                or t_ns + trip[2] > MAX_TIME_NS):
            return 0
        steps = walk[1]
        walked.append([gen, walk, msg])
    n, steps = len(lane), steps + timers  # a timer's own event counts as a step
    if n * (steps + 1) > room:
        return 0
    seq = next(fes.seq_counter) + n * steps  # past the appends of the hop-by-hop run
    lane.clear()
    for entry in walked:
        if timers:  # the payload the timer's event sends
            entry[2] = entry[0]._trip_handler(entry[2], SELF_GATE)[2]
        _walk_on(entry[2], entry[1])
    fes.seq_counter = itertools.count(seq)
    for gen, walk, msg in walked:
        gen._trip_handler(None, walk[0].label)
        if timers and not walk[2]:  # a payload back at its generator, held by no module: a spare
            gen._payload = msg
    return n * (steps + 1)


class Simulator:
    """One sequential event loop over a built module tree. A simulator
    owns its clock, its future event set and its message-id counter;
    independent instances share nothing.

    Binding the tree under `root` fixes its shape and wiring. `root` must
    be a network's root; a module with a parent (whose paths could still
    move), a root outside a network and a tree bound already are refused
    before anything is bound.
    """

    def __init__(self, root):
        if root.parent is not None:
            raise SimulationError(f"{root.full_path_or_name()}: a simulator binds a network's "
                                  "root, not a module below it")
        root.full_path  # raises DetachedModule when no network holds root
        self.root = root
        self.fes = FutureEventSet()
        self.now_ns = 0  # the clock; read it, never set it
        self._next_msg_id = 1
        self._ran = False
        self._modules = list(root.iter_tree())
        for mod in self._modules:
            if mod._sim is not None:
                raise SimulationError(
                    f"{mod.name}: module tree is already bound to a simulator; "
                    "build a fresh network per simulator instance")
        for mod in self._modules:
            mod._sim = self

    @property
    def now(self) -> SimTime:
        return SimTime(self.now_ns)

    def new_message(self, name: str, kind: MessageKind, byte_length: int = 0,
                    at: Optional[SimTime] = None) -> SimMessage:
        """Allocate a message with the next msgId; ids strictly increase."""
        created = self.now_ns if at is None else at
        msg = SimMessage(self._next_msg_id, name, kind, byte_length, created)
        self._next_msg_id += 1
        return msg

    def _message(self, name: str, kind: MessageKind, byte_length: int) -> SimMessage:
        """`new_message(name, kind, byte_length)` with no checks, for fields
        checked already, such as a generator's."""
        msg = _new_object(SimMessage)
        msg._msg_id = self._next_msg_id
        self._next_msg_id += 1
        msg.name = name
        msg._kind = kind
        msg.kind_label = kind._value_
        msg._byte_length = byte_length
        msg._created_ns = self.now_ns
        msg._route = []
        return msg

    def run(self, until: SimTime, event_limit: Optional[int] = None,
            sinks: Iterable = ()) -> RunSummary:
        """Dispatch events with fire time strictly below `until`, once per
        simulator, and return the RunSummary. Stops when the FES drains,
        the next event would fire at or past `until`, or `event_limit`
        events have run.

        Shows every dispatched event, numbered from 1, to every sink of
        `sinks`, any iterable, read once, as the message arrived. A sink
        with `on_events(first_no, rows)` gets the events in chunks: one
        row per event, `(t_ns, module, msg_name, msg_kind, msg_id)`,
        numbered from `first_no`, with the name taken when the event is
        dispatched. The run holds the rows in one list and hands it over
        at a bucket boundary once `CHUNK_ROWS` rows are held, at every stop
        and before any exception leaves the run, such as the HandlerError
        of event k after rows 1..k; the list is emptied and reused
        afterwards. A batch sink sees its rows after
        their handlers ran, so it must read nothing but the rows: not the
        clock, the FES or a message. Any other sink's `record(rec)` is
        called at each event, before the target handler runs, with the
        event's EventRecord (see `_event_entry`).

        A handler returns None or its zero-delay hop, `(target,
        arrival_label, msg)`, in place of pushing it; a return that is
        not three items with a module first fails as a HandlerError.
        Relay links and, with no sink (a sink with only `record` counts as
        one), walks and whole lanes of trips make steps with no handler
        call. They leave every event, seq, message and pending entry as a
        run that calls every handler and schedules every hop through
        `FutureEventSet.push` leaves them (the module note).

        Raises TypeError for an `until` that is not a SimTime or an
        `event_limit` that is neither None nor an int (a bool is not one),
        and ValueError for a negative `event_limit`, before anything runs,
        so the simulator can still run; so does the error of `sinks` that
        cannot be iterated or of a sink with neither `on_events` nor
        `record`.
        """
        if not isinstance(until, SimTime):
            raise TypeError(f"until must be a SimTime, got {until!r}")
        if event_limit is not None:
            if not isinstance(event_limit, int) or isinstance(event_limit, bool):
                raise TypeError(f"event_limit must be None or an int, got {event_limit!r}")
            if event_limit < 0:
                raise ValueError(f"event_limit must be non-negative, got {event_limit}")
        sinks = list(sinks)
        batch = [sink.on_events for sink in sinks if hasattr(sink, "on_events")]
        entries = [_event_entry(sink) for sink in sinks if not hasattr(sink, "on_events")]
        if self._ran:
            raise SimulationError("this simulator instance has already run")
        self._ran = True

        # number as assign_ids() does; cache each path top-down from the parent's
        root = self.root
        for module_id, mod in enumerate(self._modules, 1):
            mod.module_id = module_id
            mod._path = root.full_path if mod is root else f"{mod.parent._path}.{mod.name}"
        for mod in self._modules:
            mod.on_start(self)
        trips = _set_links_and_trips(self._modules)

        fes = self.fes
        push, refill, lane, seq_counter = fes.push, fes.refill, fes.lane, fes.seq_counter
        popleft, append = lane.popleft, lane.append
        traced = bool(sinks)
        rows: list = []
        add_row = rows.append
        until_ns = until.ns
        # no run executes sys.maxsize events: no limit
        limit = sys.maxsize if event_limit is None else event_limit
        walks = _Walks()
        executed = 0
        reason = StopReason.EVENT_LIMIT
        t_start = _wallclock.perf_counter()
        try:
            if limit:
                t_ns = refill(until_ns)
                while t_ns is not None:
                    self.now_ns = t_ns
                    if not traced and len(lane) > 1:
                        executed += _walk_trips(fes, walks, trips, t_ns, limit - executed)
                        seq_counter = fes.seq_counter
                    # the lane heads the order: pop it with no compare
                    while lane and executed != limit:
                        _, _, target, gate_label, msg = popleft()
                        gate = target._gates.get(gate_label)
                        while True:
                            if not (traced or lane):
                                # jump the walk from the gate if its end is within the limit
                                walk = walks[None if gate is None or gate.source is target
                                             else gate]
                                steps = walk[1]
                                if steps and executed + steps < limit:
                                    executed += steps
                                    gate = _walk_on(msg, walk)
                                    target, gate_label = gate.owner, gate.label
                            executed += 1
                            if traced:
                                if batch:
                                    add_row((t_ns, target, msg.name, msg.kind_label,
                                             msg._msg_id))
                                for record_event in entries:
                                    record_event(executed, t_ns, target, msg)
                            # none where the target is the gate's source (an Out gate)
                            link = None if gate is None or gate.source is target else gate.relay_to
                            if link is None:
                                try:  # a return that is not a hop to a module fails here too
                                    hop = target.handle_message(msg, gate_label)
                                    if hop is None:
                                        break
                                    nxt, gate_label, msg = hop
                                    gate = nxt._gates.get(gate_label)
                                except Exception as exc:
                                    raise HandlerError(target.full_path, executed, exc) from exc
                                target = nxt
                            else:
                                target, gate_label, gate = link.owner, link.label, link
                                msg.name = (target.packet_name if msg._kind is _PACKET
                                            else target.control_name)
                            if lane:
                                append((t_ns, next(seq_counter), target, gate_label, msg))
                                break
                            if executed == limit:
                                push(t_ns, t_ns, target, gate_label, msg)
                                break
                    if executed == limit:
                        break
                    if traced and len(rows) >= CHUNK_ROWS:
                        _hand_over(batch, executed, rows)
                    t_ns = refill(until_ns)
                else:
                    reason = StopReason.TIME_LIMIT if fes else StopReason.FES_EMPTY
        finally:
            if rows:
                _hand_over(batch, executed, rows)
        wall = _wallclock.perf_counter() - t_start
        return RunSummary(events_executed=executed, final_time=self.now,
                          stop_reason=reason, wall_clock_seconds=wall)
