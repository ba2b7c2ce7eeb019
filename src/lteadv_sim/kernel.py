"""Deterministic discrete-event kernel.

Simulation clock, future event set with stable FIFO tie-breaking, message
identity allocation, and the run loop. Time is integer nanoseconds
throughout; there is no floating point anywhere on the event path, so two
runs of the same network produce byte-identical traces.
"""

from __future__ import annotations

import enum
import itertools
import time as _wallclock
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterator, Optional, Sequence

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
        super().__init__(f"event #{event_no} at {module_path}: {cause}")
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
        return "Msg" if self is MessageKind.CONTROL_MESSAGE else "Pck"


_PACKET = MessageKind.PACKET


class SimMessage:
    """The unit flowing through layers.

    The name may be rewritten as layers relay the message; identity (msgId),
    kind, byte length and creation time are fixed at creation. Messages also
    carry a private route stack used by fan-in points (air hops, the S-GW S1
    module) to send replies back the way they came without any handler
    keeping cross-event state.
    """

    __slots__ = ("_msg_id", "name", "_kind", "kind_label", "_byte_length",
                 "_created_ns", "_route")

    def __init__(self, msg_id: int, name: str, kind: MessageKind,
                 byte_length: int, creation_time: SimTime | int):
        """`creation_time` is a SimTime or, from the simulator, its
        integer-nanosecond clock."""
        if byte_length < 0:
            raise ValueError("byte length must be non-negative")
        if kind is MessageKind.CONTROL_MESSAGE and byte_length != 0:
            raise ValueError("control messages carry no payload bytes")
        self._msg_id = msg_id
        self.name = name
        self._kind = kind
        self.kind_label = kind.value
        self._byte_length = byte_length
        self._created_ns = (creation_time if isinstance(creation_time, int)
                            else creation_time.ns)
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

    def push_route(self, waypoint) -> None:
        self._route.append(waypoint)

    def pop_route(self):
        if not self._route:
            return None
        return self._route.pop()

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
    seed: int = 0


class FutureEventSet:
    """Pending events ordered by (fire time, insertion sequence).

    Pop order is nondecreasing in fire time; events with equal fire time
    come out strictly FIFO, so simultaneous events never reorder between
    runs. Entries are plain `(t_ns, seq, target, gate_label, msg)` tuples.

    The FES is a FIFO lane that holds one time bucket, every entry due at
    `lane_ns`, in increasing `seq`, and a binary heap of the entries due
    later. When the lane is empty, `refill` moves every heap entry due at
    the heap's earliest time into it, in seq order, and makes that time
    `lane_ns`. `push` appends to the lane whenever `t_ns == lane_ns`, and
    otherwise pushes onto the heap, so the heap never holds an entry due
    at `lane_ns`.

    The lane alone is the head of the order. Heap entries due at t were
    all pushed while now < t, so each has a smaller seq than anything
    pushed at now == t; refill moves them in first, and since seq only
    grows, appends made at now == t come after them. A caller outside a
    run may push with a `now` earlier than `lane_ns`; such a push, due
    before `lane_ns`, first moves the lane back onto the heap, so every
    heap entry is always due after `lane_ns`.

    `lane` and `seq_counter` are public for the run loop, which pops the
    lane directly after `refill`, and appends a hop due now while the lane
    still holds entries, numbered by `next(seq_counter)`: `push` would
    append it the same way, since the lane's entries are due at now.
    Apart from that append, only `push`, `refill` and the pops change
    `lane` and `heap`.
    """

    def __init__(self) -> None:
        self.heap: list = []
        self.lane: deque = deque()
        self.lane_ns = -1  # the fire time of every lane entry; -1: none
        self.seq_counter = itertools.count()  # the one source of insertion seqs

    def __len__(self) -> int:
        return len(self.heap) + len(self.lane)

    def __bool__(self) -> bool:
        return bool(self.heap or self.lane)

    def push(self, t_ns: int, now_ns: int, target, gate_label: str,
             msg: SimMessage) -> int:
        """Schedule `msg` to arrive at `target` on `gate_label` at `t_ns`.

        The one scheduling path of the package: every send, direct
        delivery and self-event ends here, and only the run loop appends
        to the current bucket's lane itself. Returns the insertion sequence
        number that breaks ties between equal fire times.
        """
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
        heappush(heap, (t_ns, seq, target, gate_label, msg))
        return seq

    def refill(self, until_ns: int) -> Optional[int]:
        """Return `lane_ns` if the lane holds entries due before
        `until_ns`, first moving the heap's earliest bucket into an empty
        lane; return None when nothing is due before `until_ns`."""
        lane = self.lane
        if lane:
            return self.lane_ns if self.lane_ns < until_ns else None
        heap = self.heap
        if not heap or heap[0][0] >= until_ns:
            return None
        t_ns = self.lane_ns = heap[0][0]
        while heap and heap[0][0] == t_ns:
            lane.append(heappop(heap))
        return t_ns

    def pop_before(self, until_ns: int) -> Iterator[tuple]:
        """Pop entries in order while the earliest fires before `until_ns`,
        including those pushed while iterating. The one way to pop outside
        a run: `next(fes.pop_before(MAX_TIME_NS + 1), None)` pops the
        earliest entry, or gives None when the set is empty."""
        lane = self.lane
        while self.refill(until_ns) is not None:
            yield lane.popleft()


# The rows `Simulator.run` holds for the batch sinks before it hands them
# over: it hands them over at the first bucket boundary after this many
# are held, at every stop, and before an exception leaves the run, so the
# buffer holds at most this many rows plus one time bucket's.
CHUNK_ROWS = 512


def _event_entry(sink):
    """The per-event call `Simulator.run` makes on a sink with no
    `on_events`, as `entry(event_no, t_ns, module, msg)`: an adapter that
    builds the event's EventRecord and passes it to the sink's `record`,
    before the target handler runs."""
    record = sink.record

    def record_event(event_no: int, t_ns: int, module, msg: SimMessage) -> None:
        # lock_and_number cached the path of every module in the tree; a
        # module outside it computes its own
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


class Simulator:
    """One sequential event loop over a built module tree.

    A simulator owns its clock, its future event set and its message-id
    counter; independent instances share nothing. All operations on a
    running instance happen from inside the loop (module handlers).
    """

    def __init__(self, root, seed: int = 0):
        self.root = root
        self.seed = seed
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

    def run(self, until: SimTime, event_limit: Optional[int] = None,
            sinks: Sequence = ()) -> RunSummary:
        """Dispatch events with fire time strictly below `until`.

        Shows every dispatched event, numbered from 1, to every sink, as
        the message arrived. A sink with `on_events(first_no, rows)` gets
        the events in chunks: one row per event, `(t_ns, module, msg_name,
        msg_kind, msg_id)`, numbered from `first_no`, with the name taken
        when the event is dispatched. The run holds the rows in one list
        and hands it over at a bucket boundary once `CHUNK_ROWS` rows are
        held, at every stop and before any exception leaves the run, such
        as the HandlerError of event k after rows 1..k; the list is
        emptied and reused afterwards. A batch sink sees its rows after
        their handlers ran, so it must read nothing but the rows: not the
        clock, the FES or a message. Any other sink's `record(rec)` is
        called at each event, before the target handler runs, with the
        event's EventRecord (see `_event_entry`). Stops when the FES
        drains, the next event would fire at or past `until`, or
        `event_limit` events have run.

        The loop runs one time bucket at a time: it refills the FES lane
        with every entry due at the earliest time, sets the clock to that
        time, and pops the lane in FIFO order with no compare, since the
        heap holds only later entries.

        A handler may return the zero-delay hop it would otherwise push,
        as `(target, arrival_label, msg)`. An arrival on a gate with a
        relay link (`Gate.relay_to`, set from the forwarding table of the
        gate's module when the run starts) makes the same hop with no
        handler call: the loop renames the message for the linked gate's
        module, by the kind of the message, and moves on to that gate.
        Either way, when the lane is empty, nothing else is due now, so
        the hop is the entry the FES would pop next and is dispatched at
        once as the next event. When the lane still holds entries, the
        hop is appended behind them with the next insertion seq, as
        `push` would do; at the event limit it is pushed. The order of
        events is the same either way.
        """
        if self._ran:
            raise SimulationError("this simulator instance has already run")
        self._ran = True

        self.root.lock_and_number()
        for mod in self._modules:
            mod.on_start(self)

        fes = self.fes
        push, refill, lane, seq_counter = fes.push, fes.refill, fes.lane, fes.seq_counter
        popleft, append = lane.popleft, lane.append
        batch = [sink.on_events for sink in sinks if hasattr(sink, "on_events")]
        entries = [_event_entry(sink) for sink in sinks if not hasattr(sink, "on_events")]
        traced = bool(sinks)
        rows: list = []
        add_row = rows.append
        until_ns = until.ns
        # -1 never equals the count of executed events: no limit
        limit = -1 if event_limit is None else max(event_limit, 0)
        executed = 0
        reason = StopReason.EVENT_LIMIT
        t_start = _wallclock.perf_counter()
        try:
            if limit:
                t_ns = refill(until_ns)
                while t_ns is not None:
                    self.now_ns = t_ns
                    # every entry in the lane is due at t_ns, and nothing
                    # earlier or equal waits in the heap: pop with no compare
                    while lane and executed != limit:
                        _, _, target, gate_label, msg = popleft()
                        gate = target._gates.get(gate_label)
                        while True:
                            executed += 1
                            if traced:
                                if batch:
                                    add_row((t_ns, target, msg.name, msg.kind_label,
                                             msg._msg_id))
                                for record_event in entries:
                                    record_event(executed, t_ns, target, msg)
                            link = None if gate is None else gate.relay_to
                            if link is None:
                                try:
                                    hop = target.handle_message(msg, gate_label)
                                except Exception as exc:
                                    raise HandlerError(target.full_path, executed, exc) from exc
                                if hop is None:
                                    break
                                target, gate_label, msg = hop
                            else:
                                target, gate_label = link.owner, link.label
                                msg.name = (target.packet_name if msg._kind is _PACKET
                                            else target.control_name)
                            if lane:
                                append((t_ns, next(seq_counter), target, gate_label, msg))
                                break
                            if executed == limit:
                                push(t_ns, t_ns, target, gate_label, msg)
                                break
                            gate = target._gates.get(gate_label) if link is None else link
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
                          stop_reason=reason, wall_clock_seconds=wall,
                          seed=self.seed)
