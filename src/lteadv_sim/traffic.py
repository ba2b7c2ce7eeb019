"""Periodic traffic generator.

The generator sits above the UE's top stack layer. It emits one message,
waits for it to come back up the stack, discards it, and schedules the
next emission one period later. Round trips therefore never overlap: the
k+1-th emission is gated on the return of the k-th.

The first emission is sent by `on_start`, through `emit`. Each later one
starts at the timer, whose handler returns the emission as a zero-delay
hop to the top layer, or sends it by `emit` over a delayed channel.

A run calls the handler at every timer and return. With no sink, it
makes a time bucket of trips of generators whose handler is the stock
one, `Generator.handle_message`, whole at once, calling that handler
itself. Such a generator re-issues spent timers and payloads of its own,
which no module can still hold, as new messages, with the next id and
the clock as creation time. `lteadv_sim.kernel` tells how (*Trip walks*,
*Spent messages*).

The emission is fixed at the first `emit`, or when the run starts: the
channel down to the top layer, the payload's name, kind and size, and
the period. Changing `config` or the wiring afterwards does not change a
running generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import _CONTROL, _PACKET, MessageKind, SimTime, SimulationError
from .model import (IN_FROM_LOWER, OUT_TO_LOWER, SELF_GATE, Gate, SimpleModule,
                    UnconnectedGate, transmit)

DEFAULT_PERIOD = SimTime.from_millis(10)

# Returning messages arrive named GenMsg / GenPck.
GENERATOR_TAG = "Gen"
# Self-event payload name; shows up in traces as an event at the generator.
TIMER_NAME = "GenTimer"


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    period: SimTime = DEFAULT_PERIOD
    start_time: SimTime = SimTime(0)
    payload_kind: MessageKind = MessageKind.CONTROL_MESSAGE
    payload_bytes: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.period, SimTime):
            raise TypeError(f"generator period must be a SimTime, got {self.period!r}")
        if not isinstance(self.start_time, SimTime):
            raise TypeError(f"generator start_time must be a SimTime, got {self.start_time!r}")
        if not isinstance(self.payload_kind, MessageKind):
            raise TypeError(
                f"generator payload_kind must be a MessageKind, got {self.payload_kind!r}")
        if not isinstance(self.payload_bytes, int) or isinstance(self.payload_bytes, bool):
            raise TypeError(f"generator payload_bytes must be an int, got {self.payload_bytes!r}")
        if self.period.ns <= 0:
            raise ValueError("generator period must be positive")
        if self.payload_kind is MessageKind.CONTROL_MESSAGE and self.payload_bytes:
            raise ValueError("control-message payload carries no bytes")
        if self.payload_bytes < 0:
            raise ValueError("payload bytes must be non-negative")


@dataclass(slots=True)
class GeneratorStats:
    emitted: int = 0
    returned: int = 0
    discarded: int = 0


class GeneratorNotConfigured(SimulationError):
    """`Generator.emit` on a generator built with no config."""


class Generator(SimpleModule):
    """Emits into the stack below; discards returns and re-arms a timer.

    A generator built without a config is inert: it never emits, but still
    counts and discards anything delivered to it, timers included.
    `emit` sends a message down and needs a bound simulator.

    The emission is fixed from `config` and the wiring at the first
    `emit`, which `on_start` makes, or when the run starts, after every
    `on_start`; a later change to either does not reach a running
    generator.
    """

    # the names a message takes on arriving here, per kind
    control_name = GENERATOR_TAG + _CONTROL.name_suffix
    packet_name = GENERATOR_TAG + _PACKET.name_suffix

    def __init__(self, name: str = "generator",
                 config: Optional[GeneratorConfig] = None):
        super().__init__(name, type_name="generator")
        self.config = config
        self.stats = GeneratorStats()
        self.down_gate: Optional[Gate] = None  # toward the stack, set when wired
        self._period_ns: Optional[int] = None  # None until `_freeze`; 0: inert
        self._down: Optional[Gate] = None  # the channel down, set by `_freeze`
        self._reuses = False  # whether it re-issues spent messages; set by `_trip`
        self._timer = None  # the timer it pushed last, when it re-issues
        self._spent = None  # that timer, from its arrival to the next return
        self._payload = None  # a spent payload, left by a whole lane of trips

    def on_start(self, sim) -> None:
        if self.config is not None:
            self.emit(at=self.config.start_time)

    def _freeze(self) -> None:
        """Fix the emission: the channel down, None when inert, the
        payload's name (the top layer's), kind and size, and the period,
        0 when inert."""
        cfg = self.config
        self._period_ns = 0 if cfg is None else cfg.period.ns
        self._down = None if cfg is None else self.down_gate
        if self._down is not None:
            top = self._down.owner
            self._kind = cfg.payload_kind
            self._name = top.packet_name if self._kind is _PACKET else top.control_name
            self._bytes = cfg.payload_bytes

    def emit(self, at: Optional[SimTime] = None) -> None:
        """Send a fresh message, named for the layer below, down into the
        stack at `at`, or now when it is None. Raises GeneratorNotConfigured
        for an inert generator, and UnconnectedGate when nothing is below."""
        if self._period_ns is None:
            self._freeze()
        if not self._period_ns:
            raise GeneratorNotConfigured(
                f"{self.full_path_or_name()}: generator has no config, so it never emits")
        if self._down is None:
            raise UnconnectedGate(f"{self.full_path_or_name()}.{OUT_TO_LOWER} is not connected")
        msg = self.sim._message(self._name, self._kind, self._bytes)
        if at is not None:
            msg._created_ns = at.ns
        transmit(self._down, msg, None if at is None else at.ns)
        self.stats.emitted += 1

    def handle_message(self, msg, arrival_gate: str) -> Optional[tuple]:
        """At the timer, the emission, counted and returned as a zero-delay
        hop to the top layer or sent by `emit` over a delayed channel; at
        the return, the count and, with a config, the next timer's push.
        Reads the emission as fixed; of `msg`, only whether it is the
        timer it pushed last, which it then re-issues (the module note)."""
        if arrival_gate == SELF_GATE:
            down = self._down
            if down is None or down.delay_ns:
                if self._period_ns:
                    self.emit()
                else:  # inert: a timer is counted and discarded
                    self.stats.discarded += 1
                return None
            if msg is self._timer:
                self._spent = msg
            self.stats.emitted += 1
            sim = self._sim
            payload, self._payload = self._payload, None
            if payload is None:
                return down.owner, down.label, sim._message(self._name, self._kind, self._bytes)
            payload._msg_id = sim._next_msg_id
            sim._next_msg_id += 1
            payload._created_ns = sim.now_ns
            payload.name = self._name
            return down.owner, down.label, payload
        if arrival_gate == IN_FROM_LOWER:
            # The round trip ends here: drop the message, arm the next one.
            self.stats.returned += 1
            self.stats.discarded += 1
            if self._period_ns:  # a config; a run has bound the simulator
                sim = self._sim
                timer, self._spent = self._spent, None
                if timer is None:
                    timer = sim._message(TIMER_NAME, _CONTROL, 0)
                    if self._reuses:
                        self._timer = timer
                else:
                    timer._msg_id = sim._next_msg_id
                    sim._next_msg_id += 1
                    timer._created_ns = sim.now_ns
                sim.fes.push(sim.now_ns + self._period_ns, sim.now_ns, self, SELF_GATE, timer)
            return None
        raise self.unknown_arrival(arrival_gate)

    _trip_handler = handle_message  # the stock handler, which whole trips call

    def _trip(self) -> Optional[tuple]:
        """Fix the emission, unless `emit` has, and return `(channel down,
        In gate from below, period in ns)` when a run with no sink may make
        this generator's trips whole (`lteadv_sim.kernel`, *Trip walks*):
        its handler is the stock one, and it has a config and sends down with
        no delay; such a generator then re-issues its spent messages (the
        module note). None otherwise. A run calls it once, after every
        `on_start`."""
        if self._period_ns is None:
            self._freeze()
        down = self._down
        if down is None or down.delay_ns or self.handle_message != self._trip_handler:
            return None
        self._reuses = True
        return down, self._gates.get(IN_FROM_LOWER), self._period_ns
