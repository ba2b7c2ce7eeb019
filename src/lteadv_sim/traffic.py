"""Periodic traffic generator.

The generator sits above the UE's top stack layer. It emits one message,
waits for it to come back up the stack, discards it, and schedules the
next emission one period later. Round trips therefore never overlap: the
k+1-th emission is gated on the return of the k-th.

The first emission is sent by `on_start`, through `emit`. Each later one
starts at the timer, whose handler returns the emission as a zero-delay
hop to the top layer, or sends it by `emit` over a delayed channel.

The emission is fixed when the generator starts: the channel down to the
top layer, the payload's name, kind and size, and the period. Changing
`config` or the wiring afterwards does not change a running generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import _CONTROL, _PACKET, MessageKind, SimTime
from .model import (IN_FROM_LOWER, OUT_TO_LOWER, SELF_GATE, Gate, SimpleModule,
                    UnconnectedGate, transmit)

DEFAULT_PERIOD = SimTime.from_millis(10)

# Returning messages arrive named GenMsg / GenPck.
GENERATOR_TAG = "Gen"
_CONTROL_NAME = GENERATOR_TAG + _CONTROL.name_suffix
_PACKET_NAME = GENERATOR_TAG + _PACKET.name_suffix
# Self-event payload name; shows up in traces as an event at the generator.
TIMER_NAME = "GenTimer"


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    period: SimTime = DEFAULT_PERIOD
    start_time: SimTime = SimTime(0)
    payload_kind: MessageKind = MessageKind.CONTROL_MESSAGE
    payload_bytes: int = 0

    def __post_init__(self) -> None:
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


class Generator(SimpleModule):
    """Emits into the stack below; discards returns and re-arms a timer.

    A generator built without a config is inert: it never emits, but still
    counts and discards anything delivered to it, timers included.
    `emit` sends a message down and needs a bound simulator.

    `on_start` fixes the emission from `config` and the wiring, so a later
    change to either does not reach a running generator. A subclass whose
    `on_start` does not call this one's has it fixed at its first `emit`
    or arrival instead.
    """

    def __init__(self, name: str = "generator",
                 config: Optional[GeneratorConfig] = None):
        super().__init__(name, type_name="generator")
        self.config = config
        self.stats = GeneratorStats()
        self.control_name = _CONTROL_NAME
        self.packet_name = _PACKET_NAME
        self.down_gate: Optional[Gate] = None  # toward the stack, set when wired
        self._period_ns: Optional[int] = None  # None until `_freeze`; 0: inert

    @property
    def enabled(self) -> bool:
        return self.config is not None

    def on_start(self, sim) -> None:
        self._freeze()
        if self._period_ns:
            self.emit(at=self.config.start_time)

    def _freeze(self) -> None:
        """Fix the emission: the channel down, the payload's name (the top
        layer's), kind and size, and the period, 0 when inert."""
        cfg = self.config
        self._down = self.down_gate
        self._period_ns = 0 if cfg is None else cfg.period.ns
        if cfg is not None and self._down is not None:
            top = self._down.owner
            self._kind = cfg.payload_kind
            self._name = top.packet_name if self._kind is _PACKET else top.control_name
            self._bytes = cfg.payload_bytes

    def emit(self, at: Optional[SimTime] = None) -> None:
        """Send a fresh message, named for the layer below, down into the
        stack at `at`, or now when it is None; unwired, UnconnectedGate."""
        if self._period_ns is None:
            self._freeze()
        if self._down is None:
            raise UnconnectedGate(f"{self.full_path_or_name()}.{OUT_TO_LOWER} is not connected")
        msg = self.sim._message(self._name, self._kind, self._bytes)
        if at is not None:
            msg._created_ns = at.ns
        transmit(self._down, msg, None if at is None else at.ns)
        self.stats.emitted += 1

    def handle_message(self, msg, arrival_gate: str) -> Optional[tuple]:
        if self._period_ns is None:
            self._freeze()
        if arrival_gate == SELF_GATE:
            if not self._period_ns:  # inert: a timer is counted and discarded
                self.stats.discarded += 1
                return None
            down = self._down
            if down is None or down.delay_ns:
                self.emit()
                return None
            # the emission is a zero-delay hop: hand it to the run loop
            self.stats.emitted += 1
            return down.owner, down.label, self._sim._message(self._name, self._kind, self._bytes)
        if arrival_gate == IN_FROM_LOWER:
            # The round trip ends here: drop the message, arm the next one.
            self.stats.returned += 1
            self.stats.discarded += 1
            if self._period_ns:  # enabled; a run has bound the simulator
                sim = self._sim
                sim.fes.push(sim.now_ns + self._period_ns, sim.now_ns, self, SELF_GATE,
                             sim._message(TIMER_NAME, _CONTROL, 0))
            return None
        raise self.unknown_arrival(arrival_gate)
