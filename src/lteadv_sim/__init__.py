"""Deterministic discrete-event simulator for an LTE-Advanced
protocol-stack skeleton: composable UE / eNB / S-GW-MME / PDN-GW nodes
whose layers relay and rename messages, a periodic traffic generator, a
topology description language, and exact event tracing."""

from .kernel import (EventRecord, FutureEventSet, HandlerError, MessageKind,
                     RunSummary, SchedulingInPast, SimMessage, SimTime,
                     SimTimeRangeError, SimulationError, Simulator, StopReason)
from .model import (ChannelSpec, CompoundModule, Direction, Gate, ModuleNode,
                    SimpleModule, UnknownArrivalGate, connect, send, send_direct)
from .lte_nodes import (LayerSpec, NodeType, NoRadioPeer, attach_ue, build_node,
                        link_enb_to_sgw, link_sgw_to_pdn)
from .traffic import Generator, GeneratorConfig, GeneratorStats
from .netconfig import (BuiltNetwork, InvalidNetworkSpec, NetworkSpec,
                        ParseDiagnostic, ParseResult, Selector,
                        build, format_spec, parse, parse_duration, validate)
from .trace import (CollectingSink, MalformedTrace, Metrics, MetricsSink,
                    PaperTraceSink, StructuredTraceSink, TraceSink, data_walk,
                    expected_event_total, format_event_line, read_structured,
                    structured_line, summarize, write_structured,
                    zero_delay_emissions)

__version__ = "0.1.0"
