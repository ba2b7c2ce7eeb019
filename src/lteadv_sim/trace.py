"""Event observation and analysis.

Three pieces:

* log-line formatting: the classic simulator console format,
  ``** Event #1 T=0 Network.ue.lte_nas (lte_nas, id=4), on `NASMsg' (cMessage, id=1)``,
  rendered from exact integer nanoseconds so timestamps never pick up
  floating-point noise;
* a structured trace: one self-delimiting JSON record per line with a
  fixed field order, byte-identical across runs and parseable back into
  equal EventRecords;
* metrics folded from the events as they arrive, checked by a chain-walk
  oracle that predicts, from the NetworkSpec alone, the exact module path
  and message name sequence of every round trip. The oracle deliberately
  re-declares the default layer tables instead of importing the
  builder's, so a slip on either side surfaces as a mismatch instead of
  agreeing silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO

from .kernel import (MAX_TIME_NS, EventRecord, MessageKind, RunSummary, SimTime,
                     SimulationError, format_seconds)
from .lte_nodes import NodeType
from .netconfig import InstanceTable, NetworkSpec, instance_table
from .traffic import GeneratorConfig


class MalformedTrace(SimulationError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# --------------------------------------------------------------------------
# line formats
#
# One formatter, `_render`, turns a chunk of rows (see `Simulator.run`)
# into lines of either format or both; an EventRecord passes through it
# as a one-row chunk whose module is a `_RecordModule`. A site is the part
# of a line between the time and the message id. Both formats' sites are
# built, escaped, once per (module, message name, message kind) and kept
# in a `_Sites` dict, so a line adds only the event number, time and
# message id. Each trace sink keeps its own dict, and the record-based
# functions share one, since one process may trace several networks
# whose modules share a path or an id. A dict is emptied at _MAX_SITES,
# above every site of a 1000-UE network, to cap what a process keeps.

_MAX_SITES = 16384


class _Sites(dict):
    """(console site, structured site) by (module, message name, message
    kind); a missing pair is built from the module's path, type and id."""

    def __missing__(self, key: tuple) -> tuple[str, str]:
        module, msg_name, msg_kind = key
        if len(self) >= _MAX_SITES:
            self.clear()
        path, type_name, module_id = (module._path or module.full_path,
                                      module.type_name, module.module_id)
        pair = self[key] = (
            f" {path} ({type_name}, id={module_id}), on `{msg_name}' ({msg_kind}, id=",
            f', "path": {_json_str(path)}, "type": {_json_str(type_name)}, '
            f'"module_id": {module_id}, "msg_name": {_json_str(msg_name)}, '
            f'"msg_kind": {_json_str(msg_kind)}, "msg_id": ')
        return pair


class _RecordModule(NamedTuple):
    """The module of a row made from an EventRecord."""

    full_path: str
    type_name: str
    module_id: int
    _path = None  # as on a module with no cached path


def _record_row(rec: EventRecord) -> tuple:
    return (rec.t_ns, _RecordModule(rec.path, rec.type_name, rec.module_id),
            rec.msg_name, rec.msg_kind, rec.msg_id)


def _render(first_no: int, rows, sites: _Sites, paper: Optional[list],
            structured: Optional[list]) -> None:
    """Append the console log line of each row, numbered from `first_no`,
    to `paper` and its structured record to `structured`. Either list may
    be None, which skips its format; one list for both gets each row's two
    lines together. Each number is turned into a string once, for both."""
    # consecutive rows of one trip share a time and a message id, so
    # most lines reuse the strings of the row before
    last_t = secs = t_str = last_id = id_str = None
    for no, (t_ns, module, msg_name, msg_kind, msg_id) in enumerate(rows, first_no):
        console_site, structured_site = sites[module, msg_name, msg_kind]
        if t_ns != last_t:
            last_t, secs, t_str = t_ns, format_seconds(t_ns), str(t_ns)
        if msg_id != last_id:
            last_id, id_str = msg_id, str(msg_id)
        no = str(no)
        if paper is not None:
            paper.append(f"** Event #{no} T={secs}{console_site}{id_str})\n")
        if structured is not None:
            structured.append(
                f'{{"event_no": {no}, "t_ns": {t_str}{structured_site}{id_str}}}\n')


_SITES = _Sites()


def _structured_line(rec: EventRecord) -> str:
    lines: list[str] = []
    _render(rec.event_no, (_record_row(rec),), _SITES, None, lines)
    return lines[0]


def format_event_line(rec: EventRecord) -> str:
    """Render one event in the console log format, without a newline: the
    time as decimal seconds with no trailing zeros and no exponent, the
    message name between a backtick and an apostrophe."""
    lines: list[str] = []
    _render(rec.event_no, (_record_row(rec),), _SITES, lines, None)
    return lines[0][:-1]


def structured_line(rec: EventRecord) -> str:
    """One JSON record with fixed field order, without a newline,
    byte-identical to json.dumps of the fields in that order with
    separators (", ", ": "): strings go through the same ASCII escaper."""
    return _structured_line(rec)[:-1]


# a structured record's keys in EventRecord's field order, with the JSON
# type each must hold and, where that type allows values no run writes,
# a test of the value and what the test asks for
_MSG_KINDS = frozenset(kind.value for kind in MessageKind)
_AT_LEAST_1 = (lambda value: value >= 1, "at least 1")
_RECORD_FIELDS = (
    ("event_no", int, _AT_LEAST_1),
    ("t_ns", int, (lambda value: 0 <= value <= MAX_TIME_NS, f"in 0..{MAX_TIME_NS}")),
    ("path", str, None),
    ("type", str, None),
    ("module_id", int, _AT_LEAST_1),
    ("msg_name", str, None),
    ("msg_kind", str, (lambda value: value in _MSG_KINDS, "cMessage or cPacket")),
    ("msg_id", int, _AT_LEAST_1),
)


def parse_structured_line(line: str, line_no: int = 1) -> EventRecord:
    """Read one structured record back; raise MalformedTrace, with
    `line_no`, for anything a run cannot have written."""
    try:
        pairs = json.loads(line, object_pairs_hook=tuple)  # a JSON object as its pairs
    except ValueError as exc:
        raise MalformedTrace(line_no, f"not a JSON record ({exc})") from None
    if not isinstance(pairs, tuple):
        raise MalformedTrace(line_no, "record is not an object")
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise MalformedTrace(line_no, f"field {twice!r} given twice")
    values = []
    for key, kind, rule in _RECORD_FIELDS:
        if key not in obj:
            raise MalformedTrace(line_no, f"missing field {key!r}")
        value = obj.pop(key)
        if type(value) is not kind:  # a bool is an int to isinstance
            raise MalformedTrace(line_no, f"field {key!r} is not a JSON "
                                          f"{'integer' if kind is int else 'string'}")
        if rule is not None and not rule[0](value):
            raise MalformedTrace(line_no, f"field {key!r} is {value!r}, not {rule[1]}")
        values.append(value)
    if obj:  # what is left is no field of a record
        raise MalformedTrace(line_no, f"unknown field {next(iter(obj))!r}")
    return EventRecord(*values)


def read_structured(lines: Iterable[str]) -> list[EventRecord]:
    records = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            records.append(parse_structured_line(line, line_no))
    return records


def write_structured(records: Iterable[EventRecord], stream: TextIO) -> None:
    for rec in records:
        stream.write(_structured_line(rec))


# --------------------------------------------------------------------------
# sinks

class TraceSink:
    """Writes the console log format to `paper` and the structured trace
    to `structured`, one LF-terminated line per event each; either stream
    may be None. Given one stream for both, it writes each event's console
    line and then its structured record. `on_events(first_no, rows)`
    writes a chunk with one write per stream; `record(rec)` writes one
    EventRecord's lines through the same formatter."""

    def __init__(self, paper: Optional[TextIO] = None,
                 structured: Optional[TextIO] = None):
        self.paper, self.structured = paper, structured
        self._sites = _Sites()

    def on_events(self, first_no: int, rows) -> None:
        paper, structured = self.paper, self.structured
        paper_lines = None if paper is None else []
        structured_lines = (paper_lines if structured is paper
                            else None if structured is None else [])
        _render(first_no, rows, self._sites, paper_lines, structured_lines)
        if paper is not None:
            paper.write("".join(paper_lines))
        if structured is not None and structured is not paper:
            structured.write("".join(structured_lines))

    def record(self, rec: EventRecord) -> None:
        self.on_events(rec.event_no, (_record_row(rec),))


class PaperTraceSink(TraceSink):
    """Writes the console log format, one LF-terminated line per event."""

    def __init__(self, stream: TextIO):
        super().__init__(paper=stream)

    # an attribute of each sink class, which bench/layers.py times
    record = TraceSink.record


class StructuredTraceSink(TraceSink):
    """Writes the structured trace, one JSON record per line."""

    def __init__(self, stream: TextIO):
        super().__init__(structured=stream)

    record = TraceSink.record


class CollectingSink:
    """Keeps every EventRecord in memory, for tests and callers that need
    the records themselves; metrics stream through MetricsSink instead."""

    def __init__(self):
        self.records: list[EventRecord] = []

    def record(self, rec: EventRecord) -> None:
        self.records.append(rec)


# --------------------------------------------------------------------------
# chain-walk oracle

# Independent copies of the default stacks (top to bottom as (tag, module)),
# on purpose: see the module docstring.
_ORACLE_CHAINS = {
    NodeType.UE: (("NAS", "lte_nas"), ("RRC", "lte_rrc"), ("PDCP", "lte_pdcp"),
                  ("RLC", "lte_rlc"), ("MAC", "lte_mac"), ("PHY", "lte_phy")),
    NodeType.ENB: (("GTP", "lte_gtp"), ("RRC", "lte_rrc"), ("PDCP", "lte_pdcp"),
                   ("RLC", "lte_rlc"), ("MAC", "lte_mac"), ("PHY", "lte_phy")),
    NodeType.SGW_MME: (("S5", "lte_s5"), ("GTP", "lte_gtp"), ("S1", "lte_s1")),
    NodeType.PDN_GW: (("IP", "lte_ip"), ("GTP", "lte_gtp"), ("S5", "lte_s5")),
}
_SUFFIX = {MessageKind.CONTROL_MESSAGE: "Msg", MessageKind.PACKET: "Pck"}
_RADIO_MODULE = "lte_radio"
_GENERATOR_MODULE = "generator"
_GENERATOR_TAG = "Gen"
_TIMER_NAME = "GenTimer"


def _oracle_chain(spec: NetworkSpec, kind: NodeType) -> tuple:
    override = spec.chain_overrides.get(kind)
    if override is None:
        return _ORACLE_CHAINS[kind]
    return tuple((layer.tag, layer.module_name) for layer in override)


def ue_instances(spec: NetworkSpec) -> list[str]:
    return instance_table(spec).ues


def generator_on(spec: NetworkSpec, ue_instance: str) -> Optional[GeneratorConfig]:
    return instance_table(spec).generator_of.get(ue_instance)


def data_walk(spec: NetworkSpec, ue_instance: str) -> list[tuple[str, str]]:
    """Expected (module path, message name) sequence of one round trip,
    from the NetworkSpec alone: down the UE stack, across the air into the
    eNB, up through the S-GW/MME into the PDN-GW, around the reflector, and
    back along the exact reverse, ending at the generator when the UE has
    one."""
    return _walk(spec, instance_table(spec), ue_instance)


def _walk(spec: NetworkSpec, table: InstanceTable,
          ue_instance: str) -> list[tuple[str, str]]:
    root = spec.network_name
    cfg = table.generator_of.get(ue_instance)
    sfx = _SUFFIX[cfg.payload_kind] if cfg is not None else _SUFFIX[MessageKind.CONTROL_MESSAGE]
    enb_instance = table.enb_of.get(ue_instance)
    if enb_instance is None:
        raise ValueError(f"{ue_instance!r} is not attached to an enb")
    sgw, pdn = table.sgw, table.pdn
    if sgw is None or pdn is None:
        raise ValueError("spec has no sgw_mme or no pdn_gw instance")
    ue_chain = _oracle_chain(spec, NodeType.UE)
    enb_chain = _oracle_chain(spec, NodeType.ENB)
    sgw_chain = _oracle_chain(spec, NodeType.SGW_MME)
    pdn_chain = _oracle_chain(spec, NodeType.PDN_GW)

    walk: list[tuple[str, str]] = []

    def hop(node: str, module: str, tag: str) -> None:
        walk.append((f"{root}.{node}.{module}", tag + sfx))

    # uplink: down the UE stack, each layer entered under its own tag
    for tag, module in ue_chain:
        hop(ue_instance, module, tag)
    # air hop: named for the eNB's PHY before it reaches the radio, which
    # hands it on under the same name, so radio and PHY both see that name
    enb_phy_tag, enb_phy_module = enb_chain[-1]
    hop(enb_instance, _RADIO_MODULE, enb_phy_tag)
    hop(enb_instance, enb_phy_module, enb_phy_tag)
    for tag, module in reversed(enb_chain[:-1]):
        hop(enb_instance, module, tag)
    for tag, module in reversed(sgw_chain):
        hop(sgw, module, tag)
    for tag, module in reversed(pdn_chain):
        hop(pdn, module, tag)
    # reflected at the PDN-GW top, back down in the same event
    for tag, module in pdn_chain[1:]:
        hop(pdn, module, tag)
    for tag, module in sgw_chain:
        hop(sgw, module, tag)
    for tag, module in enb_chain:
        hop(enb_instance, module, tag)
    ue_phy_tag, ue_phy_module = ue_chain[-1]
    hop(ue_instance, _RADIO_MODULE, ue_phy_tag)
    hop(ue_instance, ue_phy_module, ue_phy_tag)
    for tag, module in reversed(ue_chain[:-1]):
        hop(ue_instance, module, tag)
    if cfg is not None:
        hop(ue_instance, _GENERATOR_MODULE, _GENERATOR_TAG)
    return walk


def timer_hop(spec: NetworkSpec, ue_instance: str) -> tuple[str, str]:
    """The single-event path of a generator's re-arm timer."""
    return (f"{spec.network_name}.{ue_instance}.{_GENERATOR_MODULE}", _TIMER_NAME)


def zero_delay_emissions(until: SimTime, period: SimTime,
                         start: SimTime = SimTime(0)) -> int:
    """Emissions of one generator in an exclusive-[0, until) zero-delay run."""
    if until.ns <= start.ns:
        return 0
    return (until.ns - 1 - start.ns) // period.ns + 1


def expected_event_total(spec: NetworkSpec) -> int:
    """Total events of a full zero-delay run of the spec. Per generator:
    one walk per round trip plus one timer event between consecutive trips
    (the first trip is primed at start, not timed in). Exact only when
    every channel delay is zero, which is how the default fixtures are
    wired."""
    if spec.until is None:
        raise ValueError("spec has no run-until time")
    table = instance_table(spec)
    total = 0
    for ue in table.ues:
        cfg = table.generator_of.get(ue)
        if cfg is None:
            continue
        trips = zero_delay_emissions(spec.until, cfg.period, cfg.start_time)
        if trips:
            total += trips * len(_walk(spec, table, ue)) + (trips - 1)
    return total


# --------------------------------------------------------------------------
# metrics

@dataclass
class Metrics:
    total_events: int = 0
    round_trips: int = 0
    per_message_hops: dict = field(default_factory=dict)   # msg_id -> event count
    per_message_rtt: dict = field(default_factory=dict)    # msg_id -> SimTime
    drops: dict = field(default_factory=dict)              # module path -> count
    events_per_wall_second: Optional[float] = None
    path_mismatches: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "total_events": self.total_events,
            "round_trips": self.round_trips,
            "per_message_hops": {str(k): v for k, v in self.per_message_hops.items()},
            "per_message_rtt_ns": {str(k): v.ns for k, v in self.per_message_rtt.items()},
            "drops": dict(self.drops),
            "events_per_wall_second": self.events_per_wall_second,
            "path_mismatches": list(self.path_mismatches),
        }


class MetricsSink:
    """Folds events into Metrics as they arrive, holding no EventRecord:
    `on_events` folds a chunk of rows in one pass (`summarize` folds
    records).

    Each message keeps one entry, `[walk, hops, mismatch, t_first,
    t_last]`: the oracle walk its first hop starts (None when none does),
    the hops seen so far, which is also the cursor into the walk, the first
    hop that left the walk as `(index, (path, name))` (for a message no
    walk starts, its first hop), and its first and last event times.

    `finish` reads each message's outcome off its entry, in first-seen
    `msg_id` order: the full walk is a round trip, or a drop at the top of
    the stack on a UE with no generator; a prefix of it is in flight; a
    lone generator re-arm timer hop is not checked; anything else is a path
    mismatch.
    """

    def __init__(self, spec: NetworkSpec):
        table = instance_table(spec)
        self._walks: dict[tuple[str, str], tuple] = {}  # by first hop
        self._drop_paths: dict[tuple[str, str], Optional[str]] = {}
        self._timer_hops: set[tuple[str, str]] = set()
        for ue in table.ues:
            try:
                walk = tuple(_walk(spec, table, ue))
            except ValueError:
                continue
            # on a first hop two walks share, the later UE's walk wins
            self._walks[walk[0]] = walk
            self._drop_paths[walk[0]] = (
                None if ue in table.generator_of else walk[-1][0])
            self._timer_hops.add(timer_hop(spec, ue))
        self._messages: dict[int, list] = {}

    def on_events(self, first_no: int, rows) -> None:
        messages, walks = self._messages, self._walks
        for t_ns, module, msg_name, _, msg_id in rows:
            entry = messages.get(msg_id)
            if entry is None:
                hop = (module._path or module.full_path, msg_name)
                walk = walks.get(hop)
                messages[msg_id] = [walk, 1, hop if walk is None else None, t_ns, t_ns]
                continue
            hops = entry[1]
            entry[1] = hops + 1
            entry[4] = t_ns
            # a message no walk starts has its first hop in entry[2]
            if entry[2] is None and hops < len(entry[0]):
                path, name = entry[0][hops]
                if name != msg_name or path != (module._path or module.full_path):
                    entry[2] = (hops, (module._path or module.full_path, msg_name))

    def finish(self, run_summary: Optional[RunSummary] = None) -> Metrics:
        metrics = Metrics()
        mismatches = metrics.path_mismatches
        for msg_id, (walk, hops, mismatch, t_first, t_last) in self._messages.items():
            metrics.total_events += hops
            metrics.per_message_hops[msg_id] = hops
            if walk is None:
                # a lone timer hop lands here: walk names end in Msg or Pck
                if hops != 1 or mismatch not in self._timer_hops:
                    mismatches.append(f"msg {msg_id}: unexpected first hop {mismatch!r}")
            elif mismatch is not None:
                i, got = mismatch
                mismatches.append(f"msg {msg_id}: hop {i} is {got!r}, expected {walk[i]!r}")
            elif hops > len(walk):
                mismatches.append(f"msg {msg_id}: {hops} hops, expected {len(walk)}")
            elif hops == len(walk):
                drop_path = self._drop_paths[walk[0]]
                if drop_path is None:
                    metrics.round_trips += 1
                    metrics.per_message_rtt[msg_id] = SimTime(t_last - t_first)
                else:
                    metrics.drops[drop_path] = metrics.drops.get(drop_path, 0) + 1
            # else: in flight when the run stopped

        if run_summary is not None and run_summary.wall_clock_seconds > 0:
            metrics.events_per_wall_second = (
                metrics.total_events / run_summary.wall_clock_seconds)
        return metrics


def summarize(records: Sequence[EventRecord], spec: NetworkSpec,
              run_summary: Optional[RunSummary] = None) -> Metrics:
    """Reduce a trace to metrics and check every message against the oracle:
    the MetricsSink fold, run over records already collected."""
    sink = MetricsSink(spec)
    sink.on_events(1, [_record_row(rec) for rec in records])
    return sink.finish(run_summary)
