"""Generator tests: periodic emission, discard-and-regenerate, gating."""

import pytest

from lteadv_sim import CollectingSink, build, parse
from lteadv_sim.kernel import MessageKind, SimTime, SimulationError, Simulator
from lteadv_sim.lte_nodes import NodeType, build_node
from lteadv_sim.model import CompoundModule, UnconnectedGate, UnknownArrivalGate
from lteadv_sim.traffic import (TIMER_NAME, Generator, GeneratorConfig, GeneratorNotConfigured,
                                GeneratorStats)

from conftest import MINIMAL_SOURCE, run_spec


def minimal_with_generator_block(block):
    return parse(MINIMAL_SOURCE.replace("generator on ue { period 10ms; }", block)).spec


def test_config_defaults():
    cfg = GeneratorConfig()
    assert cfg.period == SimTime.from_millis(10)
    assert cfg.start_time == SimTime(0)
    assert cfg.payload_kind is MessageKind.CONTROL_MESSAGE
    assert cfg.payload_bytes == 0


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        GeneratorConfig(period=SimTime(0))
    with pytest.raises(ValueError):
        GeneratorConfig(payload_bytes=100)  # control messages carry no bytes
    with pytest.raises(ValueError, match="^payload bytes must be non-negative$"):
        GeneratorConfig(payload_kind=MessageKind.PACKET, payload_bytes=-1)


@pytest.mark.parametrize("field, value", [("period", 5), ("start_time", 3),
                                          ("payload_kind", "cPacket"),
                                          ("payload_bytes", 1.5), ("payload_bytes", True)])
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    """A run trusts the config's types, so each is checked when it is made."""
    kwargs = {"payload_kind": MessageKind.PACKET, field: value}
    with pytest.raises(TypeError, match=f"generator {field} must be"):
        GeneratorConfig(**kwargs)


def test_first_emission_is_event_one_at_nas(minimal_spec):
    records, summary, built = run_spec(minimal_spec, until=SimTime(1))
    first = records[0]
    assert first.event_no == 1
    assert first.t_ns == 0
    assert first.path == "Network.ue.lte_nas"
    assert first.msg_name == "NASMsg"


def test_packet_payload_emits_nas_pck():
    spec = minimal_with_generator_block(
        "generator on ue { period 10ms; payload packet 1500; }")
    records, summary, built = run_spec(spec, until=SimTime(1))
    first = records[0]
    assert first.msg_name == "NASPck"
    assert first.msg_kind == "cPacket"


def test_emissions_at_zero_and_ten_ms(minimal_spec):
    records, _, _ = run_spec(minimal_spec, until=SimTime.from_millis(20))
    # NAS is visited twice per trip (outbound and return), both at the
    # trip's timestamp: two trips at exactly 0 and 0.01 s
    nas_visits = [r.t_ns for r in records
                  if r.path == "Network.ue.lte_nas" and r.msg_name == "NASMsg"]
    assert nas_visits == [0, 0, 10_000_000, 10_000_000]


def test_return_schedules_next_emission_one_period_later(minimal_spec):
    records, _, built = run_spec(minimal_spec, until=SimTime.from_millis(11))
    gen_events = [r for r in records if r.path == "Network.ue.generator"]
    # return of trip 1 at t=0, then the timer and the next trip at t=10 ms
    assert gen_events[0].msg_name == "GenMsg" and gen_events[0].t_ns == 0
    assert gen_events[1].msg_name == "GenTimer" and gen_events[1].t_ns == 10_000_000


def test_returned_and_next_emitted_ids_differ(minimal_spec):
    records, _, _ = run_spec(minimal_spec, until=SimTime.from_millis(11))
    returned = next(r for r in records if r.msg_name == "GenMsg")
    second_emission = next(r for r in records
                           if r.msg_name == "NASMsg" and r.t_ns == 10_000_000)
    assert returned.msg_id != second_emission.msg_id


def test_hundred_trips_in_one_second(minimal_spec):
    """Arithmetic oracle: floor((until-1ns)/period)+1 emissions."""
    until, period = 1_000_000_000, 10_000_000
    expected = (until - 1) // period + 1
    assert expected == 100
    records, summary, built = run_spec(minimal_spec)
    stats = built.nodes["ue"].generator.stats
    assert stats.emitted == 100
    assert stats.discarded == 100
    assert stats.returned == 100


def test_start_time_offsets_emissions():
    spec = minimal_with_generator_block(
        "generator on ue { period 10ms; start 5ms; }")
    records, _, built = run_spec(spec, until=SimTime.from_millis(30))
    nas_visits = [r.t_ns for r in records if r.path == "Network.ue.lte_nas"]
    assert nas_visits[0] == 5_000_000  # first emission at the start offset
    stats = built.nodes["ue"].generator.stats
    assert stats.emitted == 3  # 5, 15, 25 ms


def test_at_most_one_message_in_flight(minimal_spec):
    records, _, built = run_spec(minimal_spec)
    stats = built.nodes["ue"].generator.stats
    assert stats.emitted - stats.discarded in (0, 1)
    assert stats.emitted - stats.discarded == 0  # clean end under zero delays
    # serialization: data msg ids never interleave in the trace
    data = [r.msg_id for r in records if r.msg_name != "GenTimer"]
    blocks = []
    for mid in data:
        if not blocks or blocks[-1] != mid:
            blocks.append(mid)
    assert blocks == sorted(set(data))


def test_emission_timestamps_are_multiples_of_period(minimal_spec):
    records, _, _ = run_spec(minimal_spec)
    emissions = [r.t_ns for r in records
                 if r.path == "Network.ue.lte_nas" and r.msg_name == "NASMsg"]
    # NAS sees each trip twice (outbound, return); both share the trip stamp
    assert all(t % 10_000_000 == 0 for t in emissions)
    assert sorted(set(emissions)) == [k * 10_000_000 for k in range(100)]


def test_generator_stats_dataclass():
    stats = GeneratorStats()
    assert (stats.emitted, stats.returned, stats.discarded) == (0, 0, 0)


def test_an_enabled_generator_with_nothing_below_is_an_unconnected_gate():
    """Its first emission fails at the run's start, and a direct `emit`
    fails too; neither makes a message."""
    for start in (lambda sim, gen: sim.run(until=SimTime(1)), lambda sim, gen: gen.emit()):
        root = CompoundModule("Network")
        gen = root.add_child(Generator(config=GeneratorConfig()))
        sim = Simulator(root)
        with pytest.raises(UnconnectedGate,
                           match=r"^Network\.generator\.outToLowerLayer is not connected$"):
            start(sim, gen)
        assert (gen.stats.emitted, sim._next_msg_id, len(sim.fes)) == (0, 1, 0)


@pytest.mark.parametrize("traced", [False, True])
def test_an_inert_generator_discards_a_timer(traced):
    """A timer delivered to a generator built with no config is counted and
    discarded: nothing is emitted, with or without a sink watching, nor
    by a direct call before any run. An unknown label is still refused."""
    root = CompoundModule("Network")
    ue = root.add_child(build_node(NodeType.UE, "ue", generator=Generator()))
    sim = Simulator(root)
    sim.fes.push(0, 0, ue.generator, "self",
                 sim.new_message(TIMER_NAME, MessageKind.CONTROL_MESSAGE))
    sinks = [CollectingSink()] if traced else []
    summary = sim.run(until=SimTime(10), sinks=sinks)
    assert ue.generator.stats == GeneratorStats(0, 0, 1)
    assert summary.events_executed == 1
    assert (sim._next_msg_id, len(sim.fes)) == (2, 0)
    if traced:
        assert [(r.path, r.msg_name) for r in sinks[0].records] == [
            ("Network.ue.generator", TIMER_NAME)]
    with pytest.raises(UnknownArrivalGate):
        ue.generator.handle_message(sim.new_message("m", MessageKind.CONTROL_MESSAGE), "bogus")
    unbound = Generator()
    assert unbound.handle_message(None, "self") is None
    assert unbound.stats == GeneratorStats(0, 0, 1)



def test_emit_on_an_inert_generator_says_it_has_no_config():
    """A generator built with no config never emits: a direct `emit` on a
    bound one fails with an error that names it and says so, and makes no
    message."""
    root = CompoundModule("Network")
    ue = root.add_child(build_node(NodeType.UE, "ue", generator=Generator()))
    sim = Simulator(root)
    assert issubclass(GeneratorNotConfigured, SimulationError)
    with pytest.raises(GeneratorNotConfigured,
                       match=r"^Network\.ue\.generator: generator has no config"):
        ue.generator.emit()
    assert (ue.generator.stats, sim._next_msg_id, len(sim.fes)) == (GeneratorStats(), 1, 0)
