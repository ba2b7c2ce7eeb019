import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import engine

from lteadv_sim import CollectingSink, Gate, build, parse
from lteadv_sim.kernel import MAX_TIME_NS

# A deeper search for CI (`--hypothesis-profile=ci`); tests that set their
# own max_examples keep it. The default profile is left as it is.
settings.register_profile("ci", max_examples=2000, deadline=None)

# Stop shrinking a failing example after 60 s (hypothesis allows 300 s
# and documents this constant as the one to patch), so a failing
# network_specs() property reports within about two minutes. The number
# of examples and what they draw are unchanged.
engine.MAX_SHRINKING_SECONDS = 60

# The smallest interesting network: one of each node, generator on the UE,
# zero delays everywhere.
MINIMAL_SOURCE = """\
network Network {
    ue ue;
    enb enb;
    sgw_mme sgw_mme;
    pdn_gw pdn_gw;
    attach ue -> enb;
    generator on ue { period 10ms; }
    run until 1s;
}
"""

# Four UEs split over two eNBs, shared core.
MULTI_UE_SOURCE = """\
network Network {
    ue ue[4];
    enb enb[2];
    sgw_mme sgw_mme;
    pdn_gw pdn_gw;
    attach ue[0..1] -> enb[0];
    attach ue[2..3] -> enb[1];
    generator on ue[*] { period 10ms; }
    run until 1s;
}
"""


@pytest.fixture
def minimal_spec():
    result = parse(MINIMAL_SOURCE)
    assert result.ok, result.diagnostics
    return result.spec


@pytest.fixture
def multi_ue_spec():
    result = parse(MULTI_UE_SOURCE)
    assert result.ok, result.diagnostics
    return result.spec


def run_spec(spec, until=None, event_limit=None):
    """Build and run a spec, returning (records, summary, built network)."""
    built = build(spec)
    sim = built.simulator()
    sink = CollectingSink()
    summary = sim.run(until=until if until is not None else spec.until,
                      event_limit=event_limit, sinks=[sink])
    return sink.records, summary, built


def pop_entry(fes):
    """Pop the earliest `(t_ns, seq, target, gate_label, msg)` entry of a
    FutureEventSet, or return None when it is empty."""
    return next(fes.pop_before(MAX_TIME_NS + 1), None)


def gate_state(*modules):
    """Every gate table of `modules`, in order: each entry's label, the
    gate itself and every field of the gate."""
    return [(label, gate, *(getattr(gate, field) for field in Gate.__slots__))
            for module in modules for label, gate in module._gates.items()]


def bench_workloads():
    """The benchmark's workload generators, name -> text for a seed,
    loaded from their file."""
    path = Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GENERATORS
