"""Golden traces: sha256 digests of the paper and structured traces of
four fixed runs, two runs with non-default stacks, and five runs stopped
by an event limit.

Any change to the kernel, the model or the layers must leave these traces
byte for byte identical. After a deliberate change to the trace format,
print the new table with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import io
from pathlib import Path

import pytest

from lteadv_sim import (LayerSpec, NodeType, PaperTraceSink, StructuredTraceSink,
                        build, parse)

FIXTURES = Path(__file__).parent / "fixtures"

# fixture -> (events, paper trace sha256, structured trace sha256)
GOLDEN = {
    "minimal.net": (3899,
        "db98200475afb39873f7a76dc93a863eb0a71d7d5d009657ac7bda440996b27b",
        "4d11feb151311039b260e421c2c9bd84d2d48995d4e890b0b2469bc339424c5c"),
    "multi_ue.net": (15596,
        "70a14b952de35e33949d5876be83acbe18ce16bbce4010d638c777e178ff0453",
        "51acb4b48bd401234a0ac4b141d5a75722ecb52f8b7572515cf0f73d9288c8d7"),
    "delayed.net": (4674,
        "b28100787d45935fa5eacabd8b69059eb3643f638853bacb935a51d42c174f24",
        "99a9b59a6ea165f8d20c2ae68c5a20c595fbffd9b4290a8c0aaeb8c2ab7f59a6"),
    "desk_50ms.net": (19400,
        "da0177a537e0530f0b34c67f01034788caff74f62c1827d049f47de0f866ff5a",
        "7247b57a552592cb06dc811d7b4fb9a1a72340ab88c0cf467be6ebdbc341ec0a"),
}


def run_traced(fixture, chain_overrides=None):
    """Run a fixture, with its stacks replaced by `chain_overrides`, to
    its configured horizon; return (summary, simulator, paper trace
    sha256, structured trace sha256)."""
    result = parse((FIXTURES / fixture).read_text())
    assert result.ok, result.diagnostics
    spec = result.spec
    spec.chain_overrides.update(chain_overrides or {})
    paper, structured = io.StringIO(), io.StringIO()
    sim = build(spec).simulator()
    summary = sim.run(
        until=spec.until, sinks=[PaperTraceSink(paper), StructuredTraceSink(structured)])
    return (summary, sim,
            hashlib.sha256(paper.getvalue().encode("utf-8")).hexdigest(),
            hashlib.sha256(structured.getvalue().encode("utf-8")).hexdigest())


def traces(fixture):
    """(events, paper trace sha256, structured trace sha256) of a fixture."""
    summary, _, paper, structured = run_traced(fixture)
    return summary.events_executed, paper, structured


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_traces_match_golden_digests(fixture):
    assert traces(fixture) == GOLDEN[fixture]


# Module ids and paths appear in every trace line, so these pin how the
# builders lay out a stack that is not the default one.
STACKS = {
    "minimal.net": {
        NodeType.UE: (LayerSpec("NAS", "lte_nas"), LayerSpec("MAC", "lte_mac"),
                      LayerSpec("PHY", "lte_phy")),
        NodeType.ENB: (LayerSpec("GTP", "lte_gtp"), LayerSpec("PHY", "lte_phy")),
        NodeType.SGW_MME: (LayerSpec("S1", "lte_s1"),),
        NodeType.PDN_GW: (LayerSpec("IP", "lte_ip"),),
    },
    "multi_ue.net": {
        NodeType.SGW_MME: (LayerSpec("S5", "lte_s5"), LayerSpec("MME", "lte_mme"),
                           LayerSpec("GTP", "lte_gtp"), LayerSpec("S1", "lte_s1")),
    },
}


def stack_traces(fixture):
    """(events, entries left in the FES, paper trace sha256, structured
    trace sha256) of a fixture run with the stacks in STACKS."""
    summary, sim, paper, structured = run_traced(fixture, STACKS[fixture])
    return summary.events_executed, len(sim.fes), paper, structured


# fixture -> stack_traces(fixture), recorded with the per-kind builders
# that build_node replaced
STACK_GOLDEN = {
    "minimal.net": (1699, 1,
        "f54f1a1c06487aa4979b658cc547c7ee5d9212f338a5849a7e49ca488c4708ea",
        "66d4ae348fd87d8d0214c72fafdae233e898644e276ed5d748663900e57a93db"),
    "multi_ue.net": (16396, 4,
        "7a324d8633c0e0f6707f97dec95165390faaf70b0932158b53fcbc516655dc34",
        "379b44e393796e590b7f5401039f1205c75081221e547f44c2ea70d1b0338b28"),
}


@pytest.mark.parametrize("fixture", sorted(STACKS))
def test_stack_override_traces_match_golden_digests(fixture):
    assert stack_traces(fixture) == STACK_GOLDEN[fixture]


# delayed.net stopped by an event limit -> (events, stop reason, entries
# left in the FES, clock in ns, structured trace sha256). 4673 stops one
# event short of the horizon's 4674; 4674 runs every event but still stops
# on the limit.
STOPS = {
    1: (1, "EventLimit", 6, 0,
        "f03346229e15751e77d63f869cc71631148dcf323406fdfe238dabf31ba80426"),
    7: (7, "EventLimit", 6, 0,
        "8d72f6912493b9402e122ecadbe6305acf2151bdaa9686ddfbe0aa36937008f8"),
    100: (100, "EventLimit", 6, 1050000,
          "b69dea770b4a0a814721f8e009cf47e120a5bd9464436455ac443b006f983491"),
    4673: (4673, "EventLimit", 6, 199650000,
           "58fb7dae9c7b6800524c3d284b747601eda4c87abcfc1747bbd35ff585667cbe"),
    4674: (4674, "EventLimit", 6, 199650000,
           "99a9b59a6ea165f8d20c2ae68c5a20c595fbffd9b4290a8c0aaeb8c2ab7f59a6"),
}


@pytest.mark.parametrize("event_limit", sorted(STOPS))
def test_event_limit_stops_match_golden(event_limit):
    spec = parse((FIXTURES / "delayed.net").read_text()).spec
    structured = io.StringIO()
    sim = build(spec).simulator()
    summary = sim.run(until=spec.until, event_limit=event_limit,
                      sinks=[StructuredTraceSink(structured)])
    assert (summary.events_executed, summary.stop_reason.value, len(sim.fes),
            sim.now_ns,
            hashlib.sha256(structured.getvalue().encode("utf-8")).hexdigest()
            ) == STOPS[event_limit]


if __name__ == "__main__":
    for name in ("minimal.net", "multi_ue.net", "delayed.net", "desk_50ms.net"):
        print(f"    {name!r}: {traces(name)!r},")
    for name in STACKS:
        print(f"    {name!r}: {stack_traces(name)!r},")
