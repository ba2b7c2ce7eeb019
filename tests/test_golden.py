"""Golden traces: sha256 digests of the paper and structured traces of
four fixed runs.

Any change to the kernel, the model or the layers must leave these traces
byte for byte identical. After a deliberate change to the trace format,
print the new table with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import io
from pathlib import Path

import pytest

from lteadv_sim import PaperTraceSink, StructuredTraceSink, build, parse

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


def traces(fixture):
    """Run a fixture to its configured horizon; return (events, paper
    trace sha256, structured trace sha256)."""
    result = parse((FIXTURES / fixture).read_text())
    assert result.ok, result.diagnostics
    spec = result.spec
    paper, structured = io.StringIO(), io.StringIO()
    summary = build(spec).simulator().run(
        until=spec.until, sinks=[PaperTraceSink(paper), StructuredTraceSink(structured)])
    return (summary.events_executed,
            hashlib.sha256(paper.getvalue().encode("utf-8")).hexdigest(),
            hashlib.sha256(structured.getvalue().encode("utf-8")).hexdigest())


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_traces_match_golden_digests(fixture):
    assert traces(fixture) == GOLDEN[fixture]


if __name__ == "__main__":
    for name in ("minimal.net", "multi_ue.net", "delayed.net", "desk_50ms.net"):
        print(f"    {name!r}: {traces(name)!r},")
