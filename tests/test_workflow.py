"""The CI workflow names only tests that exist: every
`tests/<file>.py::<name>` in .github/workflows/tests.yml is defined in
that file, so a renamed test fails here, not only in CI."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_every_test_the_workflow_names_is_defined():
    named = re.findall(r"\b(tests/\w+\.py)::(\w+)", WORKFLOW.read_text())
    assert len(named) >= 10
    missing = [f"{path}::{name}" for path, name in named
               if not re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M)]
    assert missing == []
