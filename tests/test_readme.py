"""README examples: every `python` block runs from the repo root, in
development mode with warnings as errors, and exits cleanly."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
# ided by their order, block1, block2, ..., so a prose edit renames none
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(code):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
