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
BLOCKS = [(README.count("\n", 0, m.start()) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", README, re.M | re.S)]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", [code for _, code in BLOCKS],
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(code):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
