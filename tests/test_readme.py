"""Every python block of README.md, and every demo, runs as written against src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    flags=re.MULTILINE | re.DOTALL)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("args", [["-c", code] for code in BLOCKS] + [[str(p)] for p in DEMOS],
                         ids=[f"block{i}" for i in range(len(BLOCKS))]
                         + [f"demo-{p.stem}" for p in DEMOS])
def test_block_runs(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
