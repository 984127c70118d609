"""The README's Python examples run against the package as it stands.

Every ```python block of ``README.md`` runs, in order, as one script in a
subprocess with ``PYTHONPATH=src``, so later blocks see names the earlier
ones defined.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    assert blocks
    done = subprocess.run([sys.executable, "-c", "\n".join(blocks)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
