import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs():
    # a public name the tour uses that changes fails here, not for a reader
    readme = (ROOT / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", tour], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
