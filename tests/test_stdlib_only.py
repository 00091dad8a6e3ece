import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter without site-packages (-S): import every
# ellquot module, then print each loaded top-level module that is neither
# the standard library nor ellquot itself.
PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import ellquot
for mod in pkgutil.iter_modules(ellquot.__path__):
    importlib.import_module("ellquot." + mod.name)
allowed = set(sys.stdlib_module_names) | {"__main__", "ellquot"}
print(" ".join(sorted({name.split(".")[0] for name in sys.modules} - allowed)))
"""


def test_the_library_imports_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
