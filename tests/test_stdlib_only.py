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


# Cold start: the result records are named tuples, so importing the package
# and its command line pulls in neither dataclasses (and with it inspect,
# ast, dis and tokenize) nor typing.
COLD_START_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import ellquot, ellquot.cli
print(" ".join(name for name in ("dataclasses", "inspect", "typing") if name in sys.modules))
"""


def test_importing_the_package_and_its_command_line_loads_no_dataclasses_inspect_or_typing():
    done = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
