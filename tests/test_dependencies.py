"""numpy is the package's only runtime dependency.

Importing leakguard and its command line in a fresh interpreter must load
no top-level module outside the standard library, numpy and leakguard,
and not multiprocessing: only the dataset module's worker pool, which
serves save_csv, load_csv and the fingerprint, and its rule for how many
processes or threads may run need it, and every command pays for what the
import loads.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LIST_NEW_MODULES = """
import sys
before = set(sys.modules)
import leakguard, leakguard.cli
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def modules_loaded_by_import():
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run(
        [sys.executable, "-c", LIST_NEW_MODULES],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()


def test_imports_need_only_numpy_and_the_standard_library():
    loaded = modules_loaded_by_import()
    assert "leakguard" in loaded and "numpy" in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "leakguard"}
    assert [name for name in loaded if name not in allowed] == []


def test_imports_leave_out_multiprocessing():
    assert "multiprocessing" not in modules_loaded_by_import()
