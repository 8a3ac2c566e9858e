import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rfmst

SRC = Path(rfmst.__file__).resolve().parents[1]
HEAVY = ("scipy.signal", "scipy.fft", "scipy.special", "scipy.linalg")


def test_library_imports_leave_out_scipy_signal_fft_and_special():
    # a fresh interpreter: other tests load these modules into this one
    modules = sorted(m.name for m in pkgutil.iter_modules(rfmst.__path__))
    code = (
        "import importlib, sys\n"
        f"for m in {modules!r}:\n"
        "    importlib.import_module('rfmst.' + m)\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert "mst" in modules and "signal_gen" in modules
    assert out.stdout.strip() == "[]"
