"""Import of the program under test from the checkout's own src/ tree."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    pass


def import_program() -> float:
    """Import metric_atlas (and with it numpy) from SRC; returns the seconds
    the import took. Refuses a copy installed anywhere else."""
    if not (SRC / "metric_atlas" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import metric_atlas
    elapsed = time.perf_counter() - start
    if Path(metric_atlas.__file__).resolve().parent != SRC / "metric_atlas":
        raise ProgramMissing(f"metric_atlas imported from {metric_atlas.__file__}")
    return elapsed


# Standard-library modules that neither numpy nor the program imports: a
# fixed amount of pure-Python import work to time the program's import against.
REFERENCE_MODULES = ("http.cookiejar", "xml.dom.minidom", "tarfile")

_TIMED_IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
start = time.perf_counter()
import metric_atlas
mid = time.perf_counter()
refs = sys.argv[2:]
loaded = [m for m in refs if m in sys.modules]
if loaded:
    sys.exit(f"reference modules already imported: {loaded}")
for m in refs:
    __import__(m)
print(mid - start, time.perf_counter() - mid)
"""


def fresh_import_seconds() -> tuple[float, float]:
    """(program, reference) import seconds in a fresh interpreter that has
    imported numpy already: the program, then REFERENCE_MODULES. The import
    in this process happens only once."""
    done = subprocess.run([sys.executable, "-c", _TIMED_IMPORT, str(SRC), *REFERENCE_MODULES],
                          capture_output=True, text=True, check=True, timeout=120)
    program_s, reference_s = map(float, done.stdout.split())
    return program_s, reference_s
