"""Time terraforge's set-up in this fresh interpreter: import the package,
parse the INI config read from stdin, generate the terrain. Prints the
main thread's CPU seconds and the wall seconds taken. Used by run.py.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

text = sys.stdin.read()
sys.path.insert(0, str(SRC))
c0, w0 = time.thread_time(), time.perf_counter()
import terraforge  # noqa: E402

cfg = terraforge.load_config(text, is_text=True)
terraforge.generate(cfg.terrain)
cpu, wall = time.thread_time() - c0, time.perf_counter() - w0
if not Path(terraforge.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"terraforge imported from {terraforge.__file__}, not from {SRC}")
print(repr(cpu), repr(wall))
