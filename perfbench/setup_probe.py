"""Set up one workload in a fresh process and say when it is ready.

    python3 perfbench/setup_probe.py WORKLOAD

``run.py`` starts this script to time ``setup_s``: the time from starting a
process to the end of the workload's set-up (interpreter start, imports,
inputs and references), which is where a run's first timed call would
begin.  It prints ``ready`` once the set-up is done and then exits.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

workloads.WORKLOADS[sys.argv[1]](ROOT / ".perfbench_out").setup()
print("ready", flush=True)
