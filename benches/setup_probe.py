"""Set-up probe: import leofim, build a workload's inputs, print when ready.

    python3 benches/setup_probe.py WORKLOAD SEED

Prints ``{"ready": time.monotonic()}`` taken once the process could run the
workload's first job, so ``run.py`` can time set-up from before it started
the interpreter.  It imports nothing but leofim and the workload definitions,
so the time is what a user's process pays.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import workloads


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    with tempfile.TemporaryDirectory(dir=Path.cwd() / ".bench_tmp") as scratch:
        workloads.WORKLOADS[name](seed, Path(scratch))
        print(json.dumps({"ready": time.monotonic()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
