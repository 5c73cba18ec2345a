"""Fresh-process measurements for the benchmark runner.

    python3 bench/child.py setup <workload> <config>
        import hdsim, load the config and build the workload's models,
        then exit: the runner times the whole process (set-up time).
    python3 bench/child.py once <workload> <config> <out_dir>
        run the workload command once and print, as one JSON line, its
        exit code, captured stdout/stderr and the process's peak RSS.

Peak RSS is read from ``VmHWM`` in ``/proc/self/status``, the high-water
mark of this process's own address space.  ``ru_maxrss`` would not do:
Linux carries the parent's high-water mark across fork and exec.

The runner starts this with ``PYTHONPATH`` pointing at the program's
``src`` directory and the BLAS thread variables set to 1.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    mode, name, config_path = argv[:3]
    from hdsim.cli import cli_main
    from hdsim.config import load_config

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if mode == "setup":
        workload.build(load_config(config_path))
        return 0
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli_main(workload.argv(config_path, argv[3]))
    print(json.dumps({
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "peak_rss_kb": peak_rss_kb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
