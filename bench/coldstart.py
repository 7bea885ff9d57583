"""Cold-start child for the in-process workloads.

``python -m bench.coldstart <workload> [arg]`` imports the program,
builds what that workload builds before its first operation, prints
``ready`` and exits; the parent times spawn → ``ready`` from outside.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    from bench.common import require_program

    require_program()
    from bench import workloads

    workload, args = argv[0], argv[1:]
    if workload == "offline_long":
        workloads.build_offline_runtimes()
    elif workload == "design_sweep":
        workloads.build_design_specs(quick=bool(args))
    elif workload == "map_flowcell":
        import numpy as np

        workloads.build_index(np.load(args[0]))
    else:
        raise SystemExit(f"no in-process cold start for {workload!r}")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
