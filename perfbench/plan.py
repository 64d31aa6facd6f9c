"""The planning process: the reference data of one round of a workload.

    python3 perfbench/plan.py JOB RESULT

JOB is a pickle of (workload, seed, inputs) written by run.py; RESULT
receives a pickle of the workload's reference data. Only this process
imports scipy (through reference.py), so that scipy and the reference
computations add nothing to the measured process's time or memory.
"""

import pickle
import sys
from pathlib import Path

import workloads


def main() -> int:
    job, result = map(Path, sys.argv[1:])
    workload, seed, inputs = pickle.loads(job.read_bytes())
    refs = workloads.WORKLOADS[workload].references(seed, inputs)
    result.write_bytes(pickle.dumps(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
