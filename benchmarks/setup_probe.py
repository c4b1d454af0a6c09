"""Import weakpol and build one workload's inputs in a fresh interpreter.

This is the work a benchmark run does before its first timed op; ``run.py``
times whole probe processes to measure ``setup_s``.

Usage: python3 setup_probe.py <checkout root> <workload> <seed> <work dir>
"""

import os
import sys


def main(argv) -> int:
    root, name, seed, workdir = argv
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.WORKLOADS[name](int(seed), workdir, root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
