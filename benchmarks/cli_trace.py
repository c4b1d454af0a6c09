"""Run ``weakpol.cli.main`` under the benchmark's tracer and report timings.

Writes a JSON report with the CLI's exit code, the import time of
``weakpol.cli``, the part of it spent importing scipy, the time in ``main``
and the spans the tracer recorded.

Usage: python3 cli_trace.py <checkout root> <report.json> <cli arguments...>
"""

import os
import sys
import time


def main(argv) -> int:
    root, report, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, os.path.join(root, "src"))
    from tracer import ScipyImportTimer, Tracer

    scipy_timer = ScipyImportTimer()
    scipy_timer.install()
    start = time.perf_counter()
    import weakpol.cli

    imported = time.perf_counter()
    scipy_timer.uninstall()

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    main_start = time.perf_counter()
    code = weakpol.cli.main(cli_args)
    main_end = time.perf_counter()
    tracer.uninstall()
    tracer.dump(report, {
        "exit_code": code,
        "import_ms": (imported - start) * 1e3,
        "import_scipy_ms": scipy_timer.seconds * 1e3,
        "main_ms": (main_end - main_start) * 1e3,
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
