"""Run one ``repro`` command with the bench-side probes installed.

Usage: ``PERFBENCH_TRACE_OUT=spans.json python perfbench/traced_cli.py
<repro arguments>``.  It behaves like ``python -m repro <arguments>``;
in addition it writes the spans of the run, the moment ``repro.cli``
finished importing and the moment the command returned to the file
named by ``PERFBENCH_TRACE_OUT``.
"""

import os
import sys

from tracing import Tracer, clock


def main() -> int:
    import repro.cli

    imported = clock()
    import probes

    tracer = Tracer()
    probes.install(tracer)
    ready = clock()
    code = repro.cli.main(sys.argv[1:])
    returned = clock()
    tracer.write(os.environ["PERFBENCH_TRACE_OUT"], imported=imported,
                 ready=ready, returned=returned)
    return code


if __name__ == "__main__":
    sys.exit(main())
