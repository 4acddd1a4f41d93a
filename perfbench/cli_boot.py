"""Run one ``nhb`` command under the tracer.

Usage::

    PERFBENCH_TRACE_OUT=<file> PERFBENCH_SPANS=<file> PERFBENCH_PROCESS=<name> \
        python3 perfbench/cli_boot.py <nhb args>

The command's stdout, stderr and exit code are those of ``nhb``.  The
tracer's calls, self times and counters go to ``PERFBENCH_TRACE_OUT`` as
JSON, and, when ``PERFBENCH_SPANS`` is set, its spans are appended to that
file under the process name ``PERFBENCH_PROCESS``.
"""

import json
import os
import sys

from tracer import Tracer


def main():
    import nilheckeb.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = nilheckeb.cli.main(sys.argv[1:])
    finally:
        tracer.restore()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.state(), fh)
        if "PERFBENCH_SPANS" in os.environ:
            tracer.spans.write_tsv(os.environ["PERFBENCH_SPANS"],
                                   os.environ["PERFBENCH_PROCESS"])
    return code


if __name__ == "__main__":
    raise SystemExit(main())
