"""Run ``repro serve-net`` with the layer wrappers of ``tracing.py``.

Usage: ``python3 perfbench/traced_server.py TRACE_OUT serve-net ...``.
The spans and aggregates are written to ``TRACE_OUT`` when the server
exits (SIGTERM drains it first, exactly like the untraced server).
"""

import sys

from tracing import Recorder, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    code = repro_main(argv)
    recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
