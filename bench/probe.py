"""One traced kquant CLI invocation, for the traced cli_demo run.

``python probe.py SPANS VERB [ARGS...]`` behaves like ``python -m
kquant.cli VERB [ARGS...]`` (same stdout, same exit status) but records
a ``cli.<verb>`` span around ``kquant.cli.main`` and spans on every
traced engine function beneath it, and writes them to SPANS.
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    import kquant.cli
    import spans

    tracer = spans.Tracer()
    tracer.install()
    idx = tracer.open(tracer.name_id(f"cli.{argv[0]}"))
    code = 1
    try:
        code = kquant.cli.main(argv)
    finally:
        tracer.close(idx, failed=code != 0)
        restored = tracer.uninstall()
    sys.stdout.flush()
    tracer.write(path)
    return code if restored else 3


if __name__ == "__main__":
    sys.exit(main())
