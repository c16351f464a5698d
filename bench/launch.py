"""Run one ppinv command line under the benchmark's span tracing.

    python bench/launch.py SPANS.json ARG...

behaves like ``python -m ppinv ARG...`` (same stdout, stderr and exit
code) and, on exit, writes the recorded spans and counters to SPANS.json.
ppinv must be importable, for example through PYTHONPATH.
"""

import json
import sys

import tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    import ppinv.cli
    try:
        return ppinv.cli.run(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
