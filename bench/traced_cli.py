"""Run the jordanperturb CLI with the benchmark's span tracer installed.

    python3 bench/traced_cli.py SPANS.json <jordanperturb arguments ...>

Writes the spans of the run to SPANS.json and exits with the CLI's code.
The library is imported from PYTHONPATH, as bench/run.py sets it.
"""

import sys

from tracing import Tracer, dump_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import jordanperturb.cli as cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        dump_spans(spans_path, {"spans": tracer.records()})


if __name__ == "__main__":
    sys.exit(main())
