"""Run the rfad command line with the benchmark's span wrappers installed.

    python -X importtime bench/rfad_traced.py SPANS_JSON [rfad arguments...]

Behaves like the ``rfad`` console script and also writes the process's
spans, counters, its start time and the time ``import rfad.cli`` took to
SPANS_JSON, which the traced run merges into its own spans.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    instrumentation.watch_imports()
    t0 = time.perf_counter()
    import rfad.cli
    import_s = time.perf_counter() - t0
    instrumentation.install()
    try:
        with tracer.span("cli.main"):
            code = rfad.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json({"start": START, "import_s": import_s}), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
