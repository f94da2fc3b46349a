"""Run one rigidset CLI call with the span tracer installed.

    python3 perfbench/traced_cli.py TRACE.json <cli arguments...>

Behaves like `python -m rigidset.cli <cli arguments...>` (same output, same
exit code) and writes the call's span statistics to TRACE.json.
"""

import json
import sys

import spans


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import rigidset.cli

    tracer = spans.Tracer().install()
    try:
        code = rigidset.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_obj(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
