"""Run the pmhgraph CLI with the benchmark's span wrappers installed.

Usage: python3 launch.py SPANS_OUT [pmhgraph CLI arguments...]

The whole command is one root span named "cli"; each report line the CLI
emits starts the next op id.  Spans are written to SPANS_OUT at exit.
"""

import sys

import pmhgraph.cli as cli
import spans


def main():
    out, args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    emit = cli._emit
    lines = 0

    def counted(report):
        nonlocal lines
        emit(report)
        lines += 1
        tracer.op += 1

    cli._emit = counted
    root = tracer.begin("cli")
    code = 0
    try:
        cli.main(args=args, prog_name="pmhgraph")
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        tracer.end(root)
        tracer.spans[root][5] = {"lines": lines}
        spans.dump(out, [tracer.spans])
    sys.exit(code)


if __name__ == "__main__":
    main()
