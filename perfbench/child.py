"""Traced `isurf` command for the verify-all workload.

    python perfbench/child.py SPANS_JSON REQUEST_ID ISURF_ARGS...

Installs the tracer, runs ``isurf.cli.main(ISURF_ARGS)`` as one request,
writes the spans to SPANS_JSON and exits with the command's exit code.
"""

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, request_id, cli_args = argv[0], int(argv[1]), argv[2:]
    import isurf.cli

    tracer = Tracer()
    tracer.install()
    with tracer.request(request_id):
        code = isurf.cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
