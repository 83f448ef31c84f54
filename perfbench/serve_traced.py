"""Run ``lorascale serve`` with PacketStore spans recorded.

    python3 perfbench/serve_traced.py SPANS_FILE -- SERVE_ARGS...

Installs the server-side wrappers, then calls ``cli.main(["serve", ...])``.
When the server stops (SIGINT), the spans are written to SPANS_FILE.
"""

import sys

import spans
from lorascale import cli


def main(argv: list[str]) -> int:
    spans_file, sep, serve_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: serve_traced.py SPANS_FILE -- SERVE_ARGS...")
    tracer = spans.Tracer()
    tracer.install(spans.server_targets())
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
