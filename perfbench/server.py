"""Traced gateway launcher: ``serve`` with the server-side wrappers on.

Used by the traced ``gateway-live`` run in place of
``python -m repro.experiments serve``::

    python3 perfbench/server.py --trace-out OUT.json -- --port 0 ...

It installs the session, streaming, wire and storage wrappers, runs
:func:`repro.experiments.serve.main` until interrupted (SIGINT), then
writes each span name's total self time and call count to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: server.py --trace-out PATH -- SERVE-ARGS...",
              file=sys.stderr)
        return 2
    out_path = argv[1]
    serve_args = argv[2:]
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.layers import install_gateway_server
    from perfbench.spans import Tracer
    from repro.experiments import serve

    tracer = Tracer()
    install_gateway_server(tracer)
    try:
        return serve.main(serve_args)
    finally:
        tracer.restore()
        calls: dict = {}
        for _, name, _, _, _ in tracer.spans:
            calls[name] = calls.get(name, 0) + 1
        selfs = tracer.self_times()
        tmp = f"{out_path}.tmp"
        with open(tmp, "w") as handle:
            json.dump({
                name: {"self_s": selfs[name], "calls": calls[name]}
                for name in calls
            }, handle)
        os.replace(tmp, out_path)


if __name__ == "__main__":
    sys.exit(main())
