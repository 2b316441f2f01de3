"""The ``serve`` CLI command: run a gateway, or talk to a running one.

Server mode (blocks until Ctrl-C)::

    python -m repro.experiments serve --config @gateway.json
    python -m repro.experiments serve --port 8422 --workers 4

Client helpers against a running gateway::

    python -m repro.experiments serve --url http://127.0.0.1:8422 \\
        --submit @job.json          # POST /jobs, print the queued record
    python -m repro.experiments serve --url http://127.0.0.1:8422 \\
        --status job-000001         # GET /jobs/<id>, print the record

``--config`` takes inline JSON or ``@path`` (the same convention as the
experiment harness's ``--spec``); explicit ``--host``/``--port``/
``--workers`` flags override the config's fields.  Unknown config keys
fail with the usual did-you-mean :class:`ConfigurationError`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.gateway import Gateway, GatewayClient, GatewayConfig


def _load_json_arg(raw: str, flag: str) -> dict:
    """Inline JSON or ``@path`` → dict (shared --config/--submit shape)."""
    text = raw
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"{flag} file {raw[1:]!r} cannot be read ({exc})"
            ) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{flag} is not valid JSON ({exc}); pass an object or "
            f"@path/to/file.json"
        ) from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{flag} must be a JSON object, got {type(data).__name__}"
        )
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Run the separation gateway, or submit/inspect jobs "
                    "on a running one.",
    )
    parser.add_argument(
        "--config", default=None, metavar="JSON",
        help="GatewayConfig as inline JSON or @path/to/gateway.json",
    )
    parser.add_argument("--host", default=None, help="bind host override")
    parser.add_argument(
        "--port", type=int, default=None,
        help="bind port override (0 = ephemeral)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="separation worker thread count override",
    )
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="gateway base URL for the client helpers below",
    )
    parser.add_argument(
        "--submit", default=None, metavar="JSON",
        help="submit a wire-format job (inline JSON or @file) to --url "
             "and print the queued record",
    )
    parser.add_argument(
        "--status", default=None, metavar="JOB_ID",
        help="print the lifecycle record of one job on --url",
    )
    return parser


def load_config(args) -> GatewayConfig:
    """The effective config: --config JSON plus explicit flag overrides."""
    data = {} if args.config is None else _load_json_arg(
        args.config, "--config"
    )
    config = GatewayConfig.from_dict(data)
    overrides = {
        name: value
        for name, value in (
            ("host", args.host), ("port", args.port),
            ("workers", args.workers),
        )
        if value is not None
    }
    return config.replace(**overrides) if overrides else config


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.submit is not None or args.status is not None:
        if not args.url:
            raise ConfigurationError(
                "--submit/--status talk to a running gateway; pass its "
                "base URL with --url http://host:port"
            )
        with GatewayClient(args.url) as client:
            if args.submit is not None:
                record = client.submit_job(
                    _load_json_arg(args.submit, "--submit")
                )
                print(json.dumps(record, indent=2))
            if args.status is not None:
                print(json.dumps(client.job(args.status), indent=2))
        return 0

    config = load_config(args)
    gateway = Gateway(config)
    print(f"gateway listening on {gateway.url}", flush=True)
    print(
        f"  workers={config.workers} queue_depth={config.queue_depth} "
        f"artifact_root={gateway.store.root}",
        flush=True,
    )
    gateway.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
