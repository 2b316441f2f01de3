"""Command-line entry point for the experiment harness.

Regenerate any paper artefact from the shell::

    python -m repro.experiments.cli table2 --preset smoke
    python -m repro.experiments.cli figure6 --preset fast --seed 7
    python -m repro.experiments.cli all --preset smoke

Methods come from the :mod:`repro.service` registry, so the harness can
list them and run any of them by name or explicit spec::

    python -m repro.experiments.cli methods
    python -m repro.experiments.cli table2 --method emd --method dhf
    python -m repro.experiments.cli table2 --spec '{"method": "vmd", "alpha": 900.0}'
    python -m repro.experiments.cli table2 --spec @my_method.json

The rendered table/series is printed to stdout; ``--output`` additionally
writes it to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, fields
from typing import Callable, Dict

from repro import errors
from repro.config import Preset, available_presets
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ARTEFACT_METHODS,
    ExperimentContext,
    display_method_name,
    table2_specs,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.monitor import run_monitor
from repro.experiments.scoreboard import run_scoreboard
from repro.experiments.ablations import (
    run_anchor_pooling_ablation,
    run_dilation_ablation,
    run_phase_policy_ablation,
)
from repro.service import SeparatorSpec, available_separators, separator_entry
from repro.utils.tables import TextTable

#: Artefact name -> runner taking an ExperimentContext.
RUNNERS: Dict[str, Callable] = {
    "table1": run_table1,
    "table2": run_table2,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "figure7": run_figure7,
    "monitor": run_monitor,
    "scoreboard": run_scoreboard,
    "ablation-dilation": run_dilation_ablation,
    "ablation-anchor-pooling": run_anchor_pooling_ablation,
    "ablation-phase": run_phase_policy_ablation,
}

#: Commands that are not experiment runners: registry inspection and the
#: serving gateway (``serve`` is dispatched to
#: :mod:`repro.experiments.serve`, which owns its own flags).
COMMANDS = ("methods", "serve")


def render_methods() -> str:
    """The registered separators, their spec fields, and defaults."""
    table = TextTable(
        ["name", "aliases", "spec", "fields (default)"],
        title="Registered separators (repro.service)",
    )
    for name in available_separators():
        entry = separator_entry(name)
        merged = dict(entry.defaults)
        field_cells = []
        for f in fields(entry.spec_cls):
            if f.name == "method":  # shown in the name column already
                continue
            if f.name in merged:
                default = merged[f.name]
            elif f.default is not MISSING:
                default = f.default
            else:
                default = "<required>"
            field_cells.append(f"{f.name}={default!r}")
        table.add_row([
            name,
            ", ".join(entry.aliases) or "-",
            entry.spec_cls.__name__,
            ", ".join(field_cells),
        ])
    lines = [table.render(), ""]
    for name in available_separators():
        entry = separator_entry(name)
        if entry.description:
            lines.append(f"{name}: {entry.description}")
    lines.append("")
    lines.append(
        "Run one with: python -m repro.experiments.cli table2 "
        "--method <name>  (or --spec '<json>' / --spec @file.json)"
    )
    return "\n".join(lines)


def load_spec_dict(raw: str) -> dict:
    """``--spec`` value as a dict: inline JSON, or ``@path`` to a file."""
    text = raw
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"--spec file {raw[1:]!r} cannot be read ({exc})"
            ) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"--spec is not valid JSON ({exc}); pass an object like "
            f'{{"method": "vmd", "alpha": 900.0}} or @path/to/spec.json'
        ) from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"--spec must be a JSON object, got {type(data).__name__}"
        )
    return data


def parse_spec_argument(raw: str) -> SeparatorSpec:
    """The validated :class:`SeparatorSpec` a ``--spec`` value names."""
    return SeparatorSpec.from_dict(load_spec_dict(raw))


def line_up_kwargs(args: argparse.Namespace, preset: Preset) -> dict:
    """The runner keyword that ``--method``/``--spec`` select.

    The line-up is the artefact's default names (``ARTEFACT_METHODS``)
    or the ``--method`` names, as :func:`table2_specs` resolves them;
    then each ``--spec``, labelled ``"<display name> (spec)"``
    (``--spec`` without ``--method`` runs the custom specs alone).  The
    monitor takes its one method as ``method=``, the other artefacts the
    line-up as ``line_up=``.
    """
    if (args.method or args.spec) and args.artefact not in ARTEFACT_METHODS:
        raise ConfigurationError(
            "--method/--spec select methods for one of "
            f"{'/'.join(ARTEFACT_METHODS)}; run e.g. "
            "'table2 --method ...' (got artefact "
            f"{args.artefact!r})"
        )
    if args.artefact not in ARTEFACT_METHODS:
        return {}
    if args.artefact == "monitor" \
            and len(args.method or []) + len(args.spec or []) > 1:
        raise ConfigurationError(
            "the monitor streams one method; pass a single --method or "
            "--spec"
        )
    if args.method:
        names = args.method
    elif args.spec:
        names = ()  # the custom specs alone
    else:
        names = ARTEFACT_METHODS[args.artefact]
    line_up = table2_specs(preset, include=names)
    custom: Dict[str, SeparatorSpec] = {}
    for raw in args.spec or ():
        spec = parse_spec_argument(raw)
        label = f"{display_method_name(spec.method)} (spec)"
        if label in custom:
            label = f"{label} #{len(custom)}"
        custom[label] = spec
    line_up.update(custom)
    if args.artefact == "monitor":
        (spec,) = line_up.values()
        return {"method": spec}
    return {"line_up": line_up}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cli",
        description="Regenerate the DHF paper's tables and figures.",
    )
    parser.add_argument(
        "artefact",
        choices=sorted(RUNNERS) + ["all"] + list(COMMANDS),
        help="which paper artefact to regenerate, or 'methods' to list "
             "the registered separators",
    )
    parser.add_argument(
        "--preset", default="smoke", choices=available_presets(),
        help="experiment scale (default: smoke)",
    )
    parser.add_argument(
        "--seed", type=int, default=2024, help="reproducibility seed",
    )
    parser.add_argument(
        "--method", action="append", default=None, metavar="NAME",
        help="run only this registered method (table2/figure6: "
             "repeatable; monitor: exactly one — see the 'methods' "
             "artefact for names)",
    )
    parser.add_argument(
        "--spec", action="append", default=None, metavar="JSON",
        help="run a custom separator spec through table2/figure6/"
             "monitor/scoreboard: inline JSON or @path to a JSON file "
             "(repeatable)",
    )
    parser.add_argument(
        "--output", default=None,
        help="optional path to also write the rendered output to",
    )
    return parser


def run_one(name: str, context: ExperimentContext, **kwargs) -> str:
    """Run one artefact and return its rendered report."""
    start = time.time()
    result = RUNNERS[name](context, **kwargs)
    elapsed = time.time() - start
    return f"## {name} ({elapsed:.1f}s)\n\n{result.render()}"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["serve"]:
        # The gateway command has its own flag set (--config/--submit/
        # --status); hand the rest of the line to its parser untouched.
        from repro.experiments.serve import main as serve_main
        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.artefact == "methods":
        text = render_methods()
        print(text)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
        return 0

    context = ExperimentContext.from_name(args.preset, seed=args.seed)
    kwargs = line_up_kwargs(args, context.preset)
    names = sorted(RUNNERS) if args.artefact == "all" else [args.artefact]
    reports = [run_one(name, context, **kwargs) for name in names]
    text = "\n\n".join(reports)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except errors.ReproError as exc:
        # Shell users get the message (did-you-mean and all), not a
        # traceback; programmatic callers of main() still see the raise.
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
