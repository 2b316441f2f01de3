"""Docs consistency check (the Makefile's ``docs-check`` target).

Verifies that

1. the top-level ``README.md`` and ``docs/architecture.md`` exist;
2. every re-export list (``__all__``) of the public packages resolves —
   a stale name in an ``__init__`` fails here, not in a user session;
3. every dotted ``repro.*`` module path mentioned in the docs imports;
4. every separator name registered in ``repro.service`` appears in the
   docs — registering a method without documenting it fails CI;
5. the public batch-fitting API (the deep-prior hot path) is documented:
   every name in ``REQUIRED_DOC_NAMES`` must both resolve as an
   attribute of its package and appear in the docs;
6. the README's "Public API" table and ``repro.__all__`` name the same
   set: every backticked name in the table's first column is exported,
   and every export except ``errors`` and ``__version__`` is listed;
7. every backticked CamelCase name in the docs (a class such as
   `SeparationService`) resolves in a public package, in
   ``repro.errors`` or in builtins — a class deleted in code but left
   in the prose fails here.

Run:  PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import builtins
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "docs" / "architecture.md"]
PUBLIC_PACKAGES = [
    "repro",
    "repro.dsp",
    "repro.core",
    "repro.nn",
    "repro.pipeline",
    "repro.streaming",
    "repro.service",
    "repro.baselines",
    "repro.metrics",
    "repro.synth",
    "repro.scenarios",
    "repro.tfo",
    "repro.experiments",
    "repro.gateway",
]

#: (package, attribute) pairs that must resolve AND be mentioned in the
#: docs.  The batched deep-prior engine is the DHF hot path and the TFO
#: monitoring subsystem is the paper's application surface; shipping a
#: change that renames or undocuments their entry points fails here.
REQUIRED_DOC_NAMES = [
    ("repro.core", "inpaint_spectrograms"),
    ("repro.core", "EarlyStopConfig"),
    ("repro.nn", "stack_networks"),
    ("repro.nn", "fit_batched"),
    ("repro.core", "DHFSeparator"),
    ("repro.tfo", "run_in_vivo_batch"),
    ("repro.tfo", "SpO2Monitor"),
    ("repro.tfo", "cohort_records"),
    ("repro.tfo", "AcExtractor"),
    ("repro.tfo.ppg", "ac_component"),
    ("repro.experiments", "run_monitor"),
    ("repro.scenarios", "DegradationSpec"),
    ("repro.scenarios", "SensorDropoutSpec"),
    ("repro.scenarios", "Scenario"),
    ("repro.scenarios", "ScenarioGrid"),
    ("repro.scenarios", "Scoreboard"),
    ("repro.scenarios", "available_degradations"),
    ("repro.experiments", "run_scoreboard"),
    ("repro.synth", "extended_mixture_names"),
    ("repro.nn", "PriorCheckpoint"),
    ("repro.nn", "PriorZoo"),
    ("repro.nn", "FitCache"),
    ("repro.nn", "shared_fit_cache"),
    ("repro.nn", "save_state"),
    ("repro.nn", "load_state"),
    ("repro.gateway", "Gateway"),
    ("repro.gateway", "GatewayClient"),
    ("repro.gateway", "GatewayConfig"),
    ("repro.gateway", "JobRecord"),
    ("repro.gateway", "JOB_STATES"),
    ("repro.gateway", "CallbackClient"),
    ("repro.gateway", "MonitorSessionManager"),
    ("repro.pipeline", "ShardedExecutor"),
    ("repro.pipeline", "ShmBlock"),
    ("repro.pipeline", "plan_shards"),
    ("repro.pipeline", "shard_key"),
    ("repro.errors", "WorkerPoolError"),
]


#: Backticked CamelCase words in the docs that name no Python object.
CAMELCASE_ALLOWLIST = {"Makefile", "NaN"}


def check_exports() -> list:
    problems = []
    for package in PUBLIC_PACKAGES:
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        for name in exported:
            if not hasattr(module, name):
                problems.append(f"{package}.__all__ lists missing {name!r}")
    return problems


def check_doc_references() -> list:
    problems = []
    pattern = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)")
    for doc in DOCS:
        if not doc.exists():
            problems.append(f"missing documentation file: {doc}")
            continue
        for dotted in sorted(set(pattern.findall(doc.read_text()))):
            parts = dotted.split(".")
            # Walk down until the longest importable module prefix, then
            # resolve the remainder as attributes.
            for split in range(len(parts), 0, -1):
                module_name = ".".join(parts[:split])
                try:
                    obj = importlib.import_module(module_name)
                except ImportError:
                    continue
                except Exception as exc:  # import-time crash: report, not raise
                    problems.append(
                        f"{doc.name}: documented module {module_name!r} "
                        f"fails to import ({type(exc).__name__}: {exc})"
                    )
                    break
                try:
                    for attr in parts[split:]:
                        obj = getattr(obj, attr)
                except AttributeError:
                    problems.append(
                        f"{doc.name}: documented name {dotted!r} does not "
                        f"resolve"
                    )
                break
            else:
                problems.append(
                    f"{doc.name}: documented module {dotted!r} does not import"
                )
    return problems


def _docs_corpus() -> str:
    """Concatenated text of every existing doc file."""
    return "\n".join(doc.read_text() for doc in DOCS if doc.exists())


def check_registered_separators_documented() -> list:
    """Every registered separator name must appear in the docs."""
    from repro.service import available_separators

    problems = []
    corpus = _docs_corpus()
    for name in available_separators():
        # Whole-word match: 'repet' inside 'repet-ext' (or inside an
        # ordinary word) must not count as documentation of 'repet'.
        pattern = rf"(?<![\w-]){re.escape(name)}(?![\w-])"
        if not re.search(pattern, corpus):
            problems.append(
                f"registered separator {name!r} is not mentioned in any "
                f"of: {', '.join(d.name for d in DOCS)}"
            )
    return problems


def check_required_names_documented() -> list:
    """The batch-fitting API must resolve and appear in the docs."""
    problems = []
    corpus = _docs_corpus()
    for package, attribute in REQUIRED_DOC_NAMES:
        module = importlib.import_module(package)
        if not hasattr(module, attribute):
            problems.append(
                f"required API {package}.{attribute} does not resolve"
            )
        if not re.search(rf"\b{re.escape(attribute)}\b", corpus):
            problems.append(
                f"required API name {attribute!r} ({package}) is not "
                f"mentioned in any of: {', '.join(d.name for d in DOCS)}"
            )
    return problems


def check_public_api_table() -> list:
    """The README's Public API table must match ``repro.__all__``.

    The table writes root names without a ``repro.`` prefix, so the
    dotted-path check above cannot see a removed name left in it.
    """
    import repro

    readme = DOCS[0]
    if not readme.exists():
        return []  # check_doc_references reports the missing file
    sections = readme.read_text().split("\n## Public API\n", 1)
    if len(sections) < 2:
        return [f"{readme.name} has no '## Public API' section"]
    table = sections[1].split("\n## ", 1)[0]
    listed = set()
    for line in table.splitlines():
        if line.startswith("|"):
            listed.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    exported = set(repro.__all__)
    problems = [
        f"{readme.name} Public API table lists {name!r}, which is not "
        f"in repro.__all__"
        for name in sorted(listed - exported)
    ]
    problems += [
        f"repro.__all__ exports {name!r}, which the {readme.name} "
        f"Public API table does not list"
        for name in sorted(exported - listed - {"errors", "__version__"})
    ]
    return problems


def check_doc_class_names() -> list:
    """Every backticked CamelCase name in the docs must resolve.

    The dotted-path check only sees ``repro.``-prefixed names, so a bare
    class name left in the prose after the class went would pass it;
    here the name must be an attribute of a public package, of
    ``repro.errors``, or a builtin.
    """
    modules = [
        importlib.import_module(package)
        for package in PUBLIC_PACKAGES + ["repro.errors"]
    ]
    pattern = re.compile(r"`([A-Z]\w*[a-z]\w*)`")
    problems = []
    for doc in DOCS:
        if not doc.exists():
            continue  # check_doc_references reports the missing file
        for name in sorted(set(pattern.findall(doc.read_text()))):
            if name in CAMELCASE_ALLOWLIST or hasattr(builtins, name):
                continue
            if not any(hasattr(module, name) for module in modules):
                problems.append(
                    f"{doc.name}: documented name {name!r} resolves in "
                    f"no public package, repro.errors or builtins"
                )
    return problems


def main() -> int:
    problems = (
        check_exports()
        + check_doc_references()
        + check_registered_separators_documented()
        + check_required_names_documented()
        + check_public_api_table()
        + check_doc_class_names()
    )
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs-check: OK ({len(DOCS)} docs, "
          f"{len(PUBLIC_PACKAGES)} packages verified)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
