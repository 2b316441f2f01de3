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
   in the prose fails here; a backticked `Class.attr` or `Class.attr()`
   additionally needs ``attr`` to be an attribute or a dataclass field
   of that class;
8. every ``repro`` import in ``examples/*.py`` and ``benchmarks/*.py``
   resolves.  They are parsed, not run: nothing in CI runs the examples,
   and the tier-1 suite does not collect ``bench_*.py``, so a deleted
   name one of them still imports fails here;
9. every backticked lower-case name with an underscore in the docs (a
   function, method or field such as `fit_batched()` or
   `stop_iteration`) is an attribute of some ``repro.*`` module, or an
   attribute or a dataclass field of a class defined in ``repro`` — a
   function deleted in code but left in the prose fails here.

Run:  PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "docs" / "architecture.md"]
#: Scripts whose ``repro`` imports rule 8 resolves (parsed, not run).
SCRIPTS = sorted((ROOT / "examples").glob("*.py")) + sorted(
    (ROOT / "benchmarks").glob("*.py")
)
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

#: Backticked lower-case names in the docs that name no ``repro``
#: object: instance attributes, request and response keys, a benchmark
#: script, a scatter primitive and an OpenBLAS symbol.
SNAKE_CASE_ALLOWLIST = {
    "ac_mean", "bench_pipeline", "dead_letters", "first_index",
    "index_add", "overlap_samples", "repro_error",
    "scipy_openblas_set_num_threads64_", "segment_samples",
}


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


def _has_member(cls, attr: str) -> bool:
    """``attr`` is an attribute or a dataclass field of ``cls``."""
    if hasattr(cls, attr):
        return True
    return dataclasses.is_dataclass(cls) and attr in {
        field.name for field in dataclasses.fields(cls)
    }


def check_doc_class_names() -> list:
    """Every backticked CamelCase name in the docs must resolve.

    The dotted-path check only sees ``repro.``-prefixed names, so a bare
    class name left in the prose after the class went would pass it;
    here the name must be an attribute of a public package, of
    ``repro.errors``, or a builtin.  In `Class.attr` and `Class.attr()`
    the class resolves the same way and ``attr`` must be one of its
    members, so a deleted method or field left in the prose fails too.
    """
    modules = [
        importlib.import_module(package)
        for package in PUBLIC_PACKAGES + ["repro.errors"]
    ]
    pattern = re.compile(r"`([A-Z]\w*[a-z]\w*)(?:\.(\w+)(?:\(\))?)?`")
    problems = []
    for doc in DOCS:
        if not doc.exists():
            continue  # check_doc_references reports the missing file
        for name, attr in sorted(set(pattern.findall(doc.read_text()))):
            if name in CAMELCASE_ALLOWLIST:
                continue
            owner = next(
                (owner for owner in [builtins] + modules
                 if hasattr(owner, name)),
                None,
            )
            if owner is None:
                problems.append(
                    f"{doc.name}: documented name {name!r} resolves in "
                    f"no public package, repro.errors or builtins"
                )
            elif attr and not _has_member(getattr(owner, name), attr):
                problems.append(
                    f"{doc.name}: documented name {name}.{attr} names no "
                    f"attribute or dataclass field of {name}"
                )
    return problems


def _repro_names() -> set:
    """Every attribute of a ``repro.*`` module, and every attribute and
    dataclass field of a class defined in ``repro``."""
    import pkgutil

    import repro

    names = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing it would run the CLI
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) \
                    and value.__module__.split(".")[0] == "repro":
                names.update(dir(value))
                if dataclasses.is_dataclass(value):
                    names.update(f.name for f in dataclasses.fields(value))
        names.update(dir(module))
    return names


def check_doc_snake_case_names() -> list:
    """Every backticked lower-case name with an underscore must resolve.

    Rules 3 and 7 only see ``repro.``-prefixed paths and CamelCase
    names, so a bare `function_name` left in the prose after the
    function went would pass both.
    """
    pattern = re.compile(r"`([a-z_][a-z0-9_]*)(?:\(\))?`")
    known = _repro_names() | SNAKE_CASE_ALLOWLIST
    problems = []
    for doc in DOCS:
        if not doc.exists():
            continue  # check_doc_references reports the missing file
        for name in sorted(set(pattern.findall(doc.read_text()))):
            if "_" in name and name not in known:
                problems.append(
                    f"{doc.name}: documented name {name!r} is no "
                    f"attribute of a repro module or class"
                )
    return problems


def _import_problem(where: str, module_name: str, name=None):
    """``None`` when ``module_name`` (and ``name`` in it) imports."""
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        return f"{where}: module {module_name!r} does not import ({exc})"
    if name is None or hasattr(module, name):
        return None
    try:  # ``from package import submodule``
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return f"{where}: {module_name!r} has no name {name!r}"
    return None


def check_script_imports() -> list:
    """Every ``repro`` import in the examples and benchmarks must resolve
    (parsed, not run)."""
    problems = []
    for path in SCRIPTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                found = [
                    _import_problem(where, alias.name)
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                ]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "repro":
                found = [
                    _import_problem(where, node.module, alias.name)
                    for alias in node.names if alias.name != "*"
                ]
            else:
                continue
            problems += [problem for problem in found if problem]
    return problems


def main() -> int:
    problems = (
        check_exports()
        + check_doc_references()
        + check_registered_separators_documented()
        + check_required_names_documented()
        + check_public_api_table()
        + check_doc_class_names()
        + check_doc_snake_case_names()
        + check_script_imports()
    )
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs-check: OK ({len(DOCS)} docs, "
          f"{len(PUBLIC_PACKAGES)} packages, "
          f"{len(SCRIPTS)} example and benchmark scripts verified)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
