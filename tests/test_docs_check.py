"""The docs check (``scripts/check_docs.py``, ``make docs-check``)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snake_case_problems(check_docs, tmp_path, monkeypatch, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text)
    monkeypatch.setattr(check_docs, "DOCS", [doc])
    return check_docs.check_doc_snake_case_names()


@pytest.mark.parametrize("name", ["no_such_function", "no_such_method()"])
def test_a_deleted_function_left_in_the_prose_fails(
        check_docs, tmp_path, monkeypatch, name):
    problems = snake_case_problems(
        check_docs, tmp_path, monkeypatch,
        f"Each fit calls `fit_batched` and `{name}`.\n",
    )
    assert len(problems) == 1
    assert repr(name.rstrip("()")) in problems[0]


def test_functions_methods_fields_and_the_allowlist_pass(
        check_docs, tmp_path, monkeypatch):
    # A module function, a dataclass field, a method with its call
    # parentheses, a spec field and an allowlisted wire key.
    assert snake_case_problems(
        check_docs, tmp_path, monkeypatch,
        "`fit_batched`, `stop_iteration`, `named_parameters()`, "
        "`bandwidth_slope_bins` and `repro_error`; `plain` has no "
        "underscore.\n",
    ) == []
