"""CI runs every check of tests/large_checks.py once, under its time limit."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_runs_every_large_check_once():
    # the workflow is read as text: CI installs no YAML parser
    tree = ast.parse((ROOT / "tests" / "large_checks.py").read_text())
    checks = [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    named = re.findall(r"tests/large_checks\.py::(\w+)", workflow)
    bounded = re.findall(r"run: timeout 300 python -B -m pytest -q tests/large_checks\.py::(\w+) --durations=0\n", workflow)
    assert len(checks) == 14  # one per step after tier-1: a check dropped from both sides fails here
    assert sorted(named) == sorted(bounded) == sorted(checks)
