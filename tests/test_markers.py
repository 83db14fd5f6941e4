"""Marker hygiene: every pytest marker in use must be declared.

An undeclared marker is silently ignored by marker expressions — a
``perf`` test whose marker was never registered would *run inside
tier-1* (wall-clock assertions in CI) or, worse, a typo in the marker
name ("pref") would quietly drop a test from the perf gate.
It greps every test and benchmark file for ``pytest.mark.<name>`` and
checks the name against the markers pytest read from ``pyproject.toml``
(``[tool.pytest.ini_options].markers``).

The same marker expressions are what keep perf gates, fuzz sweeps and
socket suites out of tier-1: pyproject's ``addopts`` carries
``-m 'not perf and not fuzz and not net'``, and a ``-m`` on the command
line *replaces* it.  So no CI ``pytest`` step may pass a ``-m``
expression containing ``not`` — it would pull every other opt-in
marker back in.
"""

from __future__ import annotations

import os
import re
import shlex

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markers pytest itself provides — always legal, never declared by us.
BUILTIN_MARKERS = {
    "parametrize",
    "skip",
    "skipif",
    "xfail",
    "usefixtures",
    "filterwarnings",
}

_MARK_RE = re.compile(r"pytest\.mark\.([A-Za-z_][A-Za-z0-9_]*)")


CI_WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")


def declared_markers(pytestconfig) -> set[str]:
    return {
        line.split(":", 1)[0].strip()
        for line in pytestconfig.getini("markers")
    }


def markers_in_use() -> dict[str, set[str]]:
    """marker name -> set of files using it, across tests + benchmarks."""
    uses: dict[str, set[str]] = {}
    for sub in ("tests", "benchmarks"):
        for dirpath, _dirs, files in os.walk(os.path.join(REPO_ROOT, sub)):
            for fname in files:
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                for m in _MARK_RE.finditer(text):
                    uses.setdefault(m.group(1), set()).add(
                        os.path.relpath(path, REPO_ROOT)
                    )
    return uses


def test_every_used_marker_is_declared(pytestconfig):
    declared = declared_markers(pytestconfig)
    undeclared = {
        name: sorted(files)
        for name, files in markers_in_use().items()
        if name not in BUILTIN_MARKERS and name not in declared
    }
    assert not undeclared, (
        "markers used but not declared in pyproject.toml "
        f"[tool.pytest.ini_options].markers: {undeclared}"
    )


def test_perf_marker_is_declared_and_used(pytestconfig):
    # The perf gate's whole mechanism rests on this marker existing.
    assert "perf" in declared_markers(pytestconfig)
    assert "perf" in markers_in_use()


def test_declared_markers_have_descriptions(pytestconfig):
    for line in pytestconfig.getini("markers"):
        assert ":" in line and line.split(":", 1)[1].strip(), (
            f"marker {line!r} lacks a description"
        )


def marker_expressions(workflow: str) -> list[str]:
    """Every ``-m`` expression a ``pytest`` command in ``workflow``
    passes (shell continuation lines joined, YAML comments skipped;
    ``python -m pytest``'s own ``-m`` is the interpreter's)."""
    exprs = []
    for line in workflow.replace("\\\n", " ").splitlines():
        _, found, args = line.partition("pytest ")
        if not found or line.lstrip().startswith("#"):
            continue
        words = shlex.split(args, comments=True)
        exprs += [b for a, b in zip(words, words[1:]) if a == "-m"]
    return exprs


def test_ci_marker_expressions_keep_the_addopts_filter():
    with open(CI_WORKFLOW, encoding="utf-8") as fh:
        exprs = marker_expressions(fh.read())
    assert exprs, "no pytest -m step found in ci.yml"
    negated = [e for e in exprs if re.search(r"\bnot\b", e)]
    assert not negated, (
        f"ci.yml passes -m {negated}: a -m on the command line replaces "
        "pyproject's addopts filter, so 'not X' pulls every other opt-in "
        "marker (perf, fuzz, net) back into that step"
    )
