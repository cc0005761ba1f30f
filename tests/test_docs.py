"""Docs-consistency: the documentation cannot name things that don't exist.

Extracts from ``README.md`` and ``docs/*.md``:

- every backticked **scenario name** (tokens shaped like catalogue entries,
  with ``{a,b}`` alternations and ``[-x|-y]`` optional suffixes expanded)
  and asserts it exists in ``all_scenarios()`` or the figure runners;
- every **pass name** token and asserts it is a registered transform pass;
- every ``--flag`` token and asserts the flag exists somewhere in the
  ``python -m repro`` argparse tree;
- every ``REPRO_*`` environment variable name and asserts it is a string
  literal somewhere under ``src/repro``.

A renamed scenario, a dropped flag or environment variable, or a typo in an
example therefore fails the suite instead of rotting silently.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.__main__ import FIGURE_RUNNERS, _build_parser
from repro.casestudy.scenarios import all_scenarios
from repro.transform import PASS_REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

# A scenario-shaped token: a known family prefix, a dash, and more.
SCENARIO_SHAPED = re.compile(
    r"^(figure\d+[a-d]?(-O\d)?"
    r"|(sqm|sqam|lookup|secure|gather|scatter|defensive|naive|kernel|aes)"
    r"-[A-Za-z0-9_.{}|\[\],-]+)$")

ENV_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+")
INLINE_CODE = re.compile(r"`([^`]+)`")
FENCE = re.compile(r"^\s*```")


def _expand(token: str) -> list[str]:
    """Expand ``{a,b}`` alternations and ``[-x|-y]`` optional suffixes."""
    brace = re.search(r"\{([^{}]*)\}", token)
    if brace:
        return [
            expanded
            for choice in brace.group(1).split(",")
            for expanded in _expand(
                token[:brace.start()] + choice + token[brace.end():])
        ]
    optional = re.search(r"\[([^][]*)\]", token)
    if optional:
        rest = token[:optional.start()] + token[optional.end():]
        expanded = _expand(rest)
        for choice in optional.group(1).split("|"):
            expanded.extend(_expand(
                token[:optional.start()] + choice + token[optional.end():]))
        return expanded
    return [token]


def _code_tokens(path: Path) -> list[tuple[str, str]]:
    """(kind, token) pairs: kind is "inline" or "fence"."""
    tokens: list[tuple[str, str]] = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            tokens.extend(("fence", word) for word in line.split())
        else:
            for span in INLINE_CODE.findall(line):
                tokens.extend(("inline", word) for word in span.split())
    return [(kind, token.strip("\"',:;()")) for kind, token in tokens]


def _scenario_tokens(path: Path) -> set[str]:
    found: set[str] = set()
    for _kind, token in _code_tokens(path):
        if "/" in token or "=" in token:
            continue
        if "." in token and not re.search(r"\{[^}]*\.", token):
            continue  # dotted module paths, file names
        if token in PASS_REGISTRY:
            continue  # checked separately
        if SCENARIO_SHAPED.match(token):
            for expanded in _expand(token):
                if expanded in PASS_REGISTRY:
                    continue
                found.add(expanded)
    return found


def _flag_tokens(path: Path) -> set[str]:
    """``--flag`` tokens: all inline spans, plus fence lines invoking the
    CLI (so pip/sh flags in install snippets are not misattributed)."""
    flags: set[str] = set()
    in_fence = False
    fence_is_cli = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE.match(line):
            in_fence = not in_fence
            fence_is_cli = False
            continue
        if in_fence:
            if "-m repro" in line:
                fence_is_cli = True
            if fence_is_cli:
                flags.update(word for word in line.split()
                             if word.startswith("--"))
            if not line.endswith("\\"):
                fence_is_cli = False
        else:
            for span in INLINE_CODE.findall(line):
                if span.startswith("--") or "-m repro" in span:
                    flags.update(word for word in span.split()
                                 if word.startswith("--"))
    # ``--flag=value`` counts as ``--flag``.
    return {flag.split("=", 1)[0].rstrip("\"',:;().") for flag in flags}


def _env_tokens(path: Path) -> set[str]:
    """``REPRO_*`` names in code spans (``REPRO_FAULT=kind:substr`` counts
    as ``REPRO_FAULT``)."""
    return {name for _kind, token in _code_tokens(path)
            for name in ENV_NAME.findall(token)}


def _argparse_flags() -> set[str]:
    parser = _build_parser()
    flags = {opt for action in parser._actions
             for opt in action.option_strings}
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            for sub in action.choices.values():
                flags.update(opt for sub_action in sub._actions
                             for opt in sub_action.option_strings)
    return flags


@pytest.fixture(scope="module")
def catalogue():
    names = set(all_scenarios()) | set(FIGURE_RUNNERS)
    # Figure aliases double as scenarios; both directions are valid names.
    return names


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_documented_scenarios_exist(path, catalogue):
    tokens = _scenario_tokens(path)
    unknown = sorted(token for token in tokens if token not in catalogue)
    assert not unknown, (
        f"{path.name} references unknown scenarios: {unknown}")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_documented_flags_exist(path):
    known = _argparse_flags()
    unknown = sorted(flag for flag in _flag_tokens(path) if flag not in known)
    assert not unknown, f"{path.name} references unknown CLI flags: {unknown}"


@pytest.fixture(scope="module")
def source_literals() -> set[str]:
    """Every string literal in the package source."""
    literals: set[str] = set()
    for source in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        literals.update(node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str))
    return literals


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_documented_env_vars_exist(path, source_literals):
    unknown = sorted(name for name in _env_tokens(path)
                     if name not in source_literals)
    assert not unknown, (
        f"{path.name} references unknown environment variables: {unknown}")


def test_documented_passes_exist():
    # Every pass the docs mention is registered; and the registry's passes
    # are documented somewhere (the docs teach the full pipeline).
    documented: set[str] = set()
    for path in DOC_FILES:
        for _kind, token in _code_tokens(path):
            if token in PASS_REGISTRY:
                documented.add(token)
    assert documented == set(PASS_REGISTRY), (
        f"documented={sorted(documented)} registry={sorted(PASS_REGISTRY)}")


def test_extraction_is_not_vacuous():
    """Guard the guard: the README and both doc references must yield a
    healthy number of checked tokens, or the extractor has gone blind."""
    scenario_count = sum(len(_scenario_tokens(path)) for path in DOC_FILES)
    flag_count = len(set().union(*(_flag_tokens(p) for p in DOC_FILES)))
    env_count = len(set().union(*(_env_tokens(p) for p in DOC_FILES)))
    assert scenario_count >= 40, scenario_count
    assert flag_count >= 8, flag_count
    assert env_count >= 8, env_count


def test_readme_mentions_the_aes_example():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "examples/aes_study.py" in readme
    assert "docs/paper-mapping.md" in readme
