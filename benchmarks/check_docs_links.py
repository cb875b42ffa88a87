#!/usr/bin/env python3
"""Docs link checker: every relative link and repo path must exist.

Scans ``README.md`` and ``docs/*.md`` for

* markdown links ``[text](target)`` — relative targets must resolve to an
  existing file (anchors on ``.md`` targets are validated against the
  destination's headings, GitHub-slug style);
* repo paths mentioned in prose or code blocks (anything matching
  ``src/... tests/... benchmarks/... examples/... docs/...``) — the file
  or directory must exist;
* code references ``path.py::name`` — the file must exist relative to the
  repo root or ``src/repro/``, and define ``name`` at top level (a def,
  class or assignment) or as a member of a top-level class.

Pure stdlib; exits nonzero listing every broken reference.  CI runs it so
documentation can't drift away from the tree it describes.

Usage:  python benchmarks/check_docs_links.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: [text](target) — non-greedy target, tolerates titles after a space.
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Repo-rooted path mentions, in prose or code blocks.
_REPO_PATH = re.compile(
    r"\b((?:src|tests|benchmarks|examples|docs)/[A-Za-z0-9_./-]*)"
)

#: ``path.py::name`` code references, in prose or code blocks.
_CODE_REF = re.compile(r"([A-Za-z0-9_./-]+\.py)::([A-Za-z_]\w*)")

#: Where a code reference's path may be rooted.
_CODE_ROOTS = (ROOT, ROOT / "src" / "repro")

_EXTERNAL = ("http://", "https://", "mailto:")


def _slug(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _headings(path: Path) -> set[str]:
    slugs = set()
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            slugs.add(_slug(line.lstrip("#")))
    return slugs


def _bound_names(body) -> set[str]:
    """Names a statement list defines: defs, classes and assignments."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return names


def _defined_names(source: Path) -> set[str]:
    """Top-level names of a module plus the members of its classes."""
    body = ast.parse(source.read_text()).body
    names = _bound_names(body)
    for node in body:
        if isinstance(node, ast.ClassDef):
            names |= _bound_names(node.body)
    return names


def check_code_ref(rel_path: str, name: str) -> str | None:
    """Why ``rel_path::name`` is broken, or ``None`` when it resolves."""
    for root in _CODE_ROOTS:
        source = root / rel_path
        if source.is_file():
            if name in _defined_names(source):
                return None
            return f"{rel_path} defines no {name}"
    return f"missing file {rel_path}"


def check_file(path: Path) -> list[str]:
    errors = []
    text = path.read_text()
    rel = path.relative_to(ROOT)

    for match in _MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            continue
        if target.startswith("#"):
            if _slug(target[1:]) not in _headings(path):
                errors.append(f"{rel}: broken anchor {target}")
            continue
        target_path, _, anchor = target.partition("#")
        resolved = (path.parent / target_path).resolve()
        if not resolved.exists():
            errors.append(f"{rel}: broken link ({target_path})")
            continue
        if anchor and resolved.suffix == ".md":
            if _slug(anchor) not in _headings(resolved):
                errors.append(
                    f"{rel}: broken anchor {target_path}#{anchor}"
                )

    for match in _REPO_PATH.finditer(text):
        mention = match.group(1).rstrip(".")
        if not (ROOT / mention).exists():
            errors.append(f"{rel}: missing path ({mention})")

    for match in _CODE_REF.finditer(text):
        problem = check_code_ref(match.group(1), match.group(2))
        if problem:
            errors.append(f"{rel}: broken code reference {match.group(0)} ({problem})")

    return errors


def main() -> int:
    pages = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    missing_pages = [p for p in pages if not p.exists()]
    if missing_pages:
        for page in missing_pages:
            print(f"missing documentation page: {page}", file=sys.stderr)
        return 1
    errors = [error for page in pages for error in check_file(page)]
    for error in errors:
        print(error, file=sys.stderr)
    checked = len(pages)
    if errors:
        print(f"\n{len(errors)} broken reference(s) across {checked} pages",
              file=sys.stderr)
        return 1
    print(f"docs link check: {checked} pages clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
