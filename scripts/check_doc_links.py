#!/usr/bin/env python3
"""Markdown link checker for the repo's documentation set.

Stdlib-only (runs anywhere Python runs, no pip installs). For each
documentation file it verifies that

* every relative markdown link target ``[text](path)`` exists on disk,
  resolved against the file containing the link (anchors and query
  strings are stripped; ``http(s)://`` and ``mailto:`` links are skipped —
  this repo's docs must stay navigable offline);
* every intra-document anchor ``[text](#section)`` matches a heading in
  the same file, using GitHub's slugification rules (lowercase, spaces
  to hyphens, punctuation dropped);
* every *code path* reference of the form ```` `tests/...` ````,
  ```` `benchmarks/...` ````, ```` `examples/...` ```` or
  ```` `scripts/...` ```` names a real file or directory (module dotted
  paths like ``repro.engine.batch`` are checked as ``src/`` paths).

Exit status is the number of broken references (0 == all good), so CI
can gate on it directly::

    python scripts/check_doc_links.py README.md DESIGN.md ARCHITECTURE.md
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_DOCS = [
    "README.md",
    "DESIGN.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
]

#: ``[text](target)`` — non-greedy text, target up to the closing paren.
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: `` `path/to/thing.py` `` — backticked references into the checked trees.
_CODE_PATH = re.compile(
    r"`((?:src|tests|benchmarks|examples|scripts|paper_scale_results)"
    r"[A-Za-z0-9_./-]*)`"
)

#: ``repro.engine.batch``-style dotted module references in backticks.
_MODULE = re.compile(r"`(repro(?:\.[a-z_][a-z0-9_]*)+)`")

#: markdown headings, for anchor validation.
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

_EXTERNAL = ("http://", "https://", "mailto:")


def github_slug(heading: str) -> str:
    """Return the GitHub anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # unwrap code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def module_to_paths(dotted: str) -> list[Path]:
    """Candidate filesystem locations for a dotted ``repro.*`` reference.

    The last component may be a function/class inside a module
    (``repro.engine.sync.digest_sync``), so the parent module file is
    also accepted as a match.
    """
    parts = dotted.split(".")
    rel = Path("src", *parts)
    candidates = [rel.with_suffix(".py"), rel]  # module file or package dir
    if len(parts) > 2:  # attribute of a module: check the parent module
        parent = Path("src", *parts[:-1])
        candidates.append(parent.with_suffix(".py"))
    return candidates


def check_file(doc: Path) -> list[str]:
    """Return a list of human-readable problems found in ``doc``."""
    problems: list[str] = []
    text = doc.read_text(encoding="utf-8")
    slugs = {github_slug(h) for h in _HEADING.findall(text)}

    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            continue
        if target.startswith("#"):
            if target[1:] not in slugs:
                problems.append(f"{doc.name}: broken anchor {target!r}")
            continue
        path_part = target.split("#", 1)[0].split("?", 1)[0]
        if not path_part:
            continue
        resolved = (doc.parent / path_part).resolve()
        if not resolved.exists():
            problems.append(f"{doc.name}: broken link {target!r}")

    for match in _CODE_PATH.finditer(text):
        ref = match.group(1).rstrip("/")
        if not (REPO_ROOT / ref).exists():
            problems.append(f"{doc.name}: missing code path `{ref}`")

    for match in _MODULE.finditer(text):
        dotted = match.group(1)
        if not any((REPO_ROOT / p).exists() for p in module_to_paths(dotted)):
            problems.append(f"{doc.name}: missing module `{dotted}`")

    return problems


def main(argv: list[str]) -> int:
    """Check the given docs (or the default set); return the error count."""
    names = argv or DEFAULT_DOCS
    problems: list[str] = []
    checked = 0
    for name in names:
        doc = (REPO_ROOT / name).resolve()
        if not doc.exists():
            problems.append(f"{name}: documentation file itself is missing")
            continue
        checked += 1
        problems.extend(check_file(doc))
    for problem in problems:
        print(f"BROKEN  {problem}")
    print(f"checked {checked} file(s): {len(problems)} broken reference(s)")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
