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
  paths like ``repro.engine.batch`` are checked as ``src/`` paths);
* every ```` `Class.member` ```` reference (optionally called, as in
  ```` `Class.member(args)` ````) whose ``Class`` is defined under
  ``src/repro`` names a method, attribute or nested class of that class
  or of one of its bases defined there, so a deleted method cannot
  linger in the docs;
* every keyword of a ``ReplicationConfig(...)`` call, in inline code or
  a fenced block, names a current field of that dataclass (read from
  ``src/repro/api.py``), so a removed config field cannot linger either;
* every ``--flag`` of a command line that runs ``prins …``,
  ``python -m bench …`` or ``scripts/<name>.py …``, in inline code or a
  fenced block, is a flag that command's own parser adds (the string
  literals of its ``add_argument`` calls: ``src/repro/cli.py``,
  ``bench/cli.py`` or the script itself), so a removed CLI flag cannot
  linger either.  Flags of other tools on the same line are not checked.

Exit status is the number of broken references (0 == all good), so CI
can gate on it directly::

    python scripts/check_doc_links.py README.md DESIGN.md ARCHITECTURE.md
"""

from __future__ import annotations

import ast
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_DOCS = [
    "README.md",
    "DESIGN.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
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

#: `` `Class.member` `` / `` `Class.member(args)` `` references in backticks.
_MEMBER = re.compile(
    r"`([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\([^`]*\))?`"
)

#: fenced code blocks, then inline code spans: where config calls are read.
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
_INLINE = re.compile(r"`([^`]+)`")

#: the start of a ``ReplicationConfig(...)`` call, and one keyword in it.
_CONFIG_CALL = re.compile(r"\bReplicationConfig\(")
_KEYWORD = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*=(?!=)")

#: a command whose flags are checked: ``prins`` (or ``python -m
#: repro.cli``), ``python -m bench``, or a script under ``scripts/``.
_COMMAND = re.compile(
    r"(?<![^\s$(])(?:(prins|python3? -m repro\.cli)|python3? -m (bench)"
    r"|(scripts/[A-Za-z0-9_]+\.py))(?=\s|$)"
)
_FLAG = re.compile(r"(?<![\w-])(--[A-Za-z][A-Za-z0-9-]*)")
#: shell operators that end one command and may start another.
_SHELL_BREAK = re.compile(r"\|\||&&|[|;]")

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


@lru_cache(maxsize=None)
def class_index() -> dict[str, tuple[set[str], set[str]]]:
    """Class name -> (member names, base class names) under ``src/repro``.

    Members are the class body's functions, nested classes and assigned
    names plus every ``self.<name>`` its methods assign.  Classes that
    share a name pool their members.
    """
    index: dict[str, tuple[set[str], set[str]]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            members, bases = index.setdefault(node.name, (set(), set()))
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.add(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.add(base.attr)
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    members.add(item.name)
                elif isinstance(item, ast.Assign):
                    members.update(
                        t.id for t in item.targets if isinstance(t, ast.Name)
                    )
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    members.add(item.target.id)
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    members.add(sub.attr)
    return index


def has_member(cls: str, member: str, seen: frozenset = frozenset()) -> bool:
    """True when ``cls`` or one of its bases under ``src/repro`` has ``member``."""
    index = class_index()
    if cls in seen or cls not in index:
        return False
    members, bases = index[cls]
    return member in members or any(
        has_member(base, member, seen | {cls}) for base in bases
    )


@lru_cache(maxsize=None)
def config_fields() -> frozenset[str]:
    """The annotated fields of ``ReplicationConfig`` in ``src/repro/api.py``."""
    tree = ast.parse((REPO_ROOT / "src" / "repro" / "api.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ReplicationConfig":
            return frozenset(
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            )
    return frozenset()


def code_snippets(text: str) -> list[str]:
    """The fenced blocks of ``text``, then the inline code spans outside them."""
    return _FENCE.findall(text) + _INLINE.findall(_FENCE.sub("", text))


def config_keywords(text: str) -> Iterator[str]:
    """Keywords of every ``ReplicationConfig(...)`` call in ``text``'s code.

    Only the call's own keywords count: anything nested in brackets
    (``observability=ObservabilityConfig(enabled=True)``) is masked out.
    """
    for snippet in code_snippets(text):
        for match in _CONFIG_CALL.finditer(snippet):
            depth, args = 1, []
            for char in snippet[match.end() :]:
                depth += char in "([{"
                depth -= char in ")]}"
                if depth == 0:
                    break
                args.append(char if depth == 1 else " ")
            yield from _KEYWORD.findall("".join(args))


@lru_cache(maxsize=None)
def parser_flags(path: Path) -> frozenset[str]:
    """Every ``--flag`` string literal passed to ``add_argument`` in ``path``."""
    flags = {"--help"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            flags.update(
                arg.value
                for arg in node.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("--")
            )
    return frozenset(flags)


def unknown_flags(text: str) -> Iterator[tuple[str, str]]:
    """``(command, flag)`` for each flag its command's parser does not add."""
    lines = [
        line
        for snippet in code_snippets(text)
        for line in snippet.replace("\\\n", " ").splitlines()
    ]
    for line in lines:
        for segment in _SHELL_BREAK.split(line):
            match = _COMMAND.search(segment)
            if match is None:
                continue
            prins, bench, script = match.groups()
            if prins:
                source, name = REPO_ROOT / "src" / "repro" / "cli.py", "prins"
            elif bench:
                source, name = REPO_ROOT / "bench" / "cli.py", "python -m bench"
            else:
                source, name = REPO_ROOT / script, script
            if not source.exists():
                continue  # a missing script is reported as a code path
            for flag in _FLAG.findall(segment[match.end() :]):
                if flag not in parser_flags(source):
                    yield name, flag


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

    for match in _MEMBER.finditer(text):
        cls, member = match.groups()
        if cls in class_index() and not has_member(cls, member):
            problems.append(f"{doc.name}: no member `{cls}.{member}`")

    for keyword in config_keywords(text):
        if keyword not in config_fields():
            problems.append(f"{doc.name}: no ReplicationConfig field `{keyword}`")

    for command, flag in unknown_flags(text):
        problems.append(f"{doc.name}: `{command}` has no flag `{flag}`")

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
