#!/usr/bin/env python3
"""Which functions under ``src/repro`` no entry point reaches.

Stdlib-only.  Runs the repo's entry points in this one process under
``sys.setprofile`` (and ``threading.setprofile`` for the threads they
start): every example, ``prins all``, the documented ``prins`` command
lines, the five ``python -m bench run --smoke`` workloads (untraced and
traced), ``pytest benchmarks --benchmark-disable`` and each
``scripts/bench_*.py --smoke``.  Codec worker processes are forked, so
the probe follows them too: a forked child keeps profiling and writes
what it called to a scratch file when it exits.

It then lists every function defined under ``src/repro`` that none of
them called, with its line count, and checks that list against
``scripts/reachability_allowlist.txt``.  Exit status 1 when

* an unreached function is not on the list (new dead code), or
* a listed function no longer exists (the list shrinks as code goes:
  delete the lines the ``GONE`` report names),

or when an entry point itself fails.  A listed function that was reached
is only reported, so a function that some runs reach and others miss (a
path taken on timing or on the CPU count) is listed and cannot make the
check flaky.  Entries tagged ``worker`` are functions that ran only in a
forked worker process.

Usage::

    PYTHONPATH=src python scripts/check_reachability.py

A full run takes several minutes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import multiprocessing.process
import os
import runpy
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = REPO_ROOT / "scripts" / "reachability_allowlist.txt"
WORKER_TAG = "worker"

# --------------------------------------------------------------------------
# the functions under src/repro
# --------------------------------------------------------------------------


def function_index() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (name, line count)`` for every function.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line for a decorated function.  The name is
    ``module:Qualified.name``; a second definition of the same name in a
    module (a property setter, say) gets ``#2``.
    """
    index: dict[tuple[str, int], tuple[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        counts: dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    counts[qualname] = counts.get(qualname, 0) + 1
                    if counts[qualname] > 1:
                        qualname += f"#{counts[qualname]}"
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    lines = child.end_lineno - first + 1
                    index[(str(path), first)] = (f"{module}:{qualname}", lines)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return index


# --------------------------------------------------------------------------
# the profiler
# --------------------------------------------------------------------------

_seen: set = set()


def _profile(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


def _seen_keys() -> set[tuple[str, int]]:
    """``(file, first line)`` of every called code object under src/repro."""
    prefix = str(PACKAGE) + os.sep
    keys = set()
    for code in list(_seen):
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(prefix):
            keys.add((filename, code.co_firstlineno))
    return keys


def _follow_forked_workers(spool: Path) -> None:
    """Make each forked child profile itself and spool what it called.

    ``fork`` copies the parent's profiler and its ``_seen`` set; the child
    starts from an empty set so the spool holds only what it ran.
    """
    original = multiprocessing.process.BaseProcess._bootstrap

    def _bootstrap(self, *args, **kwargs):
        _seen.clear()
        sys.setprofile(_profile)
        try:
            return original(self, *args, **kwargs)
        finally:
            sys.setprofile(None)
            keys = sorted(_seen_keys())
            (spool / f"{os.getpid()}.json").write_text(json.dumps(keys))

    multiprocessing.process.BaseProcess._bootstrap = _bootstrap


# --------------------------------------------------------------------------
# the entry points
# --------------------------------------------------------------------------


def _run_script(path: Path, *args: str) -> None:
    """Run ``path`` as ``__main__`` with ``args``; a nonzero exit raises."""
    saved = sys.argv
    sys.argv = [str(path), *args]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exit_:
        if exit_.code not in (None, 0):
            raise RuntimeError(f"{path.name} exited with {exit_.code}") from None
    finally:
        sys.argv = saved


def _prins(*argv: str) -> None:
    from repro.cli import main

    code = main(list(argv))
    if code not in (None, 0):
        raise RuntimeError(f"prins {' '.join(argv)} exited with {code}")


def _examples(tmp: Path) -> None:
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        args = ("--scale", "small") if path.name == "tpcc_traffic_study.py" else ()
        _run_script(path, *args)


def _prins_all(tmp: Path) -> None:
    _prins("all")


def _demo(tmp: Path) -> None:
    """A fixed list of ``prins`` command lines, one or more per subcommand.

    The list is not read from the docs.  A subcommand that no line here
    runs leaves its functions unreached, so the check fails until the
    subcommand gets a line here (or its functions a line in the list).
    """
    from repro.api import ReplicationConfig

    snap, prtr, cfg = tmp / "s.json", tmp / "t.prtr", tmp / "cfg.json"
    cfg.write_text(json.dumps(ReplicationConfig(replicas=2).to_dict()))
    for argv in (
        ["list"],
        ["testbed"],
        ["demo"],
        ["demo", "--batch-window", "16"],
        ["demo", "--fanout", "pipelined", "--replicas", "4"],
        ["demo", "--redundancy", "erasure", "--k", "4", "--n", "6"],
        ["demo", "--replicas", "4", "--read-policy", "replica"],
        ["demo", "--workers", "process", "--worker-count", "2"],
        ["demo", "--transport", "tcp"],
        ["demo", "--config", str(cfg)],
        ["demo", "--workload", "tpcc", "--json", str(snap)],
        ["metrics", str(snap)],
        ["metrics", str(snap), "--format", "prometheus"],
        ["trace", "report", str(snap)],
        ["trace", "critical", str(snap)],
        ["trace", "chrome", str(snap), "--out", str(tmp / "chrome.json")],
        ["flightrec", "dump", str(snap), "--out", str(tmp / "dump.json")],
        ["flightrec", "show", str(tmp / "dump.json")],
        ["experiment", "fig4"],
        ["experiment", "fig4", "--json", str(tmp / "fig4.json")],
        ["trace", "capture", str(prtr), "--workload", "tpcc"],
        ["trace", "replay", str(prtr)],
    ):
        _prins(*argv)


def _bench(tmp: Path) -> None:
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from bench.cli import main

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    try:
        for argv in (["run", "--smoke"], ["run", "--smoke", "--trace"]):
            if main(argv) != 0:
                raise RuntimeError(f"python -m bench {' '.join(argv)} failed")
    finally:
        if affinity is not None:  # bench pins this process to one CPU
            os.sched_setaffinity(0, affinity)


def _pytest_benchmarks(tmp: Path) -> None:
    import pytest

    code = pytest.main(
        ["benchmarks", "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
    )
    # a failed assertion still ran its code; some assert wall-clock ratios
    # that the profiler distorts, and CI runs these tests unprofiled anyway
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        raise RuntimeError(f"pytest benchmarks exited with {code}")
    if code == pytest.ExitCode.TESTS_FAILED:
        print("note: a benchmarks test failed under the profiler", file=sys.stderr)


def _bench_scripts(tmp: Path) -> None:
    for path in sorted((REPO_ROOT / "scripts").glob("bench_*.py")):
        _run_script(path, "--smoke", "--out", str(tmp / f"{path.stem}.json"))


ENTRY_POINTS: dict[str, Callable[[Path], None]] = {
    "examples": _examples,
    "all": _prins_all,
    "demo": _demo,
    "bench": _bench,
    "benchmarks": _pytest_benchmarks,
    "scripts": _bench_scripts,
}


def run_entry_points() -> tuple[set, set, list[str]]:
    """Run them all; returns (keys seen here, keys seen in workers, errors)."""
    errors: list[str] = []
    os.chdir(REPO_ROOT)
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        tmp = Path(scratch)
        spool = tmp / "workers"
        spool.mkdir()
        _follow_forked_workers(spool)
        for name, entry_point in ENTRY_POINTS.items():
            began = time.monotonic()
            threading.setprofile(_profile)
            sys.setprofile(_profile)
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    entry_point(tmp)
            except Exception as exc:  # noqa: BLE001 - reported, then fails
                traceback.print_exc()
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            print(f"ran {name:<10} {time.monotonic() - began:6.1f} s", flush=True)
        here = _seen_keys()
        workers: set = set()
        for dump in spool.glob("*.json"):
            workers.update(tuple(key) for key in json.loads(dump.read_text()))
    return here, workers, errors


# --------------------------------------------------------------------------
# the allowlist
# --------------------------------------------------------------------------


def read_allowlist() -> dict[str, str]:
    """``name -> tag`` ('' or 'worker') from the checked-in list."""
    entries = {}
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            entries[fields[0]] = fields[1] if len(fields) > 1 else ""
    return entries


def compare(
    index: dict[tuple[str, int], tuple[str, int]],
    unreached: dict[str, tuple[int, bool]],
    allowed: dict[str, str],
) -> dict[str, list[str]]:
    """Sort a run against the allowlist.

    ``new`` (unreached, unlisted) and ``gone`` (listed, no such function)
    fail the check; ``reached`` (listed, but called this run) and
    ``retagged`` (the worker tag differs this run) are only reported.
    """
    known = {name for name, _ in index.values()}
    return {
        "new": sorted(set(unreached) - set(allowed)),
        "gone": sorted(set(allowed) - known),
        "reached": sorted(set(allowed) & known - set(unreached)),
        "retagged": sorted(
            name
            for name in set(allowed) & set(unreached)
            if (allowed[name] == WORKER_TAG) != unreached[name][1]
        ),
    }


def main(argv: list[str] | None = None) -> int:
    """Run every entry point and check the list; returns the exit status."""
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path.insert(0, str(SRC))
    index = function_index()
    here, workers, errors = run_entry_points()

    #: name -> (line count, ran in a worker)
    unreached = {
        name: (lines, key in workers)
        for key, (name, lines) in index.items()
        if key not in here
    }
    total = sum(lines for _, lines in index.values())
    missed = sum(lines for lines, _ in unreached.values())
    print(
        f"{len(index)} functions, {total} lines: {len(unreached)} functions "
        f"and {missed} lines unreached ({missed / total:.1%}); "
        f"{sum(w for _, w in unreached.values())} ran only in workers"
    )
    for error in errors:
        print(f"FAILED  entry point {error}")

    found = compare(index, unreached, read_allowlist())
    for name in found["new"]:
        print(f"UNREACHED  {unreached[name][0]:5d}  {name}  (not in the allowlist)")
    for name in found["gone"]:
        print(f"GONE       {name}  (listed, but no such function: delete the line)")
    for name in found["reached"]:
        print(f"note: reached this run, but listed: {name}")
    for name in found["retagged"]:
        print(f"note: worker tag differs this run: {name}")
    bad = len(found["new"]) + len(found["gone"]) + len(errors)
    print("reachability:", "ok" if not bad else f"FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
