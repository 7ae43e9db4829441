"""Command line of the benchmark: ``run``, ``compare``, ``selfcheck``, ``sweep``.

``run`` is what ``BENCHMARK.json`` names as the command.  Its last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of an
untraced run, or with ``--trace 1`` the per-layer metrics of a traced one.
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from bench import report
from bench.runner import measure, pin_to_one_cpu
from bench.spec import Spec, load_spec


def _run_set(
    names: list[str],
    args: argparse.Namespace,
    spec: Spec,
    trace: bool = False,
    spans: str | None = None,
) -> dict[str, Any]:
    """Measure each named workload once; returns one result file's content."""
    cpu = pin_to_one_cpu()
    results = {}
    for name in names:
        probe = None
        if trace:
            # imported here only: the untraced run never loads the tracer
            from bench.trace import TraceSession

            probe = TraceSession()
        result = measure(name, args.seed, args.seconds, args.smoke, probe)
        report.print_result(result, spec)
        results[name] = result
        if probe is not None and spans:
            probe.dump(f"{spans}.{name}.json")
    return {
        "meta": report.meta(args.seed, args.seconds, args.smoke, cpu),
        "results": results,
    }


def cmd_run(args: argparse.Namespace, spec: Spec) -> int:
    """Run one workload (or all five) and print every metric by name."""
    chosen = args.workload_opt or args.workload
    names = [chosen] if chosen else list(spec.workloads)
    record = _run_set(names, args, spec, bool(args.trace), args.spans)
    if args.out:
        with open(args.out, "w") as out:
            json.dump(record, out, indent=1)
    flatten = report.per_layer if args.trace else report.end_to_end
    metrics: dict[str, Any] = {}
    for name, result in record["results"].items():
        for key, value in flatten(result, spec).items():
            metrics[key if chosen else f"{name}/{key}"] = value
    results = record["results"].values()
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def cmd_compare(args: argparse.Namespace, spec: Spec) -> int:
    """Compare result file B against A, row by row, against the bounds."""
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    for side, record in (("A", a), ("B", b)):
        m = record["meta"]
        print(
            f"{side}: git {m['git_sha'][:12]} seed {m['seed']} "
            f"{m['seconds']} s nproc {m['nproc']} python {m['python']}"
        )
    rows = report.compare(a, b, spec)
    bad = [row for row in rows if row[2] in ("worse", "broken")]
    return 1 if bad else 0


def cmd_selfcheck(args: argparse.Namespace, spec: Spec) -> int:
    """Two run-sets of the same tree must agree within the bounds.

    Agreement is symmetric: ``better`` by more than a bound is as much a
    disagreement as ``worse``.  With ``--smoke`` the runs are too short for
    their timings to mean anything, so only correctness and same-seed
    determinism (op-stream hash, wire bytes) decide the exit code.
    """
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    names = list(spec.workloads)
    first = _run_set(names, args, spec)
    second = _run_set(names, args, spec)
    rows = report.compare(first, second, spec)
    wrong = {"broken"} if args.smoke else {"broken", "worse", "better"}
    bad = [row for row in rows if row[2] in wrong]
    correct = all(
        r["correct"] for s in (first, second) for r in s["results"].values()
    )
    for row in bad:
        print("DISAGREE: %s %s %s" % row)
    print("selfcheck:", "ok" if correct and not bad else "FAILED")
    return 0 if correct and not bad else 1


def cmd_sweep(args: argparse.Namespace, spec: Spec) -> int:
    """Rerun one workload under config overrides, interleaved with the base."""
    from bench.sweep import sweep

    return sweep(args.workload, args.set, args.seed, args.seconds)


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and dispatch; returns the exit code."""
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=spec.run_seconds)
        p.add_argument(
            "--smoke",
            action="store_true",
            help="short op streams and one set-up: wiring check, < 5 s a workload",
        )

    run = sub.add_parser("run", help=cmd_run.__doc__)
    run.add_argument("workload", nargs="?", choices=list(spec.workloads))
    run.add_argument(
        "--workload", dest="workload_opt", choices=list(spec.workloads)
    )
    common(run)
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1))
    run.add_argument("--out", help="write the full result record here")
    run.add_argument("--spans", help="traced run: write spans to PREFIX.<workload>.json")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help=cmd_compare.__doc__)
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(func=cmd_compare)

    check = sub.add_parser("selfcheck", help=cmd_selfcheck.__doc__)
    common(check)
    check.set_defaults(func=cmd_selfcheck)

    swp = sub.add_parser("sweep", help=cmd_sweep.__doc__)
    swp.add_argument("workload", choices=list(spec.workloads))
    swp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     required=True)
    swp.add_argument("--seed", type=int, default=1)
    swp.add_argument("--seconds", type=float, default=spec.run_seconds)
    swp.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args, spec)
