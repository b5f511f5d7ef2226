"""Command-line front end.

Subcommands:

    solve --alg {da|yokoi|min-ep|brute-ep|brute-er} --in FILE [--out FILE] [--json]
          [--budget N] [--level-cap N]
    verify --in FILE [--json] MATCHING
    gen vc2ep --graph FILE --k K [--gadget-l L] [--out FILE] [--cert cover:v1,v2]
    gen clique2er --graph FILE --k K [--copies T] [--out FILE] [--cert clique:v1,v2]
    oracle --in FILE [--budget N] [--json]

Exit codes: 0 solution produced / verification done, 1 no solution
(no envy-free matching, infeasible), 2 input error, 3 budget or level cap
exceeded.  Results go to stdout, diagnostics to stderr.  Output is
byte-deterministic for fixed inputs and flags; --json switches the report to
a single machine-readable document, exit 1's outcome included.
"""

from __future__ import annotations

import argparse
import json
import os.path
import signal
import sys
import warnings
from types import SimpleNamespace

from . import algorithms, core, formats, reductions

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3


class _UsageError(Exception):
    """Options that cannot go together; reported like every other input error."""


def _count(text: str) -> int:
    """argparse type for counts: ASCII digits only, as in the files; anything else exits 2."""
    try:
        return formats._natural(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None


# Per `hrlq gen` kind; `cert_prefix` also names the target in `--k`'s help.
_GENERATORS = {
    "vc2ep": SimpleNamespace(
        help="vertex cover -> min envy-pairs instance", cert_prefix="cover",
        option="--gadget-l", option_help="gadget length (default n^2+1)",
        params=reductions.VCReductionParams, build=reductions.vc_to_min_ep,
        certify=reductions.matching_from_cover),
    "clique2er": SimpleNamespace(
        help="clique -> min envy-residents instance", cert_prefix="clique",
        option="--copies", option_help="residents per source edge (default n+1)",
        params=reductions.CliqueReductionParams, build=reductions.clique_to_min_er,
        certify=reductions.matching_from_clique),
}


def _yokoi(instance, args):
    # `is None`: an empty matching is falsy, and it may be the envy-free one.
    matching = algorithms.yokoi_envy_free(instance)
    if matching is None:
        return None
    return algorithms.SolveResult(matching, 0, algorithms.ObjectiveKind.ENVY_FREE,
                                  algorithms.SolveStats())


# What `hrlq solve --alg NAME` runs, in `--help`'s order: a SolveResult, None
# when there is no solution, or, for `da`, the one algorithm with no
# objective, a bare Matching.  Each reads the option it needs from `args`.
_SOLVERS = {
    "da": lambda instance, args: algorithms.deferred_acceptance(instance),
    "yokoi": _yokoi,
    "min-ep": lambda instance, args: algorithms.min_ep_exact(instance, level_cap=args.level_cap),
    "brute-ep": lambda instance, args: algorithms.brute_min_ep(instance, node_budget=args.budget),
    "brute-er": lambda instance, args: algorithms.brute_min_er(instance, node_budget=args.budget),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrlq",
        description="Minimal-envy matching under hospital quota intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run a solver on an instance file")
    verify = sub.add_parser("verify", help="report envy/feasibility of a matching")
    gen = sub.add_parser("gen", help="generate a hardness-reduction instance")
    oracle = sub.add_parser("oracle", help="brute-force both objectives")
    solve.set_defaults(run=_cmd_solve)
    verify.set_defaults(run=_cmd_verify)
    gen.set_defaults(run=_cmd_gen)
    oracle.set_defaults(run=_cmd_oracle)

    solve.add_argument("--alg", required=True, choices=_SOLVERS)
    for p in (solve, verify, oracle):
        p.add_argument("--in", dest="infile", required=True, help="instance file (.hrlq)")

    solve.add_argument("--out", help="also write the matching here (.match format)")
    for p in (solve, oracle):
        p.add_argument("--json", action="store_true")
        p.add_argument("--budget", type=_count, default=algorithms.DEFAULT_NODE_BUDGET,
                       help="search-node budget for brute-force algorithms")
    solve.add_argument("--level-cap", type=_count, default=None,
                       help="largest guess level min-ep may try")

    verify.add_argument("matching", help="matching file (.match)")
    verify.add_argument("--json", action="store_true")

    gensub = gen.add_subparsers(dest="kind", required=True)
    for kind, g in _GENERATORS.items():
        p = gensub.add_parser(kind, help=g.help)
        p.add_argument("--graph", required=True, help="source graph file (.g)")
        p.add_argument("--k", type=_count, required=True, help=f"target {g.cert_prefix} size")
        p.add_argument(g.option, dest="param", metavar="N", type=_count, default=None,
                       help=g.option_help)
        p.add_argument("--out", help="instance output file (default stdout)")
        p.add_argument("--cert", help=f"{g.cert_prefix}:v1,v2,... writes the certificate matching")

    return parser


def _read(path: str) -> str:
    """A file's text, less one leading byte-order mark, which no format declares."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read().removeprefix("\ufeff")
    except UnicodeDecodeError:
        raise formats.ParseError(f"{path}: not UTF-8 text") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def _fields(record) -> dict:
    """A record's fields by name, in declaration order, as --json writes them."""
    return {name: getattr(record, name) for name in record.__match_args__}


def _report(args, doc: dict, lines: list[str]) -> None:
    """Print `doc` as one JSON document under --json, otherwise the text lines."""
    print(json.dumps(doc, indent=2, sort_keys=True) if args.json else "\n".join(lines))


def _no_solution(args, outcome: str, line: str) -> int:
    """Report an outcome with no solution, as its `outcome` under --json, otherwise `line`."""
    doc = {"command": args.command, "outcome": outcome}
    if args.command == "solve":
        doc["algorithm"] = args.alg
    _report(args, doc, [line])
    return EXIT_NO_SOLUTION


def _rows(fields: dict) -> list[str]:
    """Aligned text rows: each key with `_` read as a space, a bool as yes/no, None as -."""
    width = max(map(len, fields))
    return [f"{key.replace('_', ' ').ljust(width)}  {_cell(value)}"
            for key, value in fields.items()]


def _cell(value) -> object:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return "-" if value is None else value


def _envy_counts(report: core.EnvyReport) -> dict:
    return {
        "feasible": report.feasible,
        "envy_free": not report.envy_pairs,
        "envy_pairs": len(report.envy_pairs),
        "envy_residents": len(report.envy_residents),
        "blocking_pairs": len(report.blocking_pairs),
    }


def _cmd_solve(args) -> int:
    instance = formats.parse_instance(_read(args.infile))
    result = _SOLVERS[args.alg](instance, args)
    if result is None:
        return _no_solution(args, "no-envy-free-matching", "no envy-free matching")
    if isinstance(result, core.Matching):
        matching, kind, objective, stats = result, None, None, None
    else:
        matching, kind, objective = result.matching, result.objective_kind.value, result.objective
        stats = _fields(result.stats)
    fields = {"algorithm": args.alg, "objective_kind": kind, "objective": objective,
              **_envy_counts(core.analyze(instance, matching))}
    rows = {**fields, **(stats or {})}
    if guess := rows.pop("guess", ()):
        rows["guess"] = " ".join(f"({r},{h})" for r, h in guess)
    listing = formats.serialize_matching(instance, matching)
    if args.out:
        _write(args.out, listing)
    doc = {"command": "solve", **fields, "matching": matching.pairs(), "stats": stats}
    _report(args, doc, [*_rows(rows), *listing.splitlines()])
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = formats.parse_instance(_read(args.infile))
    matching = formats.parse_matching(_read(args.matching), instance)
    report = core.analyze(instance, matching)
    doc = {"command": "verify", "envy_free": not report.envy_pairs, **_fields(report)}
    lines = _rows({
        **_envy_counts(report),
        "deficient": " ".join(report.deficient_hospitals) or None,
        "over_subscribed": " ".join(report.over_subscribed_hospitals) or None,
    })
    lines += [f"envy-pair {r} {h}" for r, h in report.envy_pairs]
    lines += [f"envy-resident {r}" for r in report.envy_residents]
    lines += [f"blocking-pair {r} {h}" for r, h in report.blocking_pairs]
    _report(args, doc, lines)
    return EXIT_OK


def _parse_cert(spec: str, expected_kind: str) -> set[int]:
    kind, sep, body = spec.partition(":")
    if not sep or kind != expected_kind:
        raise formats.ParseError(
            f"certificate must look like {expected_kind}:v1,v2,... (got {spec!r})"
        )
    vertices = set()
    for token in body.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            vertices.add(formats._natural(token[1:] if token.startswith("v") else token))
        except ValueError:
            raise formats.ParseError(f"bad certificate vertex {token!r}") from None
    if not vertices:
        raise formats.ParseError("certificate names no vertices")
    return vertices


def _cmd_gen(args) -> int:
    if args.cert and not args.out:
        raise _UsageError("--cert requires --out (the matching file is written next to it)")
    if args.cert and os.path.splitext(args.out)[1] == ".match":
        raise _UsageError(
            "--out may not end in .match with --cert (the matching file would overwrite it)")
    g = _GENERATORS[args.kind]
    graph = formats.parse_graph(_read(args.graph))
    graph = reductions.SourceGraph(graph.n, graph.edges, args.k)
    params = g.params(args.param)
    cert_vertices = _parse_cert(args.cert, g.cert_prefix) if args.cert else None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", reductions.SeparationBoundWarning)
            instance = g.build(graph, params)
            cert_matching = (None if cert_vertices is None
                             else g.certify(graph, params, cert_vertices))
        text = formats.serialize_instance(instance)
        cert_text = (None if cert_matching is None
                     else formats.serialize_matching(instance, cert_matching))
    except MemoryError:
        text = None  # reported once the except clause has freed what the build held
    if text is None:
        # The size is the caller's to choose; one too large for this process is
        # refused like any other input it cannot take, before anything is written.
        print(f"error: out of memory building {args.kind} for a graph of {graph.n} vertices "
              f"and {graph.m} edges with {g.option} {params.resolve(graph.n)}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    if cert_text is not None:
        # Next to --out, with its extension replaced or, where it has none, added.
        # It goes first, once --out has opened for append, so a file that cannot
        # be written fails the run before either file changes; an --out this run
        # created is removed again (through a link, the file the link names).
        created = not os.path.exists(args.out)
        open(args.out, "a").close()
        try:
            _write(os.path.splitext(args.out)[0] + ".match", cert_text)
        except OSError:
            if created:
                os.remove(os.path.realpath(args.out))
            raise
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = formats.parse_instance(_read(args.infile))
    doc, lines = {"command": "oracle"}, []
    for key, result in zip(("min_ep", "min_er"), algorithms._brute_optima(instance, args.budget)):
        doc[key] = {
            "objective": result.objective,
            "matching": result.matching.pairs(),
            "stats": _fields(result.stats),
        }
        lines.append(f"{key.replace('_', '-')} objective  {result.objective}")
        lines += formats.serialize_matching(instance, result.matching).splitlines()
    _report(args, doc, lines)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (
        formats.ParseError,
        core.InvalidInstanceError,
        core.InvalidMatchingError,
        reductions.ReductionError,
        OSError,
        _UsageError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except algorithms.Infeasible as exc:
        return _no_solution(args, "infeasible", f"infeasible: {exc}")
    except (algorithms.BudgetExceeded, algorithms.LevelCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED


def entrypoint() -> None:
    # A reader that closes the pipe early, as `head` does, ends the process
    # quietly by SIGPIPE, as it ends other filters; it is not an input error.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
