"""Command-line front end.

Subcommands:

    solve --alg {da|yokoi|min-ep|brute-ep|brute-er} --in FILE [--out FILE]
    verify --in FILE MATCHING
    gen vc2ep --graph FILE --k K [--gadget-l L] [--out FILE] [--cert cover:v1,v2]
    gen clique2er --graph FILE --k K [--copies T] [--out FILE] [--cert clique:v1,v2]
    oracle --in FILE

Exit codes: 0 solution produced / verification done, 1 no solution
(no envy-free matching, infeasible), 2 input error, 3 budget or level cap
exceeded.  Results go to stdout, diagnostics to stderr.  Output is
byte-deterministic for fixed inputs and flags; --json switches the report to
a single machine-readable document.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from collections import namedtuple
from pathlib import Path

from . import algorithms, core, formats, reductions

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3


def _count(text: str) -> int:
    """argparse type for counts: ASCII digits only, as in the files; anything else exits 2."""
    try:
        return formats._natural(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None


# Per `hrlq gen` kind: subcommand help, certificate prefix (also the target's
# name), the reduction's parameter option and its help, the parameter class,
# the generator and the certificate builder.
_Generator = namedtuple("_Generator", "help cert_prefix option option_help params build certify")
_GENERATORS = {
    "vc2ep": _Generator("vertex cover -> min envy-pairs instance", "cover", "--gadget-l",
                        "gadget length (default n^2+1)", reductions.VCReductionParams,
                        reductions.vc_to_min_ep, reductions.matching_from_cover),
    "clique2er": _Generator("clique -> min envy-residents instance", "clique", "--copies",
                            "residents per source edge (default n+1)",
                            reductions.CliqueReductionParams, reductions.clique_to_min_er,
                            reductions.matching_from_clique),
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

    solve.add_argument("--alg", required=True,
                       choices=["da", "yokoi", "min-ep", "brute-ep", "brute-er"])
    for p in (solve, verify, oracle):
        p.add_argument("--in", dest="infile", required=True, help="instance file (.hrlq)")

    solve.add_argument("--out", help="also write the matching here (.match format)")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--budget", type=_count, default=algorithms.DEFAULT_NODE_BUDGET,
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
        p.add_argument(g.option, type=_count, default=None, help=g.option_help)
        p.add_argument("--out", help="instance output file (default stdout)")
        p.add_argument("--cert", help=f"{g.cert_prefix}:v1,v2,... writes the certificate matching")

    oracle.add_argument("--json", action="store_true")
    oracle.add_argument("--budget", type=_count, default=algorithms.DEFAULT_NODE_BUDGET)

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise formats.ParseError(f"{path}: not UTF-8 text") from None


def _report(args, doc: dict, lines: list[str]) -> None:
    """Print `doc` as one JSON document under --json, otherwise the text lines."""
    print(json.dumps(doc, indent=2, sort_keys=True) if args.json else "\n".join(lines))


def _aligned(rows: list[tuple[str, object]]) -> list[str]:
    width = max(len(k) for k, _ in rows)
    return [f"{k.ljust(width)}  {v}" for k, v in rows]


def _envy_rows(report: core.EnvyReport) -> list[tuple[str, object]]:
    return [
        ("feasible", "yes" if report.feasible else "no"),
        ("envy free", "no" if report.envy_pairs else "yes"),
        ("envy pairs", len(report.envy_pairs)),
        ("envy residents", len(report.envy_residents)),
        ("blocking pairs", len(report.blocking_pairs)),
    ]


def _stats_dict(stats: algorithms.SolveStats) -> dict:
    d = dataclasses.asdict(stats)
    d["guess"] = [list(p) for p in stats.guess]
    return d


def _cmd_solve(args) -> int:
    instance = formats.parse_instance(_read(args.infile))
    result = None
    if args.alg == "da":
        matching = algorithms.deferred_acceptance(instance)
    elif args.alg == "yokoi":
        matching = algorithms.yokoi_envy_free(instance)
        if matching is None:
            _report(args, {"command": "solve", "algorithm": "yokoi",
                           "outcome": "no-envy-free-matching"}, ["no envy-free matching"])
            return EXIT_NO_SOLUTION
        result = algorithms.SolveResult(matching, 0, algorithms.ObjectiveKind.ENVY_FREE,
                                        algorithms.SolveStats())
    else:
        result = {
            "min-ep": lambda: algorithms.min_ep_exact(instance, level_cap=args.level_cap),
            "brute-ep": lambda: algorithms.brute_min_ep(instance, node_budget=args.budget),
            "brute-er": lambda: algorithms.brute_min_er(instance, node_budget=args.budget),
        }[args.alg]()
        matching = result.matching

    report = core.analyze(instance, matching)
    doc = {
        "command": "solve",
        "algorithm": args.alg,
        "objective_kind": result.objective_kind.value if result else None,
        "objective": result.objective if result else None,
        "feasible": report.feasible,
        "envy_free": not report.envy_pairs,
        "envy_pairs": len(report.envy_pairs),
        "envy_residents": len(report.envy_residents),
        "blocking_pairs": len(report.blocking_pairs),
        "matching": [list(p) for p in matching.pairs()],
        "stats": _stats_dict(result.stats) if result else None,
    }
    rows = [
        ("algorithm", args.alg),
        ("objective kind", result.objective_kind.value if result else "-"),
        ("objective", result.objective if result else "-"),
        *_envy_rows(report),
    ]
    if result:
        stats = result.stats
        rows += [("guesses examined", stats.guesses_examined), ("level", stats.level),
                 ("nodes", stats.nodes)]
        if stats.guess:
            rows.append(("guess", " ".join(f"({r},{h})" for r, h in stats.guess)))
    listing = formats.serialize_matching(instance, matching)
    _report(args, doc, [*_aligned(rows), *listing.splitlines()])
    if args.out:
        Path(args.out).write_text(listing, encoding="utf-8")
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = formats.parse_instance(_read(args.infile))
    matching = formats.parse_matching(_read(args.matching), instance)
    report = core.analyze(instance, matching)
    doc = {
        "command": "verify",
        "feasible": report.feasible,
        "envy_free": not report.envy_pairs,
        "envy_pairs": [list(p) for p in report.envy_pairs],
        "envy_residents": list(report.envy_residents),
        "blocking_pairs": [list(p) for p in report.blocking_pairs],
        "deficient_hospitals": list(report.deficient_hospitals),
        "over_subscribed_hospitals": list(report.over_subscribed_hospitals),
    }
    lines = _aligned([
        *_envy_rows(report),
        ("deficient", " ".join(report.deficient_hospitals) or "-"),
        ("over subscribed", " ".join(report.over_subscribed_hospitals) or "-"),
    ])
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
        print("--cert requires --out (the matching file is written next to it)",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.cert and Path(args.out).suffix == ".match":
        print("--out may not end in .match with --cert (the matching file would overwrite it)",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    g = _GENERATORS[args.kind]
    graph = formats.parse_graph(_read(args.graph))
    graph = dataclasses.replace(graph, k=args.k)
    params = g.params(getattr(args, g.option[2:].replace("-", "_")))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", reductions.SeparationBoundWarning)
        instance = g.build(graph, params)
        cert_matching = (
            g.certify(graph, params, _parse_cert(args.cert, g.cert_prefix)) if args.cert else None
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    text = formats.serialize_instance(instance)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    if cert_matching is not None:
        Path(args.out).with_suffix(".match").write_text(
            formats.serialize_matching(instance, cert_matching), encoding="utf-8"
        )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = formats.parse_instance(_read(args.infile))
    doc, lines = {"command": "oracle"}, []
    for key, result in zip(("min_ep", "min_er"), algorithms._brute_optima(instance, args.budget)):
        doc[key] = {
            "objective": result.objective,
            "matching": [list(p) for p in result.matching.pairs()],
            "stats": _stats_dict(result.stats),
        }
        lines.append(f"{key.replace('_', '-')} objective  {result.objective}")
        lines += formats.serialize_matching(instance, result.matching).splitlines()
    _report(args, doc, lines)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "gen": _cmd_gen,
        "oracle": _cmd_oracle,
    }[args.command]
    try:
        return handler(args)
    except (
        formats.ParseError,
        core.InvalidInstanceError,
        core.InvalidMatchingError,
        reductions.ReductionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except algorithms.Infeasible as exc:
        print(f"infeasible: {exc}")
        return EXIT_NO_SOLUTION
    except (algorithms.BudgetExceeded, algorithms.LevelCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED


def entrypoint() -> None:
    raise SystemExit(main())
