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
from pathlib import Path

from . import algorithms, core, formats, reductions

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3


def _count(text: str) -> int:
    """argparse type for caps: a non-negative integer; anything else exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrlq",
        description="Minimal-envy matching under hospital quota intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--alg", required=True,
                       choices=["da", "yokoi", "min-ep", "brute-ep", "brute-er"])
    solve.add_argument("--in", dest="infile", required=True, help="instance file (.hrlq)")
    solve.add_argument("--out", help="also write the matching here (.match format)")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--budget", type=_count, default=algorithms.DEFAULT_NODE_BUDGET,
                       help="search-node budget for brute-force algorithms")
    solve.add_argument("--level-cap", type=_count, default=None,
                       help="largest guess level min-ep may try")

    verify = sub.add_parser("verify", help="report envy/feasibility of a matching")
    verify.add_argument("--in", dest="infile", required=True, help="instance file (.hrlq)")
    verify.add_argument("matching", help="matching file (.match)")
    verify.add_argument("--json", action="store_true")

    gen = sub.add_parser("gen", help="generate a hardness-reduction instance")
    gensub = gen.add_subparsers(dest="kind", required=True)
    vc = gensub.add_parser("vc2ep", help="vertex cover -> min envy-pairs instance")
    vc.add_argument("--graph", required=True, help="source graph file (.g)")
    vc.add_argument("--k", type=int, required=True, help="target cover size")
    vc.add_argument("--gadget-l", type=int, default=None,
                    help="gadget length (default n^2+1)")
    vc.add_argument("--out", help="instance output file (default stdout)")
    vc.add_argument("--cert", help="cover:v1,v2,... writes the certificate matching")
    cq = gensub.add_parser("clique2er", help="clique -> min envy-residents instance")
    cq.add_argument("--graph", required=True, help="source graph file (.g)")
    cq.add_argument("--k", type=int, required=True, help="target clique size")
    cq.add_argument("--copies", type=int, default=None,
                    help="residents per source edge (default n+1)")
    cq.add_argument("--out", help="instance output file (default stdout)")
    cq.add_argument("--cert", help="clique:v1,v2,... writes the certificate matching")

    oracle = sub.add_parser("oracle", help="brute-force both objectives")
    oracle.add_argument("--in", dest="infile", required=True, help="instance file (.hrlq)")
    oracle.add_argument("--json", action="store_true")
    oracle.add_argument("--budget", type=_count, default=algorithms.DEFAULT_NODE_BUDGET)

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise formats.ParseError(f"{path}: not UTF-8 text") from None


def _load_instance(path: str) -> core.Instance:
    return formats.parse_instance(_read(path))


def _stats_dict(stats: algorithms.SolveStats) -> dict:
    d = dataclasses.asdict(stats)
    d["guess"] = [list(p) for p in stats.guess]
    return d


def _report_lines(pairs: list[tuple[str, str]]) -> list[str]:
    width = max((len(k) for k, _ in pairs), default=0)
    return [f"{k.ljust(width)}  {v}" for k, v in pairs]


def _emit_solution(args, instance, matching, objective, objective_kind, stats) -> None:
    report = core.analyze(instance, matching)
    if args.json:
        doc = {
            "command": "solve",
            "algorithm": args.alg,
            "objective_kind": objective_kind,
            "objective": objective,
            "feasible": report.feasible,
            "envy_free": not report.envy_pairs,
            "envy_pairs": len(report.envy_pairs),
            "envy_residents": len(report.envy_residents),
            "blocking_pairs": len(report.blocking_pairs),
            "matching": [list(p) for p in matching.pairs()],
            "stats": _stats_dict(stats) if stats else None,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        rows = [
            ("algorithm", args.alg),
            ("objective kind", objective_kind if objective_kind else "-"),
            ("objective", str(objective) if objective is not None else "-"),
            ("feasible", "yes" if report.feasible else "no"),
            ("envy free", "yes" if not report.envy_pairs else "no"),
            ("envy pairs", str(len(report.envy_pairs))),
            ("envy residents", str(len(report.envy_residents))),
            ("blocking pairs", str(len(report.blocking_pairs))),
        ]
        if stats:
            rows.append(("guesses examined", str(stats.guesses_examined)))
            rows.append(("level", str(stats.level)))
            rows.append(("nodes", str(stats.nodes)))
            if stats.guess:
                rows.append(("guess", " ".join(f"({r},{h})" for r, h in stats.guess)))
        print("\n".join(_report_lines(rows)))
        listing = formats.serialize_matching(instance, matching)
        if listing:
            print(listing, end="")
    if args.out:
        Path(args.out).write_text(
            formats.serialize_matching(instance, matching), encoding="utf-8"
        )


def _cmd_solve(args) -> int:
    instance = _load_instance(args.infile)
    if args.alg == "da":
        matching = algorithms.deferred_acceptance(instance)
        _emit_solution(args, instance, matching, None, None, None)
        return EXIT_OK
    if args.alg == "yokoi":
        matching = algorithms.yokoi_envy_free(instance)
        if matching is None:
            if args.json:
                print(json.dumps({"command": "solve", "algorithm": "yokoi",
                                  "outcome": "no-envy-free-matching"},
                                 indent=2, sort_keys=True))
            else:
                print("no envy-free matching")
            return EXIT_NO_SOLUTION
        _emit_solution(args, instance, matching, 0, algorithms.ObjectiveKind.ENVY_FREE.value,
                       algorithms.SolveStats())
        return EXIT_OK

    solver = {
        "min-ep": lambda: algorithms.min_ep_exact(instance, level_cap=args.level_cap),
        "brute-ep": lambda: algorithms.brute_min_ep(instance, node_budget=args.budget),
        "brute-er": lambda: algorithms.brute_min_er(instance, node_budget=args.budget),
    }[args.alg]
    result = solver()
    _emit_solution(args, instance, result.matching, result.objective,
                   result.objective_kind.value, result.stats)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = _load_instance(args.infile)
    matching = formats.parse_matching(_read(args.matching), instance)
    report = core.analyze(instance, matching)
    if args.json:
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
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        rows = [
            ("feasible", "yes" if report.feasible else "no"),
            ("envy free", "yes" if not report.envy_pairs else "no"),
            ("envy pairs", str(len(report.envy_pairs))),
            ("envy residents", str(len(report.envy_residents))),
            ("blocking pairs", str(len(report.blocking_pairs))),
            ("deficient", " ".join(report.deficient_hospitals) or "-"),
            ("over subscribed", " ".join(report.over_subscribed_hospitals) or "-"),
        ]
        print("\n".join(_report_lines(rows)))
        for r, h in report.envy_pairs:
            print(f"envy-pair {r} {h}")
        for r in report.envy_residents:
            print(f"envy-resident {r}")
        for r, h in report.blocking_pairs:
            print(f"blocking-pair {r} {h}")
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
        digits = token[1:] if token.startswith("v") else token
        if not (digits.isascii() and digits.isdigit()):
            raise formats.ParseError(f"bad certificate vertex {token!r}")
        vertices.add(int(digits))
    if not vertices:
        raise formats.ParseError("certificate names no vertices")
    return vertices


def _cmd_gen(args) -> int:
    if args.cert and not args.out:
        print("--cert requires --out (the matching file is written next to it)",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    graph = formats.parse_graph(_read(args.graph))
    graph = dataclasses.replace(graph, k=args.k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", reductions.SeparationBoundWarning)
        if args.kind == "vc2ep":
            params = reductions.VCReductionParams(args.gadget_l)
            instance = reductions.vc_to_min_ep(graph, params)
            cert_matching = (
                reductions.matching_from_cover(graph, params, _parse_cert(args.cert, "cover"))
                if args.cert
                else None
            )
        else:
            params = reductions.CliqueReductionParams(args.copies)
            instance = reductions.clique_to_min_er(graph, params)
            cert_matching = (
                reductions.matching_from_clique(graph, params, _parse_cert(args.cert, "clique"))
                if args.cert
                else None
            )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    text = formats.serialize_instance(instance)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    if cert_matching is not None:
        cert_path = Path(args.out).with_suffix(".match")
        cert_path.write_text(
            formats.serialize_matching(instance, cert_matching), encoding="utf-8"
        )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = _load_instance(args.infile)
    ep, er = algorithms._brute_optima(instance, args.budget)
    if args.json:
        doc = {
            "command": "oracle",
            "min_ep": {
                "objective": ep.objective,
                "matching": [list(p) for p in ep.matching.pairs()],
                "stats": _stats_dict(ep.stats),
            },
            "min_er": {
                "objective": er.objective,
                "matching": [list(p) for p in er.matching.pairs()],
                "stats": _stats_dict(er.stats),
            },
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"min-ep objective  {ep.objective}")
        print(formats.serialize_matching(instance, ep.matching), end="")
        print(f"min-er objective  {er.objective}")
        print(formats.serialize_matching(instance, er.matching), end="")
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


if __name__ == "__main__":
    raise SystemExit(main())
