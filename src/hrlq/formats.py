"""Text formats: .hrlq instances, .g edge-list graphs, .match matchings.

Instance grammar (one declaration per line, `#` starts a comment, names are
non-whitespace tokens):

    resident <name>: <hospital> <hospital> ...     # most-preferred first
    hospital <name> [<l>,<u>]: <resident> ...

Graph grammar: a `p <n> <m>` header (n >= 1) followed by exactly m
`e <i> <j>` lines, 1-based with i < j.  Numbers in both grammars are ASCII
digits only.  Matching grammar: `match <resident> <hospital>` lines;
unmatched residents are omitted.  In all three grammars a line ends only at
LF, CR LF or CR; other line breaks, such as a form feed or U+2028, are
ordinary whitespace.  Serialization is the canonical form:
parse(serialize(x)) == x and repeated serialization is byte-identical.
"""

from __future__ import annotations

import re

from .core import (
    Instance, InvalidMatchingError, Matching, _choice, make_matching, validate_instance,
)
from .reductions import SourceGraph

_QUOTA_RE = re.compile(r"^\[([0-9]+),([0-9]+)\]$")


class ParseError(ValueError):
    """A malformed input file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _content_lines(text: str):
    """The 1-based number and the text, comment cut off, of each line that keeps any."""
    # str.splitlines() would also break at \x0b, \x0c, \x1c-\x1e, \x85, U+2028
    # and U+2029, and so make part of a comment a line of its own.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_instance(text: str) -> Instance:
    """Parse an .hrlq document into a validated Instance."""
    residents: dict[str, tuple[str, ...]] = {}
    hospitals: dict[str, tuple[str, ...]] = {}
    lists = {"resident": residents, "hospital": hospitals}
    quotas: dict[str, tuple[int, int]] = {}
    decl_line: dict[str, int] = {}

    for lineno, line in _content_lines(text):
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("expected ':' after the declaration head", lineno)
        fields = head.split()
        prefs = tuple(tail.split())
        if len(set(prefs)) != len(prefs):
            dup = next(p for i, p in enumerate(prefs) if p in prefs[:i])
            raise ParseError(f"duplicate preference entry {dup}", lineno)
        if len(fields) == 3 and fields[0] == "hospital":
            match = _QUOTA_RE.match(fields[2])
            if not match:
                raise ParseError(f"malformed quota token {fields[2]} (expected [l,u])", lineno)
            try:
                low, up = int(match.group(1)), int(match.group(2))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"quota of {fields[1]} has too many digits", lineno) from None
            if low > up:
                raise ParseError(f"quota inversion at {fields[1]}: lower {low} exceeds upper {up}",
                                 lineno)
            quotas[fields[1]] = (low, up)  # a repeated name raises below
        elif len(fields) != 2 or fields[0] != "resident":
            raise ParseError(f"unrecognized declaration: {line!r}", lineno)
        kind, name = fields[0], fields[1]
        if name in decl_line:
            raise ParseError(f"{name} already declared on line {decl_line[name]}", lineno)
        decl_line[name] = lineno
        lists[kind][name] = prefs

    # A name is declared once, so the keys of the lists are the declarations, in order.
    for kind, other in (("resident", "hospital"), ("hospital", "resident")):
        declared = lists[other]
        for name, prefs in lists[kind].items():
            for listed in prefs:
                if listed not in declared:
                    raise ParseError(
                        f"preference list of {kind} {name} names undeclared {other} {listed}",
                        decl_line[name],
                    )
    return validate_instance(residents.keys(), hospitals.keys(), residents, hospitals, quotas)


def serialize_instance(instance: Instance) -> str:
    """Canonical .hrlq form: residents in index order, then hospitals."""
    lines = []
    for r in instance.residents:
        prefs = " ".join(instance.resident_prefs[r])
        lines.append(f"resident {r}:" + (f" {prefs}" if prefs else ""))
    for h in instance.hospitals:
        low, up = instance.quotas[h]
        prefs = " ".join(instance.hospital_prefs[h])
        lines.append(f"hospital {h} [{low},{up}]:" + (f" {prefs}" if prefs else ""))
    return "\n".join(lines) + "\n"


def _natural(token: str) -> int:
    """`token` as an int when it is ASCII digits only: no sign, no '_', no other script."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a natural number: {token!r}")
    return int(token)


def parse_graph(text: str) -> SourceGraph:
    """Parse a `p n m` / `e i j` edge-list document.

    The target parameter is not part of the format; the returned graph has
    k = 0 and callers set it (the CLI uses --k).
    """
    n = None
    declared_m = 0
    edges: dict[tuple[int, int], None] = {}  # a dict keeps the order and finds a repeat
    for lineno, line in _content_lines(text):
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate p header", lineno)
            if len(fields) != 3:
                raise ParseError("expected 'p <n> <m>'", lineno)
            try:
                n, declared_m = _natural(fields[1]), _natural(fields[2])
            except ValueError:
                raise ParseError("p header fields must be integers", lineno) from None
            if n < 1:
                raise ParseError(f"graph needs at least one vertex, got n={n}", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before the p header", lineno)
            if len(fields) != 3:
                raise ParseError("expected 'e <i> <j>'", lineno)
            try:
                i, j = _natural(fields[1]), _natural(fields[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno) from None
            if not 1 <= i < j <= n:
                raise ParseError(f"edge ({i},{j}) is not 1 <= i < j <= {n}", lineno)
            if (i, j) in edges:
                raise ParseError(f"duplicate edge ({i},{j})", lineno)
            edges[i, j] = None
        else:
            raise ParseError(f"unrecognized line: {line!r}", lineno)
    if n is None:
        raise ParseError("missing p header")
    if len(edges) != declared_m:
        raise ParseError(f"p header declares {declared_m} edges but {len(edges)} were given")
    return SourceGraph(n=n, edges=tuple(edges))


def serialize_graph(graph: SourceGraph) -> str:
    lines = [f"p {graph.n} {graph.m}"]
    lines.extend(f"e {i} {j}" for i, j in graph.edges)
    return "\n".join(lines) + "\n"


def parse_matching(text: str, instance: Instance) -> Matching:
    """Parse `match <resident> <hospital>` lines, validated against the instance."""
    pairs = []
    for lineno, line in _content_lines(text):
        fields = line.split()
        if fields[0] != "match" or len(fields) != 3:
            raise ParseError(f"unrecognized line: {line!r}", lineno)
        pairs.append((fields[1], fields[2]))
    try:
        return make_matching(instance, pairs)
    except InvalidMatchingError as exc:
        raise ParseError(str(exc)) from exc


def serialize_matching(instance: Instance, matching: Matching) -> str:
    """Canonical .match form: matched residents in index order."""
    residents, hospitals = instance.residents, instance.hospitals
    lines = [f"match {residents[r]} {hospitals[h]}"
             for r, h in enumerate(_choice(instance, matching.pairs())) if h >= 0]
    return "\n".join(lines) + ("\n" if lines else "")
