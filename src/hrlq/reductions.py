"""Hardness-reduction instance generators and their certificate matchings.

Two constructions are provided:

* vertex cover -> minimum-envy-pair instances where every hospital has quota
  [1,1]; each source edge becomes a cycle gadget of length 4*gadget_length
  with exactly two perfect matchings, each carrying exactly one internal
  envy-pair.  A size-K cover yields a matching with at most n^2 + m
  envy-pairs, while a cover-free graph forces at least n^2 + m + 1.
* clique -> minimum-envy-resident instances with a sink hospital whose quota
  pins every edge-copy resident; a K-clique yields a matching with at most
  (m - C(K,2))*t + n envy-residents, no clique forces at least
  (m - C(K,2) + 1)*t.

The separation between the two bounds needs the full-strength defaults
(gadget_length = n^2 + 1, copies = n + 1); smaller values keep the instances
tiny for exhaustive tests but void the separation, so the generators emit a
SeparationBoundWarning in that regime.

Each part of a construction is written once, as preference tables: the edge
gadget in `_gadget`, and the vertex-selection layer both reductions share in
`_with_vertex_layer`.  The stand-alone gadget, its two perfect matchings and
the certificate matchings are read off those tables.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable

from .core import (Instance, Matching, Pair, _collection, _plain_int, _Record, _shown,
                   _unwritable)


class ReductionError(ValueError):
    """A reduction parameter or certificate is unusable."""


class NotACover(ReductionError):
    """The claimed vertex set leaves some edge uncovered."""


class NotAClique(ReductionError):
    """The claimed vertex set contains a non-adjacent pair."""


class WrongSize(ReductionError):
    """The certificate has the wrong cardinality for the target parameter."""


class SeparationBoundWarning(UserWarning):
    """Generator parameters too small for the yes/no objective gap to hold."""


class SourceGraph(_Record):
    """Undirected source graph: vertices 1..n, edges as (i, j) with i < j.

    `k` is the target parameter (cover size / clique size); 0 means not yet
    set, as when parsed from an edge-list file.  `n`, `k` and the endpoints
    must be plain ints that `str` can write; each edge is stored as a tuple
    of the values given.
    """

    __match_args__ = ("n", "edges", "k")
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], k: int = 0) -> None:
        if _written(n, "vertex count n") < 1:
            raise ReductionError(f"graph needs at least one vertex, got n={n}")
        edges = tuple(map(_pair, _collection(edges, "edges", ReductionError)))
        seen = set()
        for i, j in edges:
            if not 1 <= i < j <= n:
                raise ReductionError(f"edge ({i},{j}) is not 1 <= i < j <= {n}")
            if (i, j) in seen:
                raise ReductionError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        if not 0 <= _written(k, "target parameter k") <= n:
            raise ReductionError(f"target parameter k={k} outside 1..{n} (0 leaves it unset)")
        self.__dict__.update(n=n, edges=edges, k=k)

    @property
    def m(self) -> int:
        return len(self.edges)


class VCReductionParams(_Record):
    """gadget_length is the half-length of each side of the edge gadget: a plain
    int >= 2 that `str` can write, checked here, or None for n^2 + 1."""

    __match_args__ = ("gadget_length",)
    gadget_length: int | None

    def __init__(self, gadget_length: int | None = None) -> None:
        if gadget_length is not None:
            _check_gadget_length(gadget_length)
        self.__dict__["gadget_length"] = gadget_length

    def resolve(self, n: int) -> int:
        return self.gadget_length if self.gadget_length is not None else n * n + 1


class CliqueReductionParams(_Record):
    """copies is the number of residents per source edge: a plain int >= 1
    that `str` can write, checked here, or None for n + 1."""

    __match_args__ = ("copies",)
    copies: int | None

    def __init__(self, copies: int | None = None) -> None:
        if copies is not None and _written(copies, "copies") < 1:
            raise ReductionError(f"copies must be >= 1, got {copies}")
        self.__dict__["copies"] = copies

    def resolve(self, n: int) -> int:
        return self.copies if self.copies is not None else n + 1


def _v(i: int) -> str:
    return f"v{i}"


def _c(i: int) -> str:
    return f"c{i}"


def _f(i: int) -> str:
    return f"f{i}"


def _e(i: int, j: int, k: int) -> str:
    return f"e{i}_{j}_{k}"


def _written(value: int, what: str) -> int:
    """`value` if it is a plain int that `str` can write, for `repr`, `serialize_graph` and errors do."""
    if _unwritable(_plain_int(value, what, ReductionError)):
        raise ReductionError(f"{what} has too many digits")
    return value


def _pair(edge: tuple[int, int]) -> tuple[int, int]:
    try:
        i, j = edge
    except (TypeError, ValueError):
        raise ReductionError(f"edge must be a pair of vertices, got {_shown(edge)}") from None
    return _written(i, "edge endpoint"), _written(j, "edge endpoint")


def _check_gadget_length(length: int) -> None:
    if _written(length, "gadget_length") < 2:
        raise ReductionError(f"gadget_length must be >= 2, got {length}")


def _check_edge(edge: tuple[int, int]) -> tuple[int, int]:
    i, j = _pair(edge)
    if not 1 <= i < j:
        raise ReductionError(f"edge must satisfy i < j, got ({i},{j})")
    return i, j


def _require_k(graph: SourceGraph) -> int:
    if graph.k < 1:
        raise ReductionError("target parameter k must be set (1 <= k <= n)")
    return graph.k


def _gadget(i: int, j: int, length: int) -> tuple[dict[str, tuple[str, str, str]],
                                                 dict[str, tuple[str, str]]]:
    """Preference lists of the 2*length residents and 2*length hospitals of
    the gadget for edge (i, j), each table in declaration order: side 0, then
    side 1, each by position a = 1..length.

    Resident s_side_a ranks its own chain hospital t_side_a first, the vertex
    hospital (v_i on side 0, v_j on side 1) second and the next chain
    hospital third (wrapping); hospital t_side_a ranks s_side_(a-1), then
    s_side_a.  The sides cross at position 1: s_0_1's third choice is t_1_1
    and s_1_1's first is t_0_2, so t_0_2 ranks s_1_1 first and t_1_1 ranks
    s_0_1 first, and t_0_1 ranks s_0_1 before s_0_length.
    """
    s0, s1, t0, t1 = ([f"{x}{i}_{j}_{side}_{a}" for a in range(1, length + 1)]
                      for x in "st" for side in (0, 1))
    residents: dict[str, tuple[str, str, str]] = {}
    hospitals: dict[str, tuple[str, str]] = {}
    for rs, hs, vertex in ((s0, t0, _v(i)), (s1, t1, _v(j))):
        for a in range(length):  # negative indices wrap round the side
            residents[rs[a]] = (hs[a], vertex, hs[a + 1 - length])
            hospitals[hs[a]] = (rs[a - 1], rs[a])
    residents[s0[0]] = (t0[0], _v(i), t1[0])
    residents[s1[0]] = (t0[1], _v(j), t1[1])
    hospitals[t0[0]] = (s0[0], s0[-1])
    hospitals[t0[1]] = (s1[0], s0[1])
    hospitals[t1[0]] = (s0[0], s1[-1])
    return residents, hospitals


def _gadget_matching(i: int, j: int, length: int, shield_i: bool) -> list[Pair]:
    """One of the gadget's two perfect matchings, in declaration order.

    m0 (shield_i false) gives every side-0 resident its first choice and
    every side-1 resident its third; m1 (shield_i true) does the reverse.
    A side-0 resident on its third choice prefers v_i, so m1 is the one to
    install when a cover resident, whom v_i ranks above them, holds v_i.
    """
    pick = (2, 0) if shield_i else (0, 2)  # the list position taken, by side
    residents = _gadget(i, j, length)[0]
    return [(r, listed[pick[n // length]]) for n, (r, listed) in enumerate(residents.items())]


def _with_vertex_layer(
    graph: SourceGraph,
    resident_prefs: dict[str, tuple[str, ...]],
    hospital_prefs: dict[str, tuple[str, ...]],
    quotas: dict[str, tuple[int, int]],
) -> Instance:
    """The given residents and hospitals behind the vertex-selection layer both reductions share.

    The k cover and n - k filler residents come first and rank the vertex
    hospitals v_1..v_n, which come first among the hospitals.  Vertex
    hospital v_i ranks the cover residents, then the given residents that
    list v_i, in their order, then the fillers.  Hospitals that `quotas`
    does not name get quota [1,1].
    """
    vertices = tuple(_v(i) for i in range(1, graph.n + 1))
    cover = tuple(_c(a) for a in range(1, graph.k + 1))
    fillers = tuple(_f(a) for a in range(1, graph.n - graph.k + 1))
    attached: dict[str, list[str]] = {v: [] for v in vertices}
    for r, prefs in resident_prefs.items():
        for h in prefs:
            if h in attached:
                attached[h].append(r)
    rp = {**dict.fromkeys(cover + fillers, vertices), **resident_prefs}
    hp = {**{v: cover + tuple(rs) + fillers for v, rs in attached.items()}, **hospital_prefs}
    return Instance(rp, hp, rp, hp, {h: quotas.get(h, (1, 1)) for h in hp})


def _vertex_set(graph: SourceGraph, vertices: Iterable[int], what: str) -> set[int]:
    """A certificate's vertices as a set, all of them in 1..n."""
    chosen = {_written(v, f"{what} vertex")
              for v in _collection(vertices, what, ReductionError)}
    bad = [v for v in sorted(chosen) if not 1 <= v <= graph.n]
    if bad:
        raise ReductionError(f"{what} names unknown vertices: {bad}")
    return chosen


def _layer_assignment(graph: SourceGraph, chosen: set[int]) -> dict[str, str]:
    """Cover residents take the chosen vertices and filler residents the rest,
    both matched ascending-index to ascending-index."""
    rest = [v for v in range(1, graph.n + 1) if v not in chosen]
    assignment = {_c(a): _v(v) for a, v in enumerate(sorted(chosen), 1)}
    assignment.update((_f(a), _v(v)) for a, v in enumerate(rest, 1))
    return assignment


def vc_to_min_ep(graph: SourceGraph, params: VCReductionParams = VCReductionParams()) -> Instance:
    """Instance whose minimum envy-pair count separates yes/no cover instances.

    Every hospital has quota [1,1], so feasible matchings are exactly the
    perfect matchings.  Sizes satisfy |H| + |R| = 2n + 4*m*gadget_length.
    """
    _require_k(graph)
    length = params.resolve(graph.n)
    if length < graph.n * graph.n + 1:
        warnings.warn(
            f"gadget_length {length} < n^2 + 1 = {graph.n * graph.n + 1}: "
            "the yes/no envy-pair separation no longer holds",
            SeparationBoundWarning,
            stacklevel=2,
        )
    resident_prefs: dict[str, tuple[str, ...]] = {}
    hospital_prefs: dict[str, tuple[str, ...]] = {}
    for i, j in graph.edges:
        residents, hospitals = _gadget(i, j, length)
        resident_prefs.update(residents)
        hospital_prefs.update(hospitals)
    return _with_vertex_layer(graph, resident_prefs, hospital_prefs, {})


def gadget_matchings(
    edge: tuple[int, int], length: int
) -> tuple[tuple[Pair, ...], tuple[Pair, ...]]:
    """The only two perfect matchings of one edge gadget, as name-pair tuples
    sorted by resident name.

    The first (m0) gives every side-0 resident its top chain hospital and
    rotates side 1; install it when only the second endpoint of the edge is
    in the cover.  The second (m1) is the reverse; install it when the first
    endpoint is covered.  Within its gadget, m0's sole envy-pair is
    (s_1_1, t_0_2) and m1's is (s_0_1, t_0_1).
    """
    i, j = _check_edge(edge)
    _check_gadget_length(length)
    m0, m1 = (tuple(sorted(_gadget_matching(i, j, length, shield))) for shield in (False, True))
    return m0, m1


def gadget_instance(edge: tuple[int, int], length: int) -> Instance:
    """The stand-alone gadget for one edge: its residents, chain hospitals, and
    preference lists with the vertex hospitals removed.  The acceptability
    graph is a single cycle of length 4*gadget_length."""
    i, j = _check_edge(edge)
    _check_gadget_length(length)
    residents, hp = _gadget(i, j, length)
    rp = {r: (first, third) for r, (first, _, third) in residents.items()}
    return Instance(rp, hp, rp, hp, dict.fromkeys(hp, (1, 1)))


def matching_from_cover(
    graph: SourceGraph,
    params: VCReductionParams,
    cover: set[int] | frozenset[int] | list[int] | tuple[int, ...],
) -> Matching:
    """Certificate matching for a vertex cover of size at most k.

    Covers smaller than k are padded with the lowest-index missing vertices.
    Cover residents take the cover vertices and filler residents the rest,
    both matched ascending-index to ascending-index; each edge gadget gets
    the perfect matching that shields its covered endpoint.  The result is
    feasible with at most n^2 + m envy-pairs.
    """
    k = _require_k(graph)
    length = params.resolve(graph.n)
    cover_set = _vertex_set(graph, cover, "cover")
    if len(cover_set) > k:
        raise WrongSize(f"cover has {len(cover_set)} vertices but k = {k}")
    uncovered = [(i, j) for i, j in graph.edges if i not in cover_set and j not in cover_set]
    if uncovered:
        raise NotACover(f"edges not covered: {uncovered}")
    for v in range(1, graph.n + 1):
        if len(cover_set) == k:
            break
        cover_set.add(v)

    # Pairs in the instance's resident order, so no instance is built to order them.
    assignment = _layer_assignment(graph, cover_set)
    for i, j in graph.edges:
        assignment.update(_gadget_matching(i, j, length, i in cover_set))
    return Matching(assignment)


def clique_to_min_er(
    graph: SourceGraph, params: CliqueReductionParams = CliqueReductionParams()
) -> Instance:
    """Instance whose minimum envy-resident count separates yes/no clique instances.

    Vertex hospitals have quota [1,1]; the sink hospital x has quota
    [m*copies, m*copies] and is acceptable exactly to the m*copies edge-copy
    residents, so every feasible matching sends all of them to x.  Total
    residents: m*copies + n.
    """
    _require_k(graph)
    copies = params.resolve(graph.n)
    if copies <= graph.n:
        warnings.warn(
            f"copies {copies} <= n = {graph.n}: "
            "the yes/no envy-resident separation no longer holds",
            SeparationBoundWarning,
            stacklevel=2,
        )
    edge_prefs = {
        _e(i, j, c): (_v(i), _v(j), "x") for i, j in graph.edges for c in range(1, copies + 1)
    }
    sink = graph.m * copies
    return _with_vertex_layer(graph, edge_prefs, {"x": tuple(edge_prefs)}, {"x": (sink, sink)})


def matching_from_clique(
    graph: SourceGraph,
    params: CliqueReductionParams,
    clique: set[int] | frozenset[int] | list[int] | tuple[int, ...],
) -> Matching:
    """Certificate matching for a k-clique.

    Cover residents take the clique vertices, filler residents the rest
    (ascending index to ascending index), and every edge-copy resident goes
    to the sink hospital.  The result is feasible with at most
    (m - C(k,2))*copies + n envy-residents.
    """
    k = _require_k(graph)
    copies = params.resolve(graph.n)
    clique_set = _vertex_set(graph, clique, "clique")
    if len(clique_set) != k:
        raise WrongSize(f"clique has {len(clique_set)} vertices but k = {k}")
    edge_set = set(graph.edges)
    members = sorted(clique_set)
    missing = [
        (a, b)
        for idx, a in enumerate(members)
        for b in members[idx + 1 :]
        if (a, b) not in edge_set
    ]
    if missing:
        raise NotAClique(f"pairs not adjacent: {missing}")

    # Pairs in the instance's resident order: the vertex layer, then edge copies.
    assignment = _layer_assignment(graph, clique_set)
    assignment.update(
        (_e(i, j, c), "x") for i, j in graph.edges for c in range(1, copies + 1)
    )
    return Matching(assignment)
