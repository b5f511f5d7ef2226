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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .core import Instance, Matching, Pair, validate_instance


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


@dataclass(frozen=True)
class SourceGraph:
    """Undirected source graph: vertices 1..n, edges as (i, j) with i < j.

    `k` is the target parameter (cover size / clique size); 0 means not yet
    set, as when parsed from an edge-list file.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    k: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))
        if self.n < 1:
            raise ReductionError(f"graph needs at least one vertex, got n={self.n}")
        seen = set()
        for i, j in self.edges:
            if not 1 <= i < j <= self.n:
                raise ReductionError(f"edge ({i},{j}) is not 1 <= i < j <= {self.n}")
            if (i, j) in seen:
                raise ReductionError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        if not 0 <= self.k <= self.n:
            raise ReductionError(f"target parameter k={self.k} outside 0..{self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class VCReductionParams:
    """gadget_length is the half-length of each side of the edge gadget; None = n^2 + 1."""

    gadget_length: int | None = None

    def resolve(self, n: int) -> int:
        return self.gadget_length if self.gadget_length is not None else n * n + 1


@dataclass(frozen=True)
class CliqueReductionParams:
    """copies is the number of residents per source edge; None = n + 1."""

    copies: int | None = None

    def resolve(self, n: int) -> int:
        return self.copies if self.copies is not None else n + 1


def _v(i: int) -> str:
    return f"v{i}"


def _c(i: int) -> str:
    return f"c{i}"


def _f(i: int) -> str:
    return f"f{i}"


def _s(i: int, j: int, side: int, a: int) -> str:
    return f"s{i}_{j}_{side}_{a}"


def _t(i: int, j: int, side: int, a: int) -> str:
    return f"t{i}_{j}_{side}_{a}"


def _e(i: int, j: int, k: int) -> str:
    return f"e{i}_{j}_{k}"


def _check_gadget_length(length: int) -> None:
    if length < 2:
        raise ReductionError(f"gadget_length must be >= 2, got {length}")


def _check_copies(copies: int) -> None:
    if copies < 1:
        raise ReductionError(f"copies must be >= 1, got {copies}")


def _require_k(graph: SourceGraph) -> int:
    if graph.k < 1:
        raise ReductionError("target parameter k must be set (1 <= k <= n)")
    return graph.k


def _gadget_resident_prefs(i: int, j: int, length: int) -> dict[str, tuple[str, ...]]:
    """Preference lists of the 2*length gadget residents for edge (i, j).

    Side 0 residents rank their own chain hospital first, the vertex
    hospital v_i second, and the next chain hospital third (wrapping); the
    first side-0 resident crosses over to the side-1 chain instead.  Side 1
    is symmetric around v_j, with its first resident crossing to side 0.
    """
    prefs: dict[str, tuple[str, ...]] = {}
    vi, vj = _v(i), _v(j)
    for a in range(1, length + 1):
        nxt = a + 1 if a < length else 1
        if a == 1:
            third0 = _t(i, j, 1, 1)
        else:
            third0 = _t(i, j, 0, nxt)
        prefs[_s(i, j, 0, a)] = (_t(i, j, 0, a), vi, third0)
        if a == 1:
            prefs[_s(i, j, 1, 1)] = (_t(i, j, 0, 2), vj, _t(i, j, 1, 2))
        else:
            prefs[_s(i, j, 1, a)] = (_t(i, j, 1, a), vj, _t(i, j, 1, nxt))
    return prefs


def _gadget_hospital_prefs(i: int, j: int, length: int) -> dict[str, tuple[str, ...]]:
    """Preference lists of the 2*length gadget hospitals for edge (i, j)."""
    prefs: dict[str, tuple[str, ...]] = {}
    prefs[_t(i, j, 0, 1)] = (_s(i, j, 0, 1), _s(i, j, 0, length))
    prefs[_t(i, j, 0, 2)] = (_s(i, j, 1, 1), _s(i, j, 0, 2))
    for a in range(3, length + 1):
        prefs[_t(i, j, 0, a)] = (_s(i, j, 0, a - 1), _s(i, j, 0, a))
    prefs[_t(i, j, 1, 1)] = (_s(i, j, 0, 1), _s(i, j, 1, length))
    for a in range(2, length + 1):
        prefs[_t(i, j, 1, a)] = (_s(i, j, 1, a - 1), _s(i, j, 1, a))
    return prefs


def _vc_instance(graph: SourceGraph, length: int) -> Instance:
    n, k = graph.n, graph.k
    cover_res = [_c(i) for i in range(1, k + 1)]
    filler_res = [_f(i) for i in range(1, n - k + 1)]
    vertex_hosps = [_v(i) for i in range(1, n + 1)]

    gadget_res: list[str] = []
    gadget_hosps: list[str] = []
    resident_prefs: dict[str, tuple[str, ...]] = {}
    hospital_prefs: dict[str, tuple[str, ...]] = {}

    vlist = tuple(vertex_hosps)
    for r in cover_res + filler_res:
        resident_prefs[r] = vlist

    # Gadget residents acceptable to each vertex hospital, in (edge index,
    # side, position) order.
    by_vertex: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    for i, j in graph.edges:
        for side in (0, 1):
            gadget_res.extend(_s(i, j, side, a) for a in range(1, length + 1))
            gadget_hosps.extend(_t(i, j, side, a) for a in range(1, length + 1))
        resident_prefs.update(_gadget_resident_prefs(i, j, length))
        hospital_prefs.update(_gadget_hospital_prefs(i, j, length))
        by_vertex[i].extend(_s(i, j, 0, a) for a in range(1, length + 1))
        by_vertex[j].extend(_s(i, j, 1, a) for a in range(1, length + 1))

    for i in range(1, n + 1):
        hospital_prefs[_v(i)] = tuple(cover_res) + tuple(by_vertex[i]) + tuple(filler_res)

    residents = cover_res + filler_res + gadget_res
    hospitals = vertex_hosps + gadget_hosps
    quotas = {h: (1, 1) for h in hospitals}
    return validate_instance(residents, hospitals, resident_prefs, hospital_prefs, quotas)


def vc_to_min_ep(graph: SourceGraph, params: VCReductionParams = VCReductionParams()) -> Instance:
    """Instance whose minimum envy-pair count separates yes/no cover instances.

    Every hospital has quota [1,1], so feasible matchings are exactly the
    perfect matchings.  Sizes satisfy |H| + |R| = 2n + 4*m*gadget_length.
    """
    _require_k(graph)
    length = params.resolve(graph.n)
    _check_gadget_length(length)
    if length < graph.n * graph.n + 1:
        warnings.warn(
            f"gadget_length {length} < n^2 + 1 = {graph.n * graph.n + 1}: "
            "the yes/no envy-pair separation no longer holds",
            SeparationBoundWarning,
            stacklevel=2,
        )
    return _vc_instance(graph, length)


def gadget_matchings(
    edge: tuple[int, int], length: int
) -> tuple[tuple[Pair, ...], tuple[Pair, ...]]:
    """The only two perfect matchings of one edge gadget, as name-pair tuples.

    The first (m0) gives every side-0 resident its top chain hospital and
    rotates side 1; install it when only the second endpoint of the edge is
    in the cover.  The second (m1) is the reverse; install it when the first
    endpoint is covered.  Within its gadget, m0's sole envy-pair is
    (s_1_1, t_0_2) and m1's is (s_0_1, t_0_1).
    """
    i, j = edge
    if not 1 <= i < j:
        raise ReductionError(f"edge must satisfy i < j, got ({i},{j})")
    _check_gadget_length(length)
    m0: list[Pair] = []
    m1: list[Pair] = []
    for a in range(1, length + 1):
        nxt = a + 1 if a < length else 1
        m0.append((_s(i, j, 0, a), _t(i, j, 0, a)))
        m0.append((_s(i, j, 1, a), _t(i, j, 1, nxt)))
        if a == 1:
            m1.append((_s(i, j, 0, 1), _t(i, j, 1, 1)))
            m1.append((_s(i, j, 1, 1), _t(i, j, 0, 2)))
        else:
            m1.append((_s(i, j, 0, a), _t(i, j, 0, nxt)))
            m1.append((_s(i, j, 1, a), _t(i, j, 1, a)))
    key = lambda pair: pair[0]  # noqa: E731 - stable resident-name order
    return tuple(sorted(m0, key=key)), tuple(sorted(m1, key=key))


def gadget_instance(edge: tuple[int, int], length: int) -> Instance:
    """The stand-alone gadget for one edge: its residents, chain hospitals, and
    preference lists with the vertex hospitals removed.  The acceptability
    graph is a single cycle of length 4*gadget_length."""
    i, j = edge
    if not 1 <= i < j:
        raise ReductionError(f"edge must satisfy i < j, got ({i},{j})")
    _check_gadget_length(length)
    vi, vj = _v(i), _v(j)
    rp = {
        r: tuple(h for h in prefs if h not in (vi, vj))
        for r, prefs in _gadget_resident_prefs(i, j, length).items()
    }
    hp = _gadget_hospital_prefs(i, j, length)
    residents = [_s(i, j, side, a) for side in (0, 1) for a in range(1, length + 1)]
    hospitals = [_t(i, j, side, a) for side in (0, 1) for a in range(1, length + 1)]
    return validate_instance(residents, hospitals, rp, hp, {h: (1, 1) for h in hospitals})


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
    cover_set = {int(v) for v in cover}
    bad = [v for v in sorted(cover_set) if not 1 <= v <= graph.n]
    if bad:
        raise ReductionError(f"cover names unknown vertices: {bad}")
    if len(cover_set) > k:
        raise WrongSize(f"cover has {len(cover_set)} vertices but k = {k}")
    uncovered = [(i, j) for i, j in graph.edges if i not in cover_set and j not in cover_set]
    if uncovered:
        raise NotACover(f"edges not covered: {uncovered}")
    for v in range(1, graph.n + 1):
        if len(cover_set) == k:
            break
        cover_set.add(v)
    _check_gadget_length(length)

    # Pairs in the instance's resident order: cover, filler, then each
    # edge's gadget side 0 and side 1, so no instance is built to order them.
    covered = sorted(cover_set)
    rest = [v for v in range(1, graph.n + 1) if v not in cover_set]
    assignment = {_c(idx + 1): _v(v) for idx, v in enumerate(covered)}
    assignment.update((_f(idx + 1), _v(v)) for idx, v in enumerate(rest))
    for i, j in graph.edges:
        m0, m1 = gadget_matchings((i, j), length)
        gadget = dict(m1 if i in cover_set else m0)
        for side in (0, 1):
            for a in range(1, length + 1):
                resident = _s(i, j, side, a)
                assignment[resident] = gadget[resident]
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
    k = _require_k(graph)
    copies = params.resolve(graph.n)
    _check_copies(copies)
    if copies <= graph.n:
        warnings.warn(
            f"copies {copies} <= n = {graph.n}: "
            "the yes/no envy-resident separation no longer holds",
            SeparationBoundWarning,
            stacklevel=2,
        )
    n = graph.n
    cover_res = [_c(i) for i in range(1, k + 1)]
    filler_res = [_f(i) for i in range(1, n - k + 1)]
    edge_res = [_e(i, j, c) for i, j in graph.edges for c in range(1, copies + 1)]
    vertex_hosps = [_v(i) for i in range(1, n + 1)]

    resident_prefs: dict[str, tuple[str, ...]] = {}
    vlist = tuple(vertex_hosps)
    for r in cover_res + filler_res:
        resident_prefs[r] = vlist
    by_vertex: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    for i, j in graph.edges:
        for c in range(1, copies + 1):
            name = _e(i, j, c)
            resident_prefs[name] = (_v(i), _v(j), "x")
            by_vertex[i].append(name)
            by_vertex[j].append(name)

    hospital_prefs: dict[str, tuple[str, ...]] = {}
    for i in range(1, n + 1):
        hospital_prefs[_v(i)] = tuple(cover_res) + tuple(by_vertex[i]) + tuple(filler_res)
    hospital_prefs["x"] = tuple(edge_res)

    residents = cover_res + filler_res + edge_res
    hospitals = vertex_hosps + ["x"]
    quotas: dict[str, tuple[int, int]] = {h: (1, 1) for h in vertex_hosps}
    quotas["x"] = (graph.m * copies, graph.m * copies)
    return validate_instance(residents, hospitals, resident_prefs, hospital_prefs, quotas)


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
    clique_set = {int(v) for v in clique}
    bad = [v for v in sorted(clique_set) if not 1 <= v <= graph.n]
    if bad:
        raise ReductionError(f"clique names unknown vertices: {bad}")
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
    _check_copies(copies)

    # Pairs in the instance's resident order: cover, filler, then edge copies.
    rest = [v for v in range(1, graph.n + 1) if v not in clique_set]
    assignment = {_c(idx + 1): _v(v) for idx, v in enumerate(members)}
    assignment.update((_f(idx + 1), _v(v)) for idx, v in enumerate(rest))
    assignment.update(
        (_e(i, j, c), "x") for i, j in graph.edges for c in range(1, copies + 1)
    )
    return Matching(assignment)
