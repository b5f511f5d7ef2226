"""Seeded and fixed inputs of the exact-guess, oracle-enum and reduction-scale families.

Every family mixes fixed reduction instances, which do not depend on the
seed, with members drawn from `random.Random("<family>:<seed>")`.  Seeded
members are accepted or rejected by the benchmark's own oracle (`naive`),
never by `hrlq`, so the inputs do not change when the program does.  That
choice is the benchmark's own work and its cost varies with the seed, so a
run makes it once, before set-up, and set-up only rebuilds the chosen
members with `hrlq` (`rebuild`).

In the exact-guess and oracle-enum families one fixed instance sits in the
middle by cost, with as many instances below it as above, each at least 25%
away; `workloads.round_order` runs it three times a round.  `op_ms_p50`,
the median over all ops of a run, then is the median of that one
instance's samples on every seed.  Were two or three instances of similar
cost in the middle, it would fall on an edge of their pooled samples, and
an edge moves with the noise of the machine, not only with the program.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import hrlq

import naive

TRIANGLE = ((1, 2), (1, 3), (2, 3))
PATH = ((1, 2), (2, 3))
PATH_C1 = ((1, 2), (1, 3))  # the same path with its centre at vertex 1
FOUR_CYCLE = ((1, 2), (1, 4), (2, 3), (3, 4))
K4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
C5 = ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))


@dataclass(frozen=True)
class Case:
    """One op's input.  `graph`, `params` and `cert` are set for reduction instances."""

    name: str
    instance: hrlq.Instance
    graph: hrlq.SourceGraph | None = None
    params: object = None
    cert: frozenset[int] = field(default_factory=frozenset)


class Member(NamedTuple):
    """A seeded input chosen by the naive oracle, with its optima."""

    instance: hrlq.Instance
    optima: naive.Optima


def _vc_case(name: str, n: int, edges, k: int, length: int | None, cover=()) -> Case:
    graph = hrlq.SourceGraph(n, edges, k)
    params = hrlq.VCReductionParams(length)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hrlq.SeparationBoundWarning)
        instance = hrlq.vc_to_min_ep(graph, params)
    return Case(name, instance, graph, params, frozenset(cover))


def _clique_case(name: str, n: int, edges, k: int, copies: int | None, clique=()) -> Case:
    graph = hrlq.SourceGraph(n, edges, k)
    params = hrlq.CliqueReductionParams(copies)
    instance = hrlq.clique_to_min_er(graph, params)
    return Case(name, instance, graph, params, frozenset(clique))


def _random_instance(rng: random.Random, n_res: int, n_hosp: int, degree: tuple[int, int],
                     quota) -> hrlq.Instance:
    residents = [f"r{i}" for i in range(1, n_res + 1)]
    hospitals = [f"h{j}" for j in range(1, n_hosp + 1)]
    resident_prefs = {}
    accepted: dict[str, list[str]] = {h: [] for h in hospitals}
    for r in residents:
        prefs = rng.sample(hospitals, min(n_hosp, rng.randint(*degree)))
        resident_prefs[r] = prefs
        for h in prefs:
            accepted[h].append(r)
    hospital_prefs = {h: rng.sample(rs, len(rs)) for h, rs in accepted.items()}
    quotas = quota(rng, hospitals, n_res)
    return hrlq.validate_instance(residents, hospitals, resident_prefs, hospital_prefs, quotas)


def _tight_quotas(rng: random.Random, hospitals: list[str], n_res: int) -> dict:
    # Lower == upper, with the slots summing to the number of residents: every
    # resident must be placed, which is what forces envy.
    slots = {h: 1 for h in hospitals}
    for _ in range(n_res - len(hospitals)):
        slots[rng.choice(hospitals)] += 1
    return {h: (s, s) for h, s in slots.items()}


def _slack_quotas(rng: random.Random, hospitals: list[str], n_res: int) -> dict:
    # Two tight hospitals, the rest optional: many feasible matchings.
    quotas = {}
    for idx, h in enumerate(hospitals):
        if idx < 2:
            low = rng.randint(1, 2)
            quotas[h] = (low, low)
        else:
            quotas[h] = (0, rng.randint(1, 3))
    return quotas


def _tight_member(rng: random.Random, want_ep: int, n_res: tuple[int, int],
                  draws: int) -> Member:
    """Of `draws` tight instances, the first with the largest optimum <= want_ep.

    Drawing a fixed number of candidates, rather than drawing until one
    fits, keeps the cost of choosing nearly the same on every seed.
    """
    best = None
    for _ in range(draws):
        size = rng.randint(*n_res)
        inst = _random_instance(rng, size, rng.randint(4, min(6, size)), (2, 3), _tight_quotas)
        ref = naive.optima(inst)
        if 0 <= ref.min_ep <= want_ep and (best is None or ref.min_ep > best.optima.min_ep):
            best = Member(inst, ref)
    return best


def _slack_member(rng: random.Random, target: int, draws: int) -> Member:
    """Of `draws` slack instances, the first whose feasible-matching count is nearest target."""
    best = None
    for _ in range(draws):
        inst = _random_instance(rng, rng.randint(9, 10), 4, (2, 3), _slack_quotas)
        miss = abs(naive.count_feasible(inst, 2 * target) - target)
        if best is None or miss < best[0]:
            best = (miss, inst)
    return Member(best[1], naive.optima(best[1]))


def exact_guess_fixed() -> list[Case]:
    """Six vertex-cover instances, optimum 2-3.

    The path with gadget 2 (928 guesses) is the median op: below it the
    three seeded members and the path centred at vertex 1 with gadget 2
    (321 guesses, 0.4 of its time), above it the same centred path with
    gadget 5 (735 guesses but larger instances, 1.45 of its time) and three
    slower instances.
    """
    return [
        _vc_case("path-g2", 3, PATH, 1, 2, {2}),
        _vc_case("path-c1-g2", 3, PATH_C1, 1, 2, {1}),
        _vc_case("path-c1-g5", 3, PATH_C1, 1, 5, {1}),
        _vc_case("path-g3", 3, PATH, 1, 3, {2}),
        _vc_case("path-g4", 3, PATH, 1, 4, {2}),
        _vc_case("triangle-k2-g2", 3, TRIANGLE, 2, 2, {1, 2}),
    ]


def exact_guess_members(seed: int) -> dict[str, Member]:
    """Three seeded tight instances of 6-8 residents, optima up to 1, 2 and 3.

    Each costs at most ~2,000 guesses of a small instance.
    """
    rng = random.Random(f"exact-guess:{seed}")
    return {f"seeded-{want}": _tight_member(rng, want, (6, 8), 60) for want in (1, 2, 3)}


def oracle_enum_fixed() -> list[Case]:
    """The full-strength triangle (no 1-cover) and 4-cycle (no triangle) carry
    the paper's lower bounds; six vertex-cover instances of 18k-45k search
    nodes sit above the seeded members.  K4 with gadget 3 and k=2 (18,209
    nodes) is the median op: five ops below it, and five above, K4 with
    gadget 4 and k=1, 2, 3 (24,257 nodes, 1.3 of its time) first."""
    return [
        _vc_case("triangle-k1-full", 3, TRIANGLE, 1, None),
        _clique_case("four-cycle-k3-full", 4, FOUR_CYCLE, 3, None),
        _vc_case("k4-k2-g3", 4, K4, 2, 3),
        _vc_case("k4-k1-g4", 4, K4, 1, 4),
        _vc_case("k4-k2-g4", 4, K4, 2, 4),
        _vc_case("k4-k3-g4", 4, K4, 3, 4),
        _vc_case("four-cycle-k2-full", 4, FOUR_CYCLE, 2, None),
        _vc_case("c5-k2-g3", 5, C5, 2, 3),
    ]


def oracle_enum_members(seed: int) -> dict[str, Member]:
    """Three seeded 9-10-resident instances: two with slack quotas and about
    2,250 feasible matchings, and one tight instance with envy forced."""
    rng = random.Random(f"oracle-enum:{seed}")
    members = {f"seeded-slack{idx}": _slack_member(rng, 2250, 8) for idx in (1, 2)}
    members["seeded-tight"] = _tight_member(rng, 3, (9, 10), 20)
    return members


def rebuild(name: str, member: Member) -> Case:
    """The member's instance built anew by hrlq, as a workload's set-up does."""
    inst = member.instance
    return Case(name, hrlq.validate_instance(
        inst.residents, inst.hospitals, inst.resident_prefs, inst.hospital_prefs, inst.quotas))


REDUCTION_SIZES = (8, 9, 10, 11, 12)


def random_graph(rng: random.Random, n: int, m: int, planted: set[int], kind: str):
    """m distinct edges on 1..n; for "cover" each edge touches `planted`, for
    "clique" `planted` is a clique.  Sizes depend on n and m only."""
    edges: set[tuple[int, int]] = set()
    if kind == "clique":
        members = sorted(planted)
        edges.update((a, b) for i, a in enumerate(members) for b in members[i + 1:])
    while len(edges) < m:
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        if kind == "cover" and i not in planted and j not in planted:
            continue
        edges.add((i, j))
    return tuple(sorted(edges))


@dataclass(frozen=True)
class Source:
    """A reduction-scale input: the source graph and its planted certificate."""

    name: str
    graph: hrlq.SourceGraph
    cert: frozenset[int]

    @property
    def is_cover(self) -> bool:
        return self.name.startswith("vc-")


def reduction_graphs(seed: int) -> list[Source]:
    """Source graphs of the reduction-scale workload, with their planted certificates.

    Vertex cover: n = 8..12, m = n + 8, a planted cover of size n // 2.
    Clique: n = 9..12, m = 2n, a planted 4-clique.  Only the edge placement
    depends on the seed, so every seed builds instances of the same size.
    With four small clique instances below five cover instances, the median
    op is the n = 8 cover instance.
    """
    rng = random.Random(f"reduction-scale:{seed}")
    out = []
    for n in REDUCTION_SIZES:
        cover = set(rng.sample(range(1, n + 1), n // 2))
        edges = random_graph(rng, n, n + 8, cover, "cover")
        out.append(Source(f"vc-n{n}", hrlq.SourceGraph(n, edges, len(cover)), frozenset(cover)))
        if n > REDUCTION_SIZES[0]:
            clique = set(rng.sample(range(1, n + 1), 4))
            edges = random_graph(rng, n, 2 * n, clique, "clique")
            out.append(Source(f"clique-n{n}", hrlq.SourceGraph(n, edges, 4), frozenset(clique)))
    return out
