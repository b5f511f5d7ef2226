"""The workloads: inputs, the timed op, its checks, the CLI command and the layer probe.

`exact-guess` and `oracle-enum` are end-to-end workloads.  Each one's
`run_op` holds only calls into hrlq; `check` and `check_cli` compare what
came back with the benchmark's own oracle and the reference data, outside
the timed region.  `probe` runs in the traced run only: it times the public
functions that the op's solvers call internally, on the same inputs, and
returns the workload's per-layer metrics.  `reduction-scale` has a probe
only: the traced run reports its layers, but it is no end-to-end workload.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import hrlq

import inputs
import naive
import reference
from spans import NoTracer

GUESS_SAMPLE = 150  # guesses replayed per exact-guess instance in the probe


def round_order(cases: list[inputs.Case], median: str) -> list[inputs.Case]:
    """The ops of one round: every case once, and the median instance twice more.

    A family has as many cases below its median instance as above it, so the
    median over a run's ops is the median of that instance's samples: three a
    round, taken first, in the middle and last.  With one a round, op_ms_p50
    spread 0.13 over five seeds on a machine whose speed flips every second
    or two.
    """
    mid = next(c for c in cases if c.name == median)
    rest = [c for c in cases if c is not mid]
    half = len(rest) // 2
    return [mid, *rest[:half], mid, *rest[half:], mid]


def chosen_members(cls, seed: int) -> dict[str, inputs.Member]:
    """The seed's members of a family, cross-checked against reference.json
    when the seed is recorded there.  A run calls this once, before set-up."""
    members = cls.choose(seed)
    recorded = reference.load()["seeded"].get(str(seed), {}).get(cls.name)
    if recorded is not None:
        mine = {name: reference.record(m.optima) for name, m in members.items()}
        if mine != recorded:
            raise RuntimeError(f"{cls.name} seed {seed}: inputs differ from reference.json")
    return members


def expected_optima(family: str, members: dict[str, inputs.Member]) -> dict[str, naive.Optima]:
    """Fixed entries from reference.json plus the seeded members' optima."""
    fixed = {name: naive.Optima(**rec) for name, rec in reference.load()["fixed"][family].items()}
    return {**fixed, **{name: m.optima for name, m in members.items()}}


def check_feasible_counts(workload) -> list[str]:
    """`enumerate_feasible` yields the reference number of feasible matchings on every case."""
    errors = []
    for case in workload.cases:
        got = sum(1 for _ in hrlq.enumerate_feasible(case.instance))
        want = workload.expected[case.name].feasible
        if got != want:
            errors.append(f"{workload.name}/{case.name}: enumerate_feasible yields {got} "
                          f"matchings, reference {want}")
    return errors


def _cert_envy(case: inputs.Case) -> int:
    cert = hrlq.matching_from_cover(case.graph, case.params, case.cert)
    return naive.envy(case.instance, cert.assignment)[0]


def _guesses(n_edges: int):
    """Edge-index subsets in min_ep_exact's order: by size, then lexicographic."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(n_edges), k) for k in range(n_edges + 1)
    )


class ExactGuess:
    """min_ep_exact on instances whose optimum is 1-3."""

    name = "exact-guess"
    choose = staticmethod(inputs.exact_guess_members)

    def __init__(self, members: dict[str, inputs.Member], workdir: Path):
        self.cases = inputs.exact_guess_fixed() + [inputs.rebuild(n, m) for n, m in members.items()]
        self.ops = round_order(self.cases, "path-g2")
        self.expected = expected_optima(self.name, members)
        self.cert_envy = {c.name: _cert_envy(c) for c in self.cases if c.cert}
        cli_case = self.ops[0]
        self.cli_file = workdir / f"{cli_case.name}.hrlq"
        self.cli_file.write_text(hrlq.serialize_instance(cli_case.instance), encoding="utf-8")
        self.cli_expected = self.expected[cli_case.name].min_ep

    def warm_up(self) -> list[str]:
        """One op on the family's median instance, so the timed rounds start warm."""
        return self.check(self.ops[0], self.run_op(self.ops[0], NoTracer()))

    def run_op(self, case, tracer):
        with tracer.span("algorithms.min_ep_exact"):
            return hrlq.min_ep_exact(case.instance)

    def check(self, case, result) -> list[str]:
        errors = []
        assignment = dict(result.matching.assignment)
        if not naive.quota_ok(case.instance, assignment):
            return [f"{self.name}/{case.name}: matching is not feasible"]
        pairs, _ = naive.envy(case.instance, assignment)
        if pairs != result.objective:
            errors.append(f"objective {result.objective} but {pairs} envy pairs recounted")
        if result.objective != result.stats.level:
            errors.append(f"objective {result.objective} != level {result.stats.level}")
        want = self.expected[case.name].min_ep
        if result.objective != want:
            errors.append(f"objective {result.objective}, reference optimum {want}")
        if case.name in self.cert_envy and result.objective > self.cert_envy[case.name]:
            errors.append(f"objective above the cover certificate's {self.cert_envy[case.name]}")
        return [f"{self.name}/{case.name}: {e}" for e in errors]

    def cli_command(self) -> list[str]:
        return ["solve", "--alg", "min-ep", "--json", "--in", str(self.cli_file)]

    def check_cli(self, stdout: str) -> list[str]:
        doc = json.loads(stdout)
        if doc["objective"] != self.cli_expected or not doc["feasible"] \
                or doc["envy_pairs"] != self.cli_expected:
            return [f"{self.name}/cli: solve --json disagrees with the reference: {doc['objective']}"]
        return []

    def probe(self, tracer) -> tuple[dict, list[str]]:
        errors = []
        guesses = 0
        for case in self.cases:
            result = self.run_op(case, tracer)
            guesses += result.stats.guesses_examined
            errors += self.check(case, result)
        for case in self.cases:
            inst = case.instance
            edges = inst.edges
            with tracer.span("algorithms.exists_feasible"):
                hrlq.exists_feasible(inst)
            for combo in itertools.islice(_guesses(len(edges)), GUESS_SAMPLE):
                with tracer.span("guess"):
                    with tracer.span("core.without_edges"):
                        trimmed = hrlq.without_edges(inst, [edges[e] for e in combo])
                    with tracer.span("algorithms.reduced_capacity_instance"):
                        reduced = hrlq.reduced_capacity_instance(trimmed)
                    with tracer.span("algorithms.deferred_acceptance"):
                        hrlq.deferred_acceptance(reduced)
                with tracer.span("algorithms.yokoi_envy_free"):
                    hrlq.yokoi_envy_free(trimmed)
                with tracer.span("core.Instance"):
                    hrlq.Instance(trimmed.residents, trimmed.hospitals, trimmed.resident_prefs,
                                  trimmed.hospital_prefs, trimmed.quotas)
        summary = tracer.summary()
        metrics = {
            "algorithms.min_ep_exact.guesses": (guesses, "count"),
            "algorithms.min_ep_exact.us_per_guess":
                (summary["algorithms.min_ep_exact"]["total_ns"] / guesses / 1e3, "us"),
        }
        for name in ("core.without_edges", "core.Instance", "algorithms.reduced_capacity_instance",
                     "algorithms.deferred_acceptance", "algorithms.yokoi_envy_free",
                     "algorithms.exists_feasible"):
            metrics[f"{name}.us"] = (tracer.self_us(name), "us")
        return metrics, errors


def _scored(stats: hrlq.SolveStats) -> int:
    # brute_* count the matchings they score in guesses_examined, a field
    # named for min_ep_exact's guesses; read it only if it is still there.
    return getattr(stats, "guesses_examined", 0)


class OracleEnum:
    """brute_min_ep then brute_min_er on each instance, as `hrlq oracle` does."""

    name = "oracle-enum"
    choose = staticmethod(inputs.oracle_enum_members)

    def __init__(self, members: dict[str, inputs.Member], workdir: Path):
        self.cases = inputs.oracle_enum_fixed() + [inputs.rebuild(n, m) for n, m in members.items()]
        self.ops = round_order(self.cases, "k4-k2-g3")
        self.expected = expected_optima(self.name, members)
        self.bounds = {}
        for case in self.cases:
            g = case.graph
            if case.name == "triangle-k1-full":  # no 1-cover: min-EP >= n^2 + m + 1
                self.bounds[case.name] = ("min_ep", g.n * g.n + g.m + 1)
            elif case.name == "four-cycle-k3-full":  # no triangle: min-ER >= (m - C(k,2) + 1) t
                self.bounds[case.name] = ("min_er", (g.m - math.comb(g.k, 2) + 1) * (g.n + 1))
        cli_case = self.ops[0]
        self.cli_file = workdir / f"{cli_case.name}.hrlq"
        self.cli_file.write_text(hrlq.serialize_instance(cli_case.instance), encoding="utf-8")
        self.cli_expected = self.expected[cli_case.name]

    def warm_up(self) -> list[str]:
        return self.check(self.ops[0], self.run_op(self.ops[0], NoTracer()))

    def run_op(self, case, tracer):
        with tracer.span("algorithms.brute_min_ep"):
            ep = hrlq.brute_min_ep(case.instance)
        with tracer.span("algorithms.brute_min_er"):
            er = hrlq.brute_min_er(case.instance)
        return ep, er

    def check(self, case, result) -> list[str]:
        ep, er = result
        want = self.expected[case.name]
        errors = []
        if (ep.objective, er.objective) != (want.min_ep, want.min_er):
            errors.append(f"optima {ep.objective}/{er.objective}, reference {want.min_ep}/{want.min_er}")
        if er.objective > ep.objective:
            errors.append("min-ER above min-EP")
        for res, counted in ((ep, 0), (er, 1)):
            assignment = dict(res.matching.assignment)
            if not naive.quota_ok(case.instance, assignment):
                errors.append(f"{res.objective_kind.value} matching is not feasible")
            elif naive.envy(case.instance, assignment)[counted] != res.objective:
                errors.append(f"{res.objective_kind.value} objective does not match a recount")
        if case.name in self.bounds:
            which, bound = self.bounds[case.name]
            got = ep.objective if which == "min_ep" else er.objective
            if got < bound:
                errors.append(f"{which} {got} below the paper's bound {bound}")
        return [f"{self.name}/{case.name}: {e}" for e in errors]

    def cli_command(self) -> list[str]:
        return ["oracle", "--json", "--in", str(self.cli_file)]

    def check_cli(self, stdout: str) -> list[str]:
        doc = json.loads(stdout)
        got = (doc["min_ep"]["objective"], doc["min_er"]["objective"])
        want = (self.cli_expected.min_ep, self.cli_expected.min_er)
        return [] if got == want else [f"{self.name}/cli: oracle --json gave {got}, reference {want}"]

    def probe(self, tracer) -> tuple[dict, list[str]]:
        errors = []
        nodes = leaves = scored = 0
        for case in self.cases:
            ep, er = self.run_op(case, tracer)
            errors += self.check(case, (ep, er))
            nodes += ep.stats.nodes
            scored += _scored(ep.stats) + _scored(er.stats)
            with tracer.span("algorithms.enumerate_feasible"):
                leaves += sum(1 for _ in hrlq.enumerate_feasible(case.instance))
            with tracer.span("leaf-recount"):
                for matching in hrlq.enumerate_feasible(case.instance):
                    with tracer.span("core.envy_pairs"):
                        hrlq.envy_pairs(case.instance, matching)
                    with tracer.span("core.envy_residents"):
                        hrlq.envy_residents(case.instance, matching)
        summary = tracer.summary()
        metrics = {
            "algorithms.enumerate_feasible.nodes": (nodes, "count"),
            "algorithms.enumerate_feasible.leaves": (leaves, "count"),
            "algorithms.enumerate_feasible.leaf_ratio": (leaves / nodes, "ratio"),
            "algorithms.enumerate_feasible.us_per_node":
                (summary["algorithms.enumerate_feasible"]["total_ns"] / nodes / 1e3, "us"),
            "core.envy_pairs.us_per_leaf": (tracer.self_us("core.envy_pairs"), "us"),
            "core.envy_residents.us_per_leaf": (tracer.self_us("core.envy_residents"), "us"),
            # Matchings scored per op over the matchings that exist: 2 while
            # each objective runs its own full enumeration, 0 once SolveStats
            # no longer has the field.
            "algorithms.brute.passes": (scored / leaves, "count"),
        }
        return metrics, errors


@dataclass
class ReductionOutcome:
    instance: hrlq.Instance
    cert: hrlq.Matching
    text: str
    text_again: str
    feasible: bool
    envy_free: hrlq.Matching | None
    stable: hrlq.Matching
    report: hrlq.EnvyReport
    cert_text: str
    cert_again: hrlq.Matching


class ReductionScale:
    """Both reductions at full strength, then formats and the linear-time layers on the result."""

    name = "reduction-scale"

    def __init__(self, seed: int):
        self.cases = inputs.reduction_graphs(seed)

    def run_op(self, case, tracer):
        graph = case.graph
        if case.is_cover:
            params = hrlq.VCReductionParams()
            with tracer.span("reductions.vc_to_min_ep"):
                instance = hrlq.vc_to_min_ep(graph, params)
            with tracer.span("reductions.matching_from_cover"):
                cert = hrlq.matching_from_cover(graph, params, case.cert)
        else:
            params = hrlq.CliqueReductionParams()
            with tracer.span("reductions.clique_to_min_er"):
                instance = hrlq.clique_to_min_er(graph, params)
            with tracer.span("reductions.matching_from_clique"):
                cert = hrlq.matching_from_clique(graph, params, case.cert)
        with tracer.span("formats.serialize_instance"):
            text = hrlq.serialize_instance(instance)
        with tracer.span("formats.parse_instance"):
            parsed = hrlq.parse_instance(text)
        with tracer.span("formats.serialize_instance"):
            text_again = hrlq.serialize_instance(parsed)
        with tracer.span("algorithms.exists_feasible"):
            feasible = hrlq.exists_feasible(parsed)
        with tracer.span("algorithms.yokoi_envy_free"):
            envy_free = hrlq.yokoi_envy_free(parsed)
        with tracer.span("algorithms.deferred_acceptance"):
            stable = hrlq.deferred_acceptance(parsed)
        with tracer.span("core.analyze"):
            report = hrlq.analyze(parsed, cert)
        with tracer.span("formats.serialize_matching"):
            cert_text = hrlq.serialize_matching(parsed, cert)
        with tracer.span("formats.parse_matching"):
            cert_again = hrlq.parse_matching(cert_text, parsed)
        return ReductionOutcome(parsed, cert, text, text_again, feasible, envy_free, stable,
                                report, cert_text, cert_again)

    def check(self, case, out: ReductionOutcome) -> list[str]:
        g = case.graph
        inst = out.instance
        errors = []
        n_res, n_hosp = len(inst.residents), len(inst.hospitals)
        if case.is_cover:
            length = g.n * g.n + 1
            if n_res + n_hosp != 2 * g.n + 4 * g.m * length:
                errors.append(f"{n_res + n_hosp} vertices, formula gives {2 * g.n + 4 * g.m * length}")
        elif n_res != g.m * (g.n + 1) + g.n:
            errors.append(f"{n_res} residents, formula gives {g.m * (g.n + 1) + g.n}")
        if out.text_again != out.text:
            errors.append("serialize -> parse -> serialize is not byte-identical")
        if not out.feasible:
            errors.append("exists_feasible is False on an instance with a certificate")
        cert = dict(out.cert.assignment)
        if not naive.quota_ok(inst, cert):
            return [f"{self.name}/{case.name}: certificate is not feasible"]
        pairs, residents = naive.envy(inst, cert)
        if case.is_cover:
            bound = g.n * g.n + g.m
            if pairs > bound:
                errors.append(f"certificate has {pairs} envy pairs, yes-bound {bound}")
        else:
            bound = (g.m - math.comb(g.k, 2)) * (g.n + 1) + g.n
            if residents > bound:
                errors.append(f"certificate has {residents} envy residents, yes-bound {bound}")
        if not out.report.feasible or len(out.report.envy_pairs) != pairs \
                or len(out.report.envy_residents) != residents:
            errors.append("analyze disagrees with the recount")
        if dict(out.cert_again.assignment) != cert \
                or hrlq.serialize_matching(inst, out.cert_again) != out.cert_text:
            errors.append("certificate does not round-trip")
        if out.envy_free is not None:
            found = dict(out.envy_free.assignment)
            if not naive.quota_ok(inst, found) or naive.envy(inst, found) != (0, 0):
                errors.append("yokoi_envy_free returned a matching that is infeasible or envious")
        stable = dict(out.stable.assignment)
        held = Counter(stable.values())
        if not naive.acceptable(inst, stable) or any(held[h] > up for h, (_, up) in inst.quotas.items()) \
                or naive.blocking(inst, stable):
            errors.append("deferred acceptance left a blocking pair or broke an upper quota")
        return [f"{self.name}/{case.name}: {e}" for e in errors]

    def probe(self, tracer) -> tuple[dict, list[str]]:
        errors = []
        parsed_bytes = 0
        for case in self.cases:
            out = self.run_op(case, tracer)
            errors += self.check(case, out)
            parsed_bytes += len(out.text.encode("utf-8"))
            inst = out.instance
            with tracer.span("core.Instance"):
                hrlq.Instance(inst.residents, inst.hospitals, inst.resident_prefs,
                              inst.hospital_prefs, inst.quotas)
        summary = tracer.summary()
        metrics = {}
        for name in ("reductions.vc_to_min_ep", "reductions.clique_to_min_er",
                     "reductions.matching_from_cover", "reductions.matching_from_clique",
                     "formats.serialize_instance", "formats.parse_instance",
                     "formats.serialize_matching", "formats.parse_matching", "core.Instance",
                     "core.analyze", "algorithms.exists_feasible", "algorithms.yokoi_envy_free",
                     "algorithms.deferred_acceptance"):
            metrics[f"{name}.ms"] = (tracer.self_us(name) / 1e3, "ms")
        parse_s = summary["formats.parse_instance"]["self_ns"] / 1e9
        metrics["formats.parse_instance.mb_per_s"] = (parsed_bytes / 1e6 / parse_s, "MB/s")
        return metrics, errors


WORKLOADS = {w.name: w for w in (ExactGuess, OracleEnum)}


def probe_families(workload, seed: int, workdir: Path) -> list:
    """The run's workload and every other family, each ready for its probe."""
    others = [cls(chosen_members(cls, seed), workdir) for cls in WORKLOADS.values()
              if cls.name != workload.name]
    return [workload, *others, ReductionScale(seed)]
