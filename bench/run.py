"""hrlq benchmark: two workloads, end-to-end metrics, and a traced run for per-layer metrics.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload exact-guess|oracle-enum \\
        --seed N --seconds S --trace 0|1

One process runs one workload, single-threaded, and starts `hrlq`
subprocesses one at a time.  The run first chooses the seed's inputs with
the benchmark's own oracle (untimed: that is not the program's work), then
repeats whole rounds until S seconds have passed.  A round sets the
workload up SETUPS_PER_ROUND times (builds its instances with hrlq, loads
the reference data and runs one warm-up op), runs every op of the family
once (its median instance three times), then the workload's CLI command
CLI_PER_ROUND times, checking every output.  Last it checks
that `enumerate_feasible` yields the reference number of feasible matchings
on every input.  End-to-end times are CPU times scaled to a fixed machine
speed by `speed.reference_work`, timed between the ops (see timed_phase);
the summary printed before the result gives them unscaled as well.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of all three families (reduction-scale is probed only)
with --trace 1.  The traced run also writes its spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed  # the benchmark's own; needs no hrlq

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI_PER_ROUND = 2
SETUPS_PER_ROUND = 2  # one a round left exact-guess setup_s spreading 0.10 over ten seeds
CLI_SAMPLES = 7  # fresh interpreters per start-up figure in the traced run
CLI_TIMEOUT_S = 60
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import hrlq.cli; "
    "print((time.perf_counter() - t) * 1e3)"
)


def _cli_env() -> dict:
    old = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + old if old else "")}


def _python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CLI_TIMEOUT_S)


def children_cpu_s() -> float:
    """CPU time (user + system) of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(command: list[str], env: dict) -> tuple[float, str, str | None]:
    """Run `python -m hrlq <command>`; (child CPU seconds, stdout, error)."""
    start = children_cpu_s()
    proc = _python(["-m", "hrlq", *command], env)
    used = children_cpu_s() - start
    if proc.returncode != 0:
        return used, proc.stdout, f"hrlq {' '.join(command)}: exit {proc.returncode}\n{proc.stderr}"
    return used, proc.stdout, None


class Tally:
    """Raw CPU times of the run, and the same times scaled to the reference speed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.raw: dict[str, list[float]] = {"setup": [], "op": [], "cli": [], "ref_ms": []}
        self.scaled: dict[str, list[float]] = {"setup": [], "op": [], "cli": []}

    def add_round(self, raw: dict[str, list[float]], ref_ms: list[float]) -> None:
        """Scale the round's times by the mean reference time measured in the round.

        The mean, not the median: in a state where the machine flips between
        fast and slow many times a second, ops long enough to span both are
        slowed by the average, while the median of the short reference
        samples jumps to whichever speed held in more than half of them.
        """
        factor = speed.REF_MS / statistics.fmean(ref_ms)
        self.raw["ref_ms"] += ref_ms
        for key, values in raw.items():
            self.raw[key] += values
            self.scaled[key] += [v * factor for v in values]


def timed_phase(set_up, seconds: float, tracer, env: dict):
    """Whole rounds until `seconds` of wall time have passed, each after its own set-ups.

    Every time is CPU time: the benchmark process's own for set-up and ops,
    the child's for a CLI sample.  Before each set-up, before each op and
    before each CLI sample the round times `speed.reference_work`, and at the
    end of the round its times are scaled by REF_MS over the mean of those
    reference times.  Op times exclude the set-ups and the checks.  Setting up
    in every round spreads the set-up samples over the run; the round runs
    its ops on the workload of its last set-up.  Returns the tally and the
    last round's workload.
    """
    tally = Tally()
    start = time.perf_counter()
    while True:
        raw: dict[str, list[float]] = {"setup": [], "op": [], "cli": []}
        ref_ms = []
        for _ in range(SETUPS_PER_ROUND):
            ref_ms.append(speed.reference_ms())
            gc.collect()
            t0 = time.process_time()
            workload = set_up()
            raw["setup"].append(time.process_time() - t0)
        for case in workload.ops:
            tally.attempted += 1
            ref_ms.append(speed.reference_ms())
            gc.collect()
            t0 = time.process_time()
            try:
                result = workload.run_op(case, tracer)
            except Exception:  # a failed op is counted, the run goes on
                tally.failed += 1
                traceback.print_exc()
                continue
            raw["op"].append(time.process_time() - t0)
            tally.errors += workload.check(case, result)
        for _ in range(CLI_PER_ROUND):
            tally.attempted += 1
            ref_ms.append(speed.reference_ms())
            used, stdout, error = run_cli(workload.cli_command(), env)
            if error:
                tally.failed += 1
                print(error, file=sys.stderr)
            else:
                raw["cli"].append(used)
                tally.errors += workload.check_cli(stdout)
        tally.add_round(raw, ref_ms)
        if time.perf_counter() - start >= seconds:
            return tally, workload


def end_to_end(times: dict[str, list[float]]) -> dict:
    return {
        "setup_s": (statistics.median(times["setup"]), "s"),
        "ops_per_s": (len(times["op"]) / sum(times["op"]), "ops/s"),
        "op_ms_p50": (statistics.median(times["op"]) * 1e3, "ms"),
        "cli_ms_p50": (statistics.median(times["cli"]) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def cli_startup(env: dict) -> dict:
    """Bare interpreter start (wall) and `import hrlq.cli` inside a fresh interpreter."""
    bare = []
    imports = []
    for _ in range(CLI_SAMPLES):
        t0 = time.perf_counter()
        _python(["-c", "pass"], env).check_returncode()
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = _python(["-c", IMPORT_TIMER], env)
        proc.check_returncode()
        imports.append(float(proc.stdout))
    return {
        "cli.import_ms": (statistics.median(imports), "ms"),
        "cli.interpreter_ms": (statistics.median(bare), "ms"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hrlq" / "__init__.py").is_file():
        print(f"error: no hrlq package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import NoTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    # One processor for the run and its children: the reference times that
    # scale a CLI sample or an op then come from the processor that ran it.
    # (Two processors of a shared host drift apart for seconds at a time.)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = _cli_env()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    try:
        _python(["-m", "hrlq", "--help"], env).check_returncode()  # compile hrlq's bytecode
        cls = workloads.WORKLOADS[args.workload]
        members = workloads.chosen_members(cls, args.seed)
        errors: list[str] = []

        def set_up():
            workload = cls(members, workdir)
            errors.extend(workload.warm_up())
            return workload

        tracer = Tracer() if args.trace else NoTracer()
        tally, workload = timed_phase(set_up, args.seconds, tracer, env)
        errors += tally.errors + workloads.check_feasible_counts(workload)
        e2e = end_to_end(tally.scaled)
        raw = end_to_end(tally.raw)
        print(f"{args.workload} seed {args.seed}{' traced' if args.trace else ''}: "
              f"{len(tally.raw['op'])} ops, {len(tally.raw['cli'])} CLI runs, "
              f"reference mean {statistics.fmean(tally.raw['ref_ms']):.3f} ms "
              f"({min(tally.raw['ref_ms']):.3f}-{max(tally.raw['ref_ms']):.3f})\n"
              "  scaled: " + ", ".join(f"{k}={v:.4g} {u}" for k, (v, u) in e2e.items())
              + "\n  raw CPU: " + ", ".join(f"{k}={v:.4g} {u}" for k, (v, u) in raw.items()))

        if args.trace:
            metrics = {}
            traces = {"timed-phase": tracer}
            for family in workloads.probe_families(workload, args.seed, workdir):
                traces[family.name] = Tracer()
                layer, probe_errors = family.probe(traces[family.name])
                metrics.update(layer)
                errors += probe_errors
            metrics.update(cli_startup(env))
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                name: {"summary": tr.summary(), "spans": tr.spans} for name, tr in traces.items()
            }) + "\n", encoding="utf-8")
            print(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            metrics = e2e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
