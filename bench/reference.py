"""Reference optima for the exact-guess and oracle-enum inputs.

Usage (from the repository root):

    python3 bench/reference.py

rewrites bench/reference.json from the benchmark's own exhaustive oracle
(`naive.py`), not from hrlq's solvers.  For every input it records the
minimum number of envy pairs, the minimum number of envy residents and the
number of feasible matchings.  The fixed instances are recorded once; the
seeded members are recorded for each seed in SEEDS.  A benchmark run loads
the fixed entries, computes the seeded entries for its own seed before its
set-up, and compares them with this file when the seed is recorded here.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import naive

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
SEEDS = range(1, 11)


def record(opt: naive.Optima) -> dict:
    return dataclasses.asdict(opt)


def load() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import inputs

    families = {
        "exact-guess": (inputs.exact_guess_fixed, inputs.exact_guess_members),
        "oracle-enum": (inputs.oracle_enum_fixed, inputs.oracle_enum_members),
    }
    fixed = {
        family: {c.name: record(naive.optima(c.instance)) for c in build_fixed()}
        for family, (build_fixed, _) in families.items()
    }
    seeded = {
        str(seed): {
            family: {name: record(m.optima) for name, m in choose(seed).items()}
            for family, (_, choose) in families.items()
        }
        for seed in SEEDS
    }
    doc = {"fixed": fixed, "seeded": seeded}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.name}: {sum(map(len, fixed.values()))} fixed inputs, "
          f"{len(SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
