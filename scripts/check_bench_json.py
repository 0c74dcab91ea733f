#!/usr/bin/env python3
"""Validates the machine-readable JSON rows emitted by the bench harnesses.

Usage:
    check_bench_json.py [--require FAMILY]... [FILE]...

Reads bench output (files or stdin), extracts the single-line JSON rows
(lines starting with '{'), and checks each against the per-family schema
documented in bench/README.md. `--require FAMILY` additionally demands at
least one row of that family (CI uses this to prove a harness actually
emitted rows). Exits non-zero on the first schema violation class found.
"""

import argparse
import json
import sys

NUM = (int, float)

# bench family -> {field: expected type(s)}; `None` group key means the
# family has sub-groups discriminated by a "group" field.
SCHEMAS = {
    "backend": {
        "workload": str,
        "backend": str,
        "rows_db": int,
        "rounds": int,
        "interactions": int,
        "skipped": int,
        "generate_ms": NUM,
        "setup_us": NUM,
        "bind_us": NUM,
        "exec_us": NUM,
        "exec_us_per_interaction": NUM,
        "end_to_end_us_per_interaction": NUM,
        "prepares": int,
        "plan_cache_hits": int,
        "executions": int,
        "rows_out": int,
    },
    ("ablation", "priors"): {
        "workload": str,
        "use_priors": bool,
        "progressive_widening": bool,
        "iterations": int,
        "best_cost": NUM,
        "states_expanded": int,
        "ms": NUM,
    },
    ("ablation", "obs_overhead"): {
        "iterations": int,
        "reps": int,
        "enabled_ms": NUM,
        "disabled_ms": NUM,
        "overhead_pct": NUM,
    },
    ("ablation", "delta"): {
        "workload": str,
        "delta": bool,
        "best_cost": NUM,
        "subtree_recomputes": int,
        "subtree_hits": int,
        "plan_recomputes": int,
        "plan_hits": int,
        "ms": NUM,
    },
    "interactive": {
        "workload": str,
        "backend": str,
        "transition": str,
        "rows_db": int,
        "steps": int,
        "incremental_steps": int,
        "inc_us_per_step": NUM,
        "full_us_per_step": NUM,
        "speedup": NUM,
    },
    "parallel": {
        "workload": str,
        "mode": str,
        "threads": int,
        "ms": NUM,
        "best_cost": NUM,
        "iterations": int,
        "evaluations": int,
        "tt_hits": int,
        "ms_to_best": NUM,
    },
    "anytime": {
        "workload": str,
        "searcher": str,
        "deadline_ms": int,
        # -1 when the run published no improvement before the deadline.
        "time_to_first_result_ms": int,
        "cost_at_deadline": NUM,
        "iterations": int,
        "stop_reason": str,
        "baseline_iterations": int,
        "baseline_cost": NUM,
    },
    "parallel_service": {
        "jobs": int,
        "cold_ms": NUM,
        "warm_ms": NUM,
        "cache_hits": int,
    },
    "http": {
        "workload": str,
        "endpoint": str,
        "requests": int,
        "errors": int,
        "us_per_request": NUM,
    },
    "experience": {
        "workload": str,
        "warm": bool,
        "iterations": int,
        "best_cost": NUM,
        "target_cost": NUM,
        "iterations_to_target": int,
        "seeded": int,
        "ms": NUM,
    },
    "cluster_cache": {
        "workload": str,
        "workers": int,
        "jobs": int,
        "cold_ms": NUM,
        "repeat_ms": NUM,
        "repeat_cache_hits": int,
    },
}


def schema_for(row):
    family = row.get("bench")
    if (family, row.get("group")) in SCHEMAS:
        return SCHEMAS[(family, row.get("group"))]
    return SCHEMAS.get(family)


def check_row(row, where, errors):
    family = row.get("bench")
    if not isinstance(family, str) or not family:
        errors.append(f"{where}: missing/invalid 'bench' discriminator: {row}")
        return None
    schema = schema_for(row)
    if schema is None:
        # Unknown families only need the discriminator; new harnesses add
        # their schema here when they stabilize.
        return family
    for field, expected in schema.items():
        if field not in row:
            errors.append(f"{where}: bench={family} missing field '{field}'")
        else:
            value = row[field]
            # bool is an int subclass in Python; don't let booleans satisfy
            # numeric fields or vice versa.
            if expected is not bool and isinstance(value, bool):
                errors.append(f"{where}: bench={family} field '{field}' is a bool")
            elif not isinstance(value, expected):
                errors.append(
                    f"{where}: bench={family} field '{field}'={value!r} "
                    f"is not {expected}")
    return family


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--require", action="append", default=[],
                        help="fail unless at least one row of this family exists")
    parser.add_argument("files", nargs="*", help="bench output files (default stdin)")
    args = parser.parse_args()

    sources = [(f, open(f, encoding="utf-8", errors="replace")) for f in args.files] \
        or [("<stdin>", sys.stdin)]

    errors = []
    seen = {}
    for name, stream in sources:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line.startswith("{"):
                continue
            where = f"{name}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: invalid JSON row: {exc}")
                continue
            family = check_row(row, where, errors)
            if family:
                seen[family] = seen.get(family, 0) + 1
        if stream is not sys.stdin:
            stream.close()

    for family in args.require:
        if seen.get(family, 0) == 0:
            errors.append(f"required bench family '{family}' emitted no rows")

    for family, count in sorted(seen.items()):
        print(f"  {family}: {count} rows")
    if errors:
        print(f"\n{len(errors)} schema violation(s):", file=sys.stderr)
        for err in errors[:50]:
            print(f"  {err}", file=sys.stderr)
        return 1
    print("all bench JSON rows valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
