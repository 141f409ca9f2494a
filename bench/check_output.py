#!/usr/bin/env python3
"""Check one captured benchmark run against BENCHMARK.json.

    python3 bench/check_output.py <stdout-of-one-run> [<more> ...]

Each argument is the standard output of one `pac-perfbench` run. The
checker requires that

* metric and workload names match [A-Za-z0-9_.-]+;
* every metric BENCHMARK.json declares for the run's mode (end_to_end for
  an untraced run, per_layer for a traced one) is present, with its unit
  and a numeric value;
* in a traced run, the span self times (duration minus the part child
  spans cover) sum to no more than the run's traced wall time;
* failed <= attempted, and attempted >= 1.

Exits 0 when every file passes, 1 otherwise. Standard library only.
"""

import json
import os
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
HERE = os.path.dirname(os.path.abspath(__file__))


def load_declared():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        doc = json.load(f)
    errors = []
    for w in doc["workloads"]:
        if not NAME.match(w["name"]):
            errors.append(f"workload name {w['name']!r} is malformed")
    declared = {}
    for section in ("end_to_end", "per_layer"):
        declared[section] = {m["name"]: m["unit"] for m in doc[section]}
        for name in declared[section]:
            if not NAME.match(name):
                errors.append(f"{section} metric name {name!r} is malformed")
    return declared, errors


def self_time_total(spans):
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end_s"] - s["start_s"])
    return sum((s["end_s"] - s["start_s"]) - child.get(s["id"], 0.0) for s in spans)


def check_run(path, declared):
    errors = []
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        return [f"{path}: empty output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return [f"{path}: last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{path}: result keys are {sorted(result)}")
        return errors
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)):
        errors.append(f"{path}: attempted/failed must be whole numbers")
    elif attempted < 1 or failed > attempted:
        errors.append(f"{path}: attempted={attempted} failed={failed}")

    extras = {}
    for line in lines[:-1]:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            extras.update(obj)
    section = "per_layer" if "spans_file" in extras else "end_to_end"
    metrics = result["metrics"]
    for name, m in metrics.items():
        if not NAME.match(name):
            errors.append(f"{path}: metric name {name!r} is malformed")
    for name, unit in declared[section].items():
        m = metrics.get(name)
        if m is None:
            errors.append(f"{path}: {section} metric {name} missing")
        elif m.get("unit") != unit:
            errors.append(f"{path}: {name} has unit {m.get('unit')!r}, declared {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            errors.append(f"{path}: {name} value {m.get('value')!r} is not a number")

    if section == "per_layer":
        spans_path = extras["spans_file"]
        if not os.path.isabs(spans_path):
            spans_path = os.path.join(HERE, "..", spans_path)
        with open(spans_path) as f:
            spans = json.load(f)
        total = self_time_total(spans)
        wall = extras["wall_s"]
        if total > wall + 1e-9:
            errors.append(f"{path}: span self times sum to {total:.6f}s, more than the run's {wall:.6f}s")
        if any(not NAME.match(s["name"]) for s in spans):
            errors.append(f"{path}: a span name is malformed")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    declared, errors = load_declared()
    for path in argv[1:]:
        errors += check_run(path, declared)
    for e in errors:
        print(e, file=sys.stderr)
    print(f"{len(argv) - 1} run(s) checked, {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
