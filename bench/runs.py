#!/usr/bin/env python3
"""Repeated benchmark runs, their spread, and two-commit comparisons.

    python3 bench/runs.py run OUT.jsonl [--runs 10] [--seed0 1] [--workload W ...]
        Run every workload (or the named ones) RUNS times, each with another
        seed, from the repository root, and append one JSON line per run.

    python3 bench/runs.py spread A.jsonl [B.jsonl]
        Per (workload, metric): median, quartiles and spread (quartile
        distance over median, as statistics.quantiles(n=4) gives them);
        with a second set, the median shift from A to B against the bound.

    python3 bench/runs.py pairs PARENT_DIR CHANGE_DIR OUT.jsonl [--pairs 10] [--workload W ...]
        Alternate runs of two checkouts (which side goes first alternates
        pair by pair, both sides use the same seed within a pair) and
        append each run, tagged "parent" or "change".

    python3 bench/runs.py compare OUT.jsonl
        Apply the win rule to a `pairs` file: the change wins a metric on a
        workload when it is better in at least nine tenths of the pairs
        (ties count for neither) and the medians differ by more than the
        parent's own quartile distance. It regresses when its median is
        worse than the parent's by more than the metric's bound. A gain does
        not count when the change failed more operations than the parent.

Standard library only. Reads the command, workloads, run length and
bounds from BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))


def bench_doc():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def option(args, flag, default):
    if flag in args:
        i = args.index(flag)
        value = args[i + 1]
        del args[i : i + 2]
        return value
    return default


def options(args, flag):
    out = []
    while flag in args:
        out.append(option(args, flag, None))
    return out


def run_once(cwd, doc, workload, seed, trace=0):
    cmd = doc["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(doc["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({p.returncode}):\n{p.stderr[-2000:]}")
    record = {"workload": workload, "seed": seed, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        record.update(json.loads(line))
    return record


def cmd_run(args):
    out = args.pop(0)
    runs = int(option(args, "--runs", 10))
    seed0 = int(option(args, "--seed0", 1))
    doc = bench_doc()
    workloads = options(args, "--workload") or [w["name"] for w in doc["workloads"]]
    with open(out, "a") as f:
        for w in workloads:
            for i in range(runs):
                rec = run_once(ROOT, doc, w, seed0 + i)
                f.write(json.dumps(rec) + "\n")
                f.flush()
                r = rec["result"]
                print(f"{w} seed={seed0 + i} correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def by_metric(records):
    """{(workload, metric): [values]} in run order."""
    out = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q[0], q[2], (q[2] - q[0]) / med


def cmd_spread(args):
    doc = bench_doc()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    better = {m["name"]: m["better"] for m in doc["end_to_end"]}
    sets = [by_metric(load(p)) for p in args]
    print("| workload | metric | n | median | q1 | q3 | spread | bound |" + (" median B | shift | within |" if len(sets) > 1 else ""))
    print("|---|---|---:|---:|---:|---:|---:|---:|" + ("---:|---:|---|" if len(sets) > 1 else ""))
    worst = 0.0
    for key in sorted(sets[0]):
        values = sets[0][key]
        med, q1, q3, sp = spread(values)
        row = f"| {key[0]} | {key[1]} | {len(values)} | {med:.6g} | {q1:.6g} | {q3:.6g} | {sp:.4f} | {bounds.get(key[1], '')} |"
        if key[1] != "setup_s":
            worst = max(worst, sp / bounds[key[1]])
        if len(sets) > 1 and key in sets[1]:
            med_b = statistics.median(sets[1][key])
            shift = (med_b - med) / med if better[key[1]] == "lower" else (med - med_b) / med
            row += f" {med_b:.6g} | {shift:+.4f} | {'yes' if shift <= bounds[key[1]] else 'NO'} |"
        print(row)
    print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.3f}")


def cmd_pairs(args):
    parent, change, out = args.pop(0), args.pop(0), args.pop(0)
    pairs = int(option(args, "--pairs", 10))
    seed0 = int(option(args, "--seed0", 1))
    doc = bench_doc()
    workloads = options(args, "--workload") or [w["name"] for w in doc["workloads"]]
    with open(out, "a") as f:
        for w in workloads:
            for i in range(pairs):
                sides = [("parent", parent), ("change", change)]
                if i % 2:
                    sides.reverse()
                for tag, cwd in sides:
                    rec = run_once(cwd, doc, w, seed0 + i)
                    rec["side"], rec["pair"] = tag, i
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
                print(f"{w} pair {i} done")


def cmd_compare(args):
    doc = bench_doc()
    metrics = {m["name"]: m for m in doc["end_to_end"]}
    runs = load(args[0])
    failed = {}
    for r in runs:
        key = (r["workload"], r["side"])
        failed[key] = failed.get(key, 0) + r["result"]["failed"]
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | wins | verdict |")
    print("|---|---|---|---|---:|---|")
    for w in sorted({r["workload"] for r in runs}):
        for name, m in metrics.items():
            side = {"parent": {}, "change": {}}
            for r in runs:
                if r["workload"] == w:
                    side[r["side"]][r["pair"]] = r["result"]["metrics"][name]["value"]
            pairs = sorted(set(side["parent"]) & set(side["change"]))
            if len(pairs) < 2:
                continue
            p = [side["parent"][i] for i in pairs]
            c = [side["change"][i] for i in pairs]
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
            pm, pq1, pq3, _ = spread(p)
            cm, cq1, cq3, _ = spread(c)
            worse = sign * (cm - pm) / pm
            more_failures = failed.get((w, "change"), 0) > failed.get((w, "parent"), 0)
            if wins >= 0.9 * len(pairs) and abs(cm - pm) > (pq3 - pq1) and not more_failures:
                verdict = "change wins"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            elif (pq3 - pq1) / pm > m["bound"] and not all(sign * (b - a) < 0 for a in p for b in c):
                verdict = "unresolved"
            else:
                verdict = "no regression"
            print(f"| {w} | {name} | {pm:.6g} [{pq1:.6g}, {pq3:.6g}] | {cm:.6g} [{cq1:.6g}, {cq3:.6g}] | {wins}/{len(pairs)} | {verdict} |")


def main(argv):
    if len(argv) < 2 or argv[1] not in ("run", "spread", "pairs", "compare"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    {"run": cmd_run, "spread": cmd_spread, "pairs": cmd_pairs, "compare": cmd_compare}[argv[1]](argv[2:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
