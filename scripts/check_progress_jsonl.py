#!/usr/bin/env python3
"""Validate a pac-bench progress stream (the versioned JSONL emitted
under `--progress`) against the v1 schema in crates/pac-obs.

Checks:
  - every line is a standalone JSON object carrying `"v": 1` and a
    string `"ev"` from the known event set;
  - per-event required fields are present with the right shapes
    (cell events carry the bench/kind/backend/config identity, counters
    are non-negative integers, wall clocks are numbers);
  - `cell_finish.done` never exceeds `total` when a total is declared,
    and `status` is pass or fail;
  - every segment opens with `campaign_start` (a resumed campaign
    appends a fresh segment to the same file, so several are fine);
  - `eta_seconds` is a number or null.

Exit code 0 on success; prints a summary line for the CI log.
"""

import json
import sys

EVENTS = {
    "campaign_start": {"bin": str, "backend": str, "threads": int, "total": int},
    "cell_start": {"seq": int, "bench": str, "kind": str, "backend": str, "config": str},
    "cell_finish": {
        "seq": int,
        "bench": str,
        "kind": str,
        "backend": str,
        "config": str,
        "status": str,
        "wall_seconds": (int, float),
        "simulated_cycles": int,
        "done": int,
        "total": int,
        "elapsed_seconds": (int, float),
    },
    "metrics": {"seq": int, "bench": str, "kind": str, "backend": str, "config": str, "hists": dict},
    "worker_util": {"wall_seconds": (int, float), "utilization": (int, float), "workers": list},
    "phase": {"name": str, "seconds": (int, float)},
    "checkpoint": {"cycle": int, "path": str},
    "resumed": {"cycle": int, "path": str},
    "cell_retry": {"seq": int, "attempt": int, "delay_ms": int, "reason": str},
    "cell_quarantined": {"seq": int, "attempts": int, "reason": str},
    "supervisor": {
        "leases": int,
        "retries": int,
        "quarantined": int,
        "heartbeat_timeouts": int,
        "workers_abandoned": int,
        "preemptions": int,
    },
    "campaign_end": {"done": int, "wall_seconds": (int, float)},
}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        fail("empty stream")

    counts = {ev: 0 for ev in EVENTS}
    segments = 0
    in_segment = False
    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        if not line.strip():
            fail(f"{where}: blank line")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{where}: not JSON ({e})")
        if not isinstance(obj, dict):
            fail(f"{where}: line is not an object")
        if obj.get("v") != 1:
            fail(f"{where}: expected \"v\": 1, got {obj.get('v')!r}")
        ev = obj.get("ev")
        if ev not in EVENTS:
            fail(f"{where}: unknown event {ev!r} (known: {', '.join(sorted(EVENTS))})")
        counts[ev] += 1

        for field, ty in EVENTS[ev].items():
            if field not in obj:
                fail(f"{where}: {ev} missing field {field!r}")
            got = obj[field]
            if ty is int:
                # bool is an int subclass in Python; reject it explicitly.
                if not isinstance(got, int) or isinstance(got, bool) or got < 0:
                    fail(f"{where}: {ev}.{field} must be a non-negative integer, got {got!r}")
            elif not isinstance(got, ty):
                fail(f"{where}: {ev}.{field} must be {ty}, got {got!r}")

        if ev == "campaign_start":
            segments += 1
            in_segment = True
        elif not in_segment:
            fail(f"{where}: {ev} before any campaign_start")

        if ev == "cell_finish":
            if obj["status"] not in ("pass", "fail"):
                fail(f"{where}: cell_finish.status must be pass|fail, got {obj['status']!r}")
            if obj["total"] > 0 and obj["done"] > obj["total"]:
                fail(f"{where}: done {obj['done']} exceeds total {obj['total']}")
            eta = obj.get("eta_seconds")
            if eta is not None and not isinstance(eta, (int, float)):
                fail(f"{where}: eta_seconds must be a number or null, got {eta!r}")

    if segments == 0:
        fail("no campaign_start event")
    summary = " ".join(f"{ev}={n}" for ev, n in counts.items() if n)
    print(f"OK: {len(lines)} lines, {segments} segment(s): {summary}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <progress.jsonl>", file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1])
