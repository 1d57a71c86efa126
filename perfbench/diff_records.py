#!/usr/bin/env python3
"""Compares two per-round records written by run.py.

    python3 perfbench/diff_records.py <parent.json> <change.json>

Exits 0 when every strategy's rounds (cycle, accuracy, loss, virtual time)
and final-model digest match exactly, 1 otherwise. Wall times are ignored.
For a change that alters precision or reduction order, the printed
accuracy deltas can be read against the spread across seeds instead.
"""

import json
import sys

KEYS = ("cycle", "accuracy", "loss", "virtual_time")


def main(a_path, b_path):
    a = json.load(open(a_path))
    b = json.load(open(b_path))
    same = a["workload"] == b["workload"] and a["seed"] == b["seed"]
    if not same:
        print(f"different runs: {a['workload']}/{a['seed']} vs "
              f"{b['workload']}/{b['seed']}")
    for la, lb in zip(a["loops"], b["loops"]):
        ra = [tuple(r[k] for k in KEYS) for r in la["rounds"]]
        rb = [tuple(r[k] for k in KEYS) for r in lb["rounds"]]
        diff = [i for i, (x, y) in enumerate(zip(ra, rb)) if x != y]
        if len(ra) != len(rb):
            diff.append(min(len(ra), len(rb)))
        digest = la["digest"] == lb["digest"]
        same = same and not diff and digest
        worst = max((abs(x[1] - y[1]) for x, y in zip(ra, rb)), default=0.0)
        print(f"{la['method']}: {len(ra)} rounds, "
              f"{'identical' if not diff else f'{len(diff)} differ from round {diff[0]}'}"
              f", digest {'equal' if digest else 'differs'}, "
              f"max |accuracy delta| {worst:.6g}")
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
