"""Span and sample arithmetic for the benchmark report.

Spans come from the program's Chrome trace (begin/end events per thread).
Everything here works on plain lists, so the unit tests in
test_rollup.py can drive it with hand-built spans.
"""

import json
from bisect import bisect_right
from collections import Counter, defaultdict


class Span:
    __slots__ = ("name", "tid", "start", "end", "parent", "children")

    def __init__(self, name, tid, start, end):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = end
        self.parent = None
        self.children = []

    @property
    def duration(self):
        return self.end - self.start


def parse_trace(lines):
    """Pairs the begin ("B") and end ("E") events of the wall-clock tracks
    into spans, in microseconds. `lines` is the trace's text line by line;
    the program writes one event per line. Unclosed spans are dropped."""
    stacks = defaultdict(list)
    spans = []
    for line in lines:
        line = line.strip().rstrip(",")
        if not line.startswith("{"):
            continue
        ev = json.loads(line)
        if ev.get("pid") != 1:
            continue
        ph = ev.get("ph")
        if ph == "B":
            stacks[ev["tid"]].append((ev["name"], ev["ts"]))
        elif ph == "E" and stacks[ev["tid"]]:
            name, start = stacks[ev["tid"]].pop()
            spans.append(Span(name, ev["tid"], start, ev["ts"]))
    return spans


def link_parents(spans):
    """Sets each span's parent to the innermost span on the same thread
    whose interval contains it. Spans on other threads never nest, even
    when their intervals overlap."""
    by_tid = defaultdict(list)
    for s in spans:
        s.parent = None
        s.children = []
        by_tid[s.tid].append(s)
    for track in by_tid.values():
        track.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in track:
            while stack and not (stack[-1].start <= s.start and
                                 s.end <= stack[-1].end):
                stack.pop()
            if stack:
                s.parent = stack[-1]
                stack[-1].children.append(s)
            stack.append(s)
    return spans


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span):
    """The span's duration minus the part of it its children cover."""
    return span.duration - covered(
        [(c.start, c.end) for c in span.children], span.start, span.end)


def rollup(spans):
    """Per span name: count, inclusive and self time (same unit as the
    spans) and the most frequent parent name ("" for roots)."""
    link_parents(spans)
    rows = {}
    parents = defaultdict(Counter)
    for s in spans:
        row = rows.setdefault(s.name, {"count": 0, "inclusive": 0.0,
                                       "self": 0.0})
        row["count"] += 1
        row["inclusive"] += s.duration
        row["self"] += self_time(s)
        parents[s.name][s.parent.name if s.parent else ""] += 1
    for name, row in rows.items():
        row["parent"] = parents[name].most_common(1)[0][0]
    return rows


def within(spans, windows):
    """Spans lying entirely inside one of the disjoint [begin, end]
    windows."""
    windows = sorted(windows)
    begins = [b for b, _ in windows]
    out = []
    for s in spans:
        i = bisect_right(begins, s.start) - 1
        if i >= 0 and s.end <= windows[i][1]:
            out.append(s)
    return out


def tail_percentile(samples, beyond=10):
    """The highest percentile of `samples` with at least `beyond` samples
    above it: (value, percentile, sample count), or None when there are
    too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def fanout_idle_frac(spans, threads, round_name, client_name):
    """1 - sum(client span time) / (threads * sum over rounds of the
    first-begin-to-last-end extent of that round's client spans). A client
    span belongs to the round span (any thread) its start falls in."""
    rounds = sorted((s for s in spans if s.name == round_name),
                    key=lambda s: s.start)
    clients = [s for s in spans if s.name == client_name]
    busy = 0.0
    extent = 0.0
    for r in rounds:
        mine = [c for c in clients if r.start <= c.start < r.end]
        if not mine:
            continue
        busy += sum(c.duration for c in mine)
        extent += max(c.end for c in mine) - min(c.start for c in mine)
    if extent <= 0.0:
        return 0.0
    return 1.0 - busy / (threads * extent)
