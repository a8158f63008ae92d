"""In-memory spans and the self-time arithmetic behind the per-layer metrics.

A span records a name, a start and an end (``time.perf_counter`` seconds),
the index of the span that was open when it started (its parent), the id of
the request it belongs to, and optional counts.  Spans of one process stay
in a list and are written out once, when the process ends.

A span's self time is its duration minus the part of that interval its
child spans cover.  Within one single-threaded request the self times of
all its spans therefore add up to the duration of the request's root span;
``check_request_sums`` verifies exactly that.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# The root span of every traced request; its self time is ``cli.self_s``.
REQUEST_SPAN = "cli.request"


class Recorder:
    """Collects the spans of one traced request process."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._open[-1] if self._open else None,
                           "request": self.request_id, "counts": {}})
        self._open.append(index)
        return index

    def close(self, index: int, **counts: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["counts"].update(counts)
        if self._open and self._open[-1] == index:
            self._open.pop()
        else:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    Children are clipped to their parent's interval, so a child that
    (wrongly) outlives its parent cannot make a self time negative.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        clipped = [(max(spans[c]["start"], start), min(spans[c]["end"], end))
                   for c in children[i]]
        out.append(end - start - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def check_request_sums(spans: list[dict], tolerance: float = 1e-6) -> list[str]:
    """Requests whose span self times do not add up to their root span.

    Returns one message per failing request; an empty list means every
    request's layer self times plus its ``cli`` self time equal the
    duration of its root span.
    """
    totals: dict[str, float] = defaultdict(float)
    roots: dict[str, list[dict]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        totals[span["request"]] += own
        if span["parent"] is None:
            roots[span["request"]].append(span)
    bad = []
    for request, total in totals.items():
        root = roots[request]
        if len(root) != 1 or root[0]["name"] != REQUEST_SPAN:
            bad.append(f"{request}: expected one {REQUEST_SPAN} root span, got "
                       f"{[s['name'] for s in root]}")
        elif not abs(total - (root[0]["end"] - root[0]["start"])) <= tolerance:
            bad.append(f"{request}: self times sum to {total!r}, request span lasts "
                       f"{root[0]['end'] - root[0]['start']!r}")
    return bad


def layer_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time per span name, and summed counts per
    ``<span name>.<count>`` (``<span name>.calls`` counts the spans).
    Both are defaultdicts: a name with no spans reads as zero."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        seconds[span["name"]] += own
        counts[f"{span['name']}.calls"] += 1
        for key, value in span["counts"].items():
            counts[f"{span['name']}.{key}"] += value
    return seconds, counts
