"""Reading a span file written by `serve.py --probe`.

Self time of a span is its duration minus the durations of its direct
children.  Spans of one request share a request id (`rid`, the client's
port and the ordinal of the GRAPH.* command on that connection), which
is also how the harness joins them to its own client-side timings.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

# layer metric (microseconds of self time per op) -> span names it sums
LAYER_SPANS = {
    "rediskv.resp.decode_us": ("rediskv.resp.decode",),
    "rediskv.resp.encode_us": ("rediskv.resp.encode",),
    "rediskv.graph_module.params_us": ("rediskv.graph_module.params",),
    "rediskv.graph_module.encode_us": ("rediskv.graph_module.encode",),
    "cypher.lex_parse_us": ("cypher.lexer.tokenize", "cypher.parser.parse"),
    "execplan.plan.get_plan_us": ("execplan.plan.get_plan",),
    "execplan.plan.compile_us": ("execplan.plan.compile",),
    "execplan.execute.self_us": ("execplan.execute",),
    "graph.rwlock.wait_us": ("graph.rwlock.wait",),
    "grblas.busy_us": (
        "grblas.mxm", "grblas.mxv", "grblas.vxm",
        "grblas.ewise_add", "grblas.ewise_mult", "grblas.ewise_add_vector", "grblas.ewise_mult_vector",
        "grblas.reduce_rows", "grblas.reduce_cols", "grblas.reduce_matrix_scalar", "grblas.reduce_vector_scalar",
    ),
    "graph.wal.append_us": ("graph.wal.log_query", "graph.wal.append", "graph.wal.sync", "graph.wal.fsync"),
}
# probed spans that are plumbing, not a layer: their self time stays in the residual
PLUMBING = ("rediskv.server.read", "rediskv.threadpool.job")


class Request:
    """What the probes saw of one request."""

    __slots__ = ("self_us", "calls", "rows_out", "plan_cached", "start", "end")

    def __init__(self) -> None:
        self.self_us: Dict[str, float] = defaultdict(float)  # span name -> self time
        self.calls: Dict[str, int] = defaultdict(int)
        self.rows_out: Optional[int] = None
        self.plan_cached: Optional[int] = None
        self.start = 1 << 62
        self.end = 0

    def layer_us(self, metric: str) -> float:
        return sum(self.self_us.get(name, 0.0) for name in LAYER_SPANS[metric])

    @property
    def probed_us(self) -> float:
        """Self time of every layer span (plumbing left out)."""
        return sum(us for name, us in self.self_us.items() if name not in PLUMBING)

    @property
    def grblas_calls(self) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith("grblas."))


class SpanFile:
    def __init__(self, path: Path) -> None:
        self.spans: List[dict] = [json.loads(line) for line in Path(path).read_text().splitlines()]
        child_ns: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            child_ns[span["parent"]] += span["end"] - span["start"]
        self.requests: Dict[str, Request] = defaultdict(Request)
        for span in self.spans:
            rid = span["rid"]
            if rid is None:
                continue
            request = self.requests[rid]
            name = span["name"]
            request.self_us[name] += (span["end"] - span["start"] - child_ns[span["id"]]) / 1e3
            request.calls[name] += 1
            request.start = min(request.start, span["start"])
            request.end = max(request.end, span["end"])
            if name == "execplan.execute":
                request.rows_out = span["n"]
            elif name == "execplan.plan.get_plan":
                request.plan_cached = span["n"]

    def durations_s(self, name: str) -> List[float]:
        return [(s["end"] - s["start"]) / 1e9 for s in self.spans if s["name"] == name]

    def count_between(self, name: str, rids: Iterable[str]) -> int:
        """Spans called `name`, with or without a request, that started
        while the requests `rids` were being served (server clock)."""
        window = [self.requests[rid] for rid in rids if rid in self.requests]
        if not window:
            return 0
        low = min(r.start for r in window)
        high = max(r.end for r in window)
        return sum(1 for s in self.spans if s["name"] == name and low <= s["start"] <= high)
