"""Cardinality estimation — the planner's price list.

The model turns a :class:`~repro.graph.statistics.GraphStatistics`
snapshot into per-operation row estimates using the textbook
System-R-style rules (the query-optimization layer Besta et al. name as
what separates production graph engines from toys):

* **scan cardinality** from per-label node counts (an AllNodeScan costs
  ``N``, a label scan the label's count, an index seek the index's size
  times each consumed predicate's selectivity — ``1 / NDV`` for ``=``),
* **expansion fan-out** from per-type degree statistics: a traversal
  multiplies the frontier by the type's mean entries-per-node, a
  variable-length hop by the clamped geometric series of that fan,
* **filter selectivity** from NDV where an index provides it, with the
  standard defaults elsewhere (0.1 per equality conjunct, 0.25 per
  opaque predicate).

Estimates are *relative* prices for comparing alternatives — anchor
choice, join order, index-vs-scan — not promises about result sizes;
:func:`annotate_estimates` also stamps every op with ``est_rows`` so
EXPLAIN shows the numbers the plan was chosen by and PROFILE exposes
estimated-vs-actual drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.execplan.ops_base import Argument, PlanOp, Unit
import numpy as np

from repro.execplan.ops_scan import (
    AllNodeScan,
    IndexOrderScan,
    IndexRangeScan,
    NodeByIdSeek,
    NodeByLabelScan,
)
from repro.execplan.ops_stream import (
    Aggregate,
    ApplyOptional,
    CartesianProduct,
    Filter,
    Limit,
    Unwind,
)
from repro.execplan.ops_call import ProcedureCall
from repro.execplan.ops_traverse import CondVarLenTraverse, ConditionalTraverse, ExpandInto
from repro.execplan.planner import _LabelCheckPredicate, _PropertyCheckPredicate

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.statistics import GraphStatistics

__all__ = ["CostModel", "annotate_estimates", "DEFAULT_EQ_SELECTIVITY", "DEFAULT_FILTER_SELECTIVITY"]

#: selectivity of one equality conjunct with no index NDV to price it
DEFAULT_EQ_SELECTIVITY = 0.1
#: selectivity of an opaque predicate (WHERE expressions we don't model)
DEFAULT_FILTER_SELECTIVITY = 0.25
#: average list length assumed for UNWIND of a non-literal expression
UNWIND_FANOUT = 10.0
#: selectivity of one half-open range bound with no sample to rank against
SEEK_RANGE_SELECTIVITY = 1.0 / 3.0
#: selectivity of one STARTS WITH prefix seek
SEEK_PREFIX_SELECTIVITY = 0.05
#: assumed element count of a non-literal IN list
SEEK_IN_DEFAULT_ITEMS = 4.0
#: hop count an unbounded variable-length pattern (``[*]``) is priced at
UNBOUNDED_HOPS = 8


def _parse_rel_operand(label: str) -> Tuple[Tuple[str, ...], str]:
    """Invert :func:`~repro.execplan.algebraic.build_traverse_expression`'s
    relation-operand display label back into (types, direction)."""
    direction = "out"
    if label.startswith("T(") and label.endswith(")"):
        direction, label = "in", label[2:-1]
    elif label.startswith("(") and label.endswith("+T)"):
        direction, label = "any", label[1:-3]
    types = () if label == "ADJ" else tuple(label.split("|"))
    return types, direction


def _diag_labels(expr) -> Tuple[str, ...]:
    """Destination labels folded into an algebraic expression."""
    return tuple(
        lbl[5:-1] for lbl in expr.labels if lbl.startswith("diag(") and lbl.endswith(")")
    )


class CostModel:
    """Prices access paths and traversal steps from one statistics snapshot."""

    def __init__(self, stats: "GraphStatistics") -> None:
        self.stats = stats
        self.node_count = max(1, stats.node_count)

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def label_count(self, label: str) -> float:
        return float(self.stats.label_counts.get(label, 0))

    def label_selectivity(self, label: str) -> float:
        return min(1.0, self.label_count(label) / self.node_count)

    def seek_estimate(self, label, attributes, kind, specs) -> float:
        """Expected rows of one IndexRangeScan: the index's size times the
        product of per-conjunct selectivities.  ``specs`` is a sequence of
        (op, plan-time literal or NOT_LITERAL); a numeric literal range
        bound is ranked against the index's sorted numeric sample (a
        searchsorted rank query — the columnar twin of a histogram),
        everything else takes the op's default."""
        details = getattr(self.stats, "index_details", None) or {}
        detail = details.get((label, tuple(attributes), kind))
        if detail is None:
            size = self.label_count(label)
            ndv = max(1.0, size * DEFAULT_EQ_SELECTIVITY)
            sample = None
        else:
            size = float(detail["size"])
            ndv = float(max(1, detail["ndv"]))
            sample = detail.get("sample")
        if kind == "composite":
            # eq specs over a leading prefix: full coverage is one posting
            # run (size/NDV); shorter prefixes interpolate geometrically
            width, total = len(specs), max(1, len(attributes))
            return size * (1.0 / ndv) ** (width / total)
        sel = 1.0
        for op, literal in specs:
            sel *= self._seek_selectivity(op, literal, ndv, sample)
        return size * sel

    def _seek_selectivity(self, op, literal, ndv: float, sample) -> float:
        if op == "=":
            return 1.0 / ndv
        if op == "STARTS WITH":
            return SEEK_PREFIX_SELECTIVITY
        if op == "IN":
            items = float(len(literal)) if isinstance(literal, list) else SEEK_IN_DEFAULT_ITEMS
            return min(1.0, items / ndv)
        is_num = isinstance(literal, (int, float)) and not isinstance(literal, bool)
        if sample is not None and len(sample) and is_num:
            keys = np.asarray(sample, dtype=np.float64)
            side = "left" if op in ("<", ">=") else "right"
            frac = float(np.searchsorted(keys, float(literal), side=side)) / len(keys)
            if op in (">", ">="):
                frac = 1.0 - frac
            return min(1.0, max(frac, 1.0 / ndv))
        return SEEK_RANGE_SELECTIVITY

    def entries(self, types: Sequence[str], direction: str) -> float:
        """Distinct matrix entries the step's relation operand holds."""
        if types:
            total = sum(
                self.stats.rels[t].entries for t in types if t in self.stats.rels
            )
        else:
            total = sum(rel.entries for rel in self.stats.rels.values())
        return float(total * 2 if direction == "any" else total)

    def fan(self, types: Sequence[str], direction: str) -> float:
        """Mean per-frontier-row fan-out of one hop (uniform model)."""
        return self.entries(types, direction) / self.node_count

    def source_nodes(self, types: Sequence[str], direction: str) -> int:
        """Distinct nodes with at least one step-source-side entry — the
        in/out asymmetry signal.  Walking ``-[:R]->`` forward reads R and
        fans out of ``out_nodes`` sources; walking it backwards reads the
        cached transpose and fans out of ``in_nodes``.  Fewer distinct
        sources means a sparser frontier matrix for the same entry count."""
        total = 0
        rels = (
            [self.stats.rels[t] for t in types if t in self.stats.rels]
            if types
            else list(self.stats.rels.values())
        )
        for rel in rels:
            if direction == "out":
                total += rel.out_nodes
            elif direction == "in":
                total += rel.in_nodes
            else:
                total += max(rel.out_nodes, rel.in_nodes)
        return total

    def proc_cardinality(self, proc) -> float:
        """Estimated output rows of one procedure invocation.  Declared as
        ``"nodes"`` (result per live node), a schema-sized tag, or a float."""
        card = proc.cardinality
        if card == "nodes":
            return float(self.node_count)
        if card == "labels":
            return float(max(1, len(self.stats.label_counts)))
        if card == "reltypes":
            return float(max(1, len(self.stats.rels)))
        if card == "props":
            return 8.0
        return float(card)

    # ------------------------------------------------------------------
    # Composite prices (what the planner compares)
    # ------------------------------------------------------------------
    def access_estimate(
        self, labels: Sequence[str], prop_count: int, *, id_seek: bool = False
    ) -> Tuple[float, float, int]:
        """(estimated rows, work, rule score) of scanning one node pattern
        with ``prop_count`` inline-map entries, before any index seek (the
        planner prices those separately with :meth:`seek_estimate`).

        ``work`` is what the access op itself materializes — the rows any
        residual property/label Filter must then examine — while the first
        value is the post-filter cardinality carried into the next step.
        Pricing anchors by work (not output) is what stops a cheap-looking
        filter from hiding an expensive scan behind it.  The rule score
        mirrors ``_best_scan_anchor``'s syntactic ranking (id-seek 3 >
        indexed 2 > label 1 > bare 0) and tie-breaks equal estimates, so
        empty or uniform statistics reproduce the rule-based choice
        exactly."""
        if id_seek:
            return 1.0, 1.0, 3
        sel = DEFAULT_EQ_SELECTIVITY ** prop_count
        if labels:
            extra = 1.0
            for lbl in labels[1:]:
                extra *= self.label_selectivity(lbl)
            count = self.label_count(labels[0])
            return count * sel * extra, count, 1
        n = float(self.node_count)
        return n * sel, n, 0

    def step_estimate(
        self,
        src_est: float,
        types: Sequence[str],
        direction: str,
        dst_labels: Sequence[str],
        dst_prop_count: int,
        *,
        variable_length: bool = False,
        min_hops: int = 1,
        max_hops: int = 1,
        dst_bound: bool = False,
    ) -> Tuple[float, float, float]:
        """(rows after the step, work, source-side distinct fraction).

        ``work`` is what the traversal materializes before any
        destination *property* Filter runs (labels are free — they fold
        into the algebraic expression as a diagonal operand, so wrong-label
        rows never exist); the first value applies the property
        selectivity on top and is the frontier carried into the next
        step.  The last value is the direction-asymmetry tie-break: when
        two extensions price identically, the one whose source side
        touches fewer distinct nodes wins (its frontier matrix is
        sparser)."""
        n = self.node_count
        src_frac = min(1.0, self.source_nodes(types, direction) / n)
        label_sel = 1.0
        for lbl in dst_labels:
            label_sel *= self.label_selectivity(lbl)
        prop_sel = DEFAULT_EQ_SELECTIVITY ** dst_prop_count
        fan = self.fan(types, direction)
        if dst_bound:
            # both endpoints fixed: P(entry exists) per row
            est = src_est * min(1.0, fan / n)
            return est, est, src_frac
        if variable_length:
            lo = max(1, min_hops)
            hi = max(lo, max_hops if max_hops >= 0 else UNBOUNDED_HOPS)
            total = 1.0 if min_hops == 0 else 0.0
            power = fan ** lo
            for _ in range(lo, hi + 1):
                total += min(float(n), power)
                power *= fan
                if total >= n:  # per-source reach cannot exceed N
                    total = float(n)
                    break
            work = src_est * total * label_sel
            return work * prop_sel, work, src_frac
        work = src_est * fan * label_sel
        return work * prop_sel, work, src_frac


# ---------------------------------------------------------------------------
# Plan annotation (EXPLAIN est_rows / PROFILE estimated-vs-actual)
# ---------------------------------------------------------------------------


def _predicate_selectivity(model: CostModel, predicate) -> float:
    if isinstance(predicate, _LabelCheckPredicate):
        sel = 1.0
        for lbl in predicate._wanted:
            sel *= model.label_selectivity(lbl)
        return sel
    if isinstance(predicate, _PropertyCheckPredicate):
        return DEFAULT_EQ_SELECTIVITY ** len(predicate._checks)
    return DEFAULT_FILTER_SELECTIVITY


def _literal_limit(limit: Limit) -> Optional[int]:
    try:
        value = limit._count([], None)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None  # dynamic: parameter or upstream-column reference
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        return None
    return value


def _proc_arg_literal(op: ProcedureCall, index: int):
    """Plan-time constant of one procedure argument, or None when the
    argument is dynamic (parameter / upstream column reference)."""
    if index >= len(op._arg_fns):
        return None
    try:
        return op._arg_fns[index]([], None)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _vector_seek_estimate(op: ProcedureCall, model: CostModel) -> Optional[float]:
    """Rows of one ``db.idx.vector.query`` call, priced from the snapshot's
    IVF detail: a trained index examines roughly ``nprobe · size / nlist``
    candidates (the probed buckets), an untrained or exact one the whole
    index — top-k can't return more rows than that pool, nor more than a
    literal ``k``."""
    label = _proc_arg_literal(op, 0)
    attribute = _proc_arg_literal(op, 1)
    if not isinstance(label, str) or not isinstance(attribute, str):
        return None
    detail = model.stats.index_details.get((label, (attribute,), "vector"))
    if detail is None:
        return None
    size = float(detail["size"])
    nlist = detail.get("nlist")
    nprobe = detail.get("nprobe")
    if detail.get("trained") and nlist:
        pool = min(size, float(nprobe or 1) * size / float(nlist))
    else:
        pool = size
    k = _proc_arg_literal(op, 3)
    if isinstance(k, int) and not isinstance(k, bool) and k > 0:
        pool = min(pool, float(k))
    return max(1.0, pool)


def annotate_estimates(root: PlanOp, model: CostModel) -> None:
    """Post-order pass stamping ``op.est_rows`` on every operation, which
    EXPLAIN and PROFILE print.  Estimates are heuristic row counts, never
    used for correctness — operators ignore the attribute at runtime."""
    for child in root.children:
        annotate_estimates(child, model)
    root.est_rows = _estimate(root, model)


def _child_est(op: PlanOp, index: int = 0) -> float:
    if index < len(op.children):
        return getattr(op.children[index], "est_rows", 1.0)
    return 1.0


def _estimate(op: PlanOp, model: CostModel) -> float:
    n = float(model.node_count)
    if isinstance(op, (Unit, Argument)):
        return 1.0
    if isinstance(op, NodeByIdSeek):
        return _child_est(op) if op.children else 1.0
    if isinstance(op, AllNodeScan):
        return (_child_est(op) if op.children else 1.0) * n
    if isinstance(op, IndexRangeScan):
        base = model.seek_estimate(
            op._label, op._attributes, op._kind, [(s.op, s.literal) for s in op._specs]
        )
        return (_child_est(op) if op.children else 1.0) * base
    if isinstance(op, IndexOrderScan):
        # streams the whole label in index order — label-scan cardinality,
        # but a following literal LIMIT caps what actually materializes
        return (_child_est(op) if op.children else 1.0) * model.label_count(op._label)
    if isinstance(op, NodeByLabelScan):
        return (_child_est(op) if op.children else 1.0) * model.label_count(op._label)
    if isinstance(op, ConditionalTraverse):
        est, _, _ = model.step_estimate(
            _child_est(op), op._types, op._direction, _diag_labels(op._expr), 0
        )
        return est
    if isinstance(op, ExpandInto):
        est, _, _ = model.step_estimate(
            _child_est(op), op._types, op._direction, (), 0, dst_bound=True
        )
        return est
    if isinstance(op, CondVarLenTraverse):
        types, direction = _parse_rel_operand(op._expr.labels[0]) if op._expr.labels else ((), "out")
        est, _, _ = model.step_estimate(
            _child_est(op),
            types,
            direction,
            (),
            0,
            variable_length=True,
            min_hops=op._min,
            max_hops=op._max,
        )
        return est
    if isinstance(op, ProcedureCall):
        # Apply-style: one invocation per input record (leaf form = 1)
        base = model.proc_cardinality(op._proc)
        if op._proc.name == "db.idx.vector.query":
            priced = _vector_seek_estimate(op, model)
            if priced is not None:
                base = priced
        return (_child_est(op) if op.children else 1.0) * base
    if isinstance(op, Filter):
        sel = 1.0
        for predicate in op._predicates:
            sel *= _predicate_selectivity(model, predicate)
        return _child_est(op) * sel
    if isinstance(op, Limit):
        literal = _literal_limit(op)
        child = _child_est(op)
        return child if literal is None else min(child, float(literal))
    if isinstance(op, Aggregate):
        child = _child_est(op)
        return max(1.0, child ** 0.5) if op._group else 1.0
    if isinstance(op, Unwind):
        return _child_est(op) * UNWIND_FANOUT
    if isinstance(op, CartesianProduct):
        return _child_est(op, 0) * _child_est(op, 1)
    if isinstance(op, ApplyOptional):
        # right subtree was annotated per outer row (its Argument is 1);
        # empty matches still emit one null-extended row
        return _child_est(op, 0) * max(1.0, _child_est(op, 1))
    # Project / Sort / Skip / Distinct / Results / updates: passthrough
    return _child_est(op) if op.children else 1.0
