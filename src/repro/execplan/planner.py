"""The query planner: AST clauses → plan-operation tree.

Mirrors RedisGraph's ExecutionPlan construction:

* every MATCH path picks an *anchor* — a bound variable when the path
  connects to earlier clauses, otherwise the cheapest scan (index probe >
  label scan > all-node scan) — and is walked outward from the anchor,
  one traversal operation per relationship,
* each traversal step compiles to an algebraic expression (relation
  matrix × destination label diagonals); single hops become
  ConditionalTraverse / ExpandInto, variable-length hops become
  CondVarLenTraverse,
* inline property maps lower to filters, WHERE lowers to a Filter
  operation; an anchor's WHERE conjuncts and inline-map entries on
  indexed attributes may instead drive one IndexRangeScan seek,
* WITH/RETURN lower to Project or Aggregate (+ Distinct/Sort/Skip/Limit),
  with aggregate calls rewritten into placeholder slots and implicit
  grouping keys lifted from mixed expressions.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import CypherSemanticError
from repro.cypher import ast_nodes as A
from repro.cypher.semantic import AGGREGATE_FUNCTIONS, has_aggregate
from repro.execplan.algebraic import build_traverse_expression
from repro.execplan.batch import ValueColumn, as_entity_ids, gathered_column
from repro.execplan.batch_expr import as_column, vectorize
from repro.execplan.expressions import CompiledExpr, ExecContext, _equal, compile_expr
from repro.execplan.ops_base import Argument, PlanOp, Unit
from repro.execplan.ops_call import ProcedureCall
from repro.execplan.ops_path import PathSegment, ProjectPath
from repro.execplan.ops_scan import (
    NOT_LITERAL,
    AllNodeScan,
    IndexOrderScan,
    IndexRangeScan,
    NodeByIdSeek,
    NodeByLabelScan,
    SeekSpec,
)
from repro.execplan.ops_stream import (
    AggSpec,
    Aggregate,
    ApplyOptional,
    CartesianProduct,
    Distinct,
    Filter,
    Limit,
    Project,
    Results,
    Skip,
    Sort,
    Unwind,
)
from repro.execplan.ops_traverse import CondVarLenTraverse, ConditionalTraverse, ExpandInto
from repro.execplan.ops_update import (
    Create,
    CreateIndexOp,
    Delete,
    DropIndexOp,
    EdgeCreateSpec,
    Merge,
    NodeCreateSpec,
    RemoveOp,
    SetOp,
)
from repro.graph.entities import Node
from repro.procedures import registry as proc_registry

if TYPE_CHECKING:  # avoid a runtime cycle with repro.execplan.compiled
    from repro.execplan.compiled import PlanSchema

__all__ = ["plan_single_query", "PlannedQuery"]


class PlannedQuery:
    """A compiled query part: plan root + output column names (None for
    update-only queries) + whether it writes."""

    def __init__(self, root: PlanOp, columns: Optional[List[str]], writes: bool) -> None:
        self.root = root
        self.columns = columns
        self.writes = writes

    def explain(self, *, profile=None) -> str:
        """The plan tree; ``profile`` is a ProfileRun to decorate with."""
        return "\n".join(self.root.tree_lines(profile=profile))


class _Planner:
    def __init__(self, schema: "PlanSchema") -> None:
        self.schema = schema
        self.root: Optional[PlanOp] = None
        self.visible: List[str] = []  # user-visible variable names, in order
        self._anon = itertools.count()
        self.writes = False
        self.columns: Optional[List[str]] = None
        self._id_seeks: Dict[str, A.Expr] = {}
        self._consumed_seeks: Set[str] = set()
        self._range_preds: Dict[str, List["_RangeConjunct"]] = {}
        self._consumed_conjuncts: Set[int] = set()
        stats = getattr(schema, "stats", None)
        if stats is not None:
            from repro.execplan.cost import CostModel  # planner<->cost cycle

            self.cost: Optional["CostModel"] = CostModel(stats)
        else:
            # cost_based_planner=0: no statistics snapshot, every choice
            # below falls back to the syntactic rules verbatim
            self.cost = None

    # ------------------------------------------------------------------
    def _anon_var(self) -> str:
        return f"@anon{next(self._anon)}"

    def _layout(self):
        from repro.execplan.record import Layout

        return self.root.out_layout if self.root is not None else Layout()

    def _bound(self) -> Set[str]:
        return set(self._layout().names)

    def _expose(self, name: Optional[str]) -> None:
        if name and not name.startswith("@") and name not in self.visible:
            self.visible.append(name)

    # ------------------------------------------------------------------
    # Clause dispatch
    # ------------------------------------------------------------------
    def add_clause(self, clause) -> None:
        # only a *terminal* result-producing clause (RETURN, or a trailing
        # CALL ... YIELD) decides the output columns; anything planned
        # after one of those would have re-set it anyway, so reset first
        self.columns = None
        if isinstance(clause, A.MatchClause):
            self._plan_match(clause)
        elif isinstance(clause, A.CreateClause):
            self._plan_create(clause)
        elif isinstance(clause, A.MergeClause):
            self._plan_merge(clause)
        elif isinstance(clause, A.DeleteClause):
            self._plan_delete(clause)
        elif isinstance(clause, A.SetClause):
            self._plan_set(clause)
        elif isinstance(clause, A.RemoveClause):
            self._plan_remove(clause)
        elif isinstance(clause, A.UnwindClause):
            self._plan_unwind(clause)
        elif isinstance(clause, A.WithClause):
            self._plan_projection_clause(clause, is_return=False)
        elif isinstance(clause, A.ReturnClause):
            self._plan_projection_clause(clause, is_return=True)
        elif isinstance(clause, A.CallClause):
            self._plan_call(clause)
        elif isinstance(clause, A.CreateIndexClause):
            self.root = CreateIndexOp(
                clause.label,
                attributes=clause.attributes,
                kind=clause.kind,
                options=clause.options,
            )
            self.writes = True
        elif isinstance(clause, A.DropIndexClause):
            self.root = DropIndexOp(
                clause.label, attributes=clause.attributes, kind=clause.kind
            )
            self.writes = True
        else:  # pragma: no cover
            raise CypherSemanticError(f"unsupported clause {clause!r}")

    # ------------------------------------------------------------------
    # CALL ... YIELD
    # ------------------------------------------------------------------
    def _plan_call(self, clause: A.CallClause) -> None:
        from repro.execplan.record import Layout

        proc = proc_registry.resolve(clause.procedure)
        # the semantic pass already expanded/validated YIELD; an empty
        # tuple here is the trailing implicit-star form
        yields = clause.yields or tuple(A.YieldItem(c.name) for c in proc.yields)
        child = self.root
        layout = child.out_layout if child is not None else Layout()
        arg_fns = [compile_expr(a, layout) for a in clause.args]
        outputs = [(proc.column(item.column), item.output_name()) for item in yields]
        out_layout = layout.extend(*[name for _, name in outputs])
        self.root = ProcedureCall(child, proc, arg_fns, outputs, out_layout)
        for _, name in outputs:
            self._expose(name)
        if clause.where is not None:
            self.root = Filter(self.root, compile_expr(clause.where, out_layout), "WHERE")
        # a trailing CALL produces the query's result columns (overwritten
        # by the add_clause reset if anything follows)
        self.columns = [name for _, name in outputs]

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------
    def _plan_match(self, clause: A.MatchClause) -> None:
        if clause.optional:
            self._plan_optional_match(clause)
            return
        # `WHERE id(n) = <expr>` gives the anchor an O(1) id-seek access
        # path (the k-hop benchmark's seed lookup).  When every conjunct
        # of the WHERE was consumed by a seek, the residual filter is
        # provably true (the seek emits exactly the node with that id, or
        # nothing for null/non-integer ids) and is dropped entirely.
        self._id_seeks = _extract_id_seeks(clause.where)
        self._range_preds = _extract_range_conjuncts(clause.where)
        self._consumed_seeks = set()
        self._consumed_conjuncts = set()
        seeks = self._id_seeks
        try:
            for path in clause.patterns:
                self._plan_path(path)
            consumed = self._consumed_seeks
            consumed_conjuncts = self._consumed_conjuncts
        finally:
            self._id_seeks = {}
            self._range_preds = {}
            self._consumed_seeks = set()
            self._consumed_conjuncts = set()
        if clause.where is None:
            return
        # conjuncts an IndexRangeScan consumed emit exactly the rows the
        # conjunct holds True for, so they come off the residual filter;
        # stripping is by node identity, never structure, so a repeated
        # conjunct only loses the one occurrence the seek was built from
        residual = _strip_conjuncts(clause.where, consumed_conjuncts)
        if residual is not None and not _fully_consumed_by_seeks(residual, consumed, seeks):
            self.root = Filter(self.root, compile_expr(residual, self._layout()), "WHERE")

    def _plan_optional_match(self, clause: A.MatchClause) -> None:
        if self.root is None:
            # OPTIONAL MATCH as the first clause: a bare match that may
            # produce an all-null row
            left: PlanOp = Unit()
        else:
            left = self.root
        argument = Argument(left.out_layout)
        sub = _Planner(self.schema)
        sub.root = argument
        sub.visible = list(self.visible)
        for path in clause.patterns:
            sub._plan_path(path)
        if clause.where is not None:
            sub.root = Filter(sub.root, compile_expr(clause.where, sub._layout()), "WHERE")
        self.root = ApplyOptional(left, sub.root, argument)
        for name in sub.visible:
            self._expose(name)

    def _plan_path(self, path: A.Path) -> None:
        path_var = path.var
        nodes = list(path.nodes)
        rels = list(path.rels)
        if path_var is not None:
            # every fixed-length hop of a named path must bind an edge
            # variable (anonymous ones get planner-internal names) so
            # ProjectPath can read the realized edge from the record
            rels = [
                dataclasses.replace(rel, var=self._anon_var())
                if rel.var is None and not rel.variable_length
                else rel
                for rel in rels
            ]
        bound = self._bound()

        # resolve variables: give anonymous nodes internal names
        node_vars: List[str] = []
        for node in nodes:
            node_vars.append(node.var if node.var is not None else self._anon_var())

        # anchor selection: a bound node wins; otherwise best scan
        anchor = None
        for i, var in enumerate(node_vars):
            if var in bound:
                anchor = i
                break
        connected = anchor is not None

        # a path may also be *correlated*: its property maps reference bound
        # variables (UNWIND xs AS x MATCH (n {k: x})); chain the scan onto
        # the stream instead of cross-producting
        correlated = False
        if not connected and bound:
            refs: Set[str] = set()
            for node in nodes:
                for _, e in node.properties:
                    refs |= _identifier_names(e)
            for rel in rels:
                for _, e in rel.properties:
                    refs |= _identifier_names(e)
            correlated = bool(refs & bound)

        if anchor is None:
            if self.cost is not None:
                anchor = self._cost_scan_anchor(nodes, node_vars, rels)
            else:
                anchor = self._best_scan_anchor(nodes, node_vars)

        # build the path subtree; disconnected paths start their own chain
        chain_root = self.root if (connected or correlated) else None
        chain = _PathChain(self, chain_root, node_vars)
        if not connected:
            chain.scan_anchor(nodes[anchor], node_vars[anchor])
        else:
            chain.note_bound(node_vars[anchor])
            # anchor node's labels/props still need checking when restated
            chain.filter_node_constraints(nodes[anchor], node_vars[anchor])

        if self.cost is not None:
            # greedy join order: at each point extend whichever side of the
            # bound [l, r] range keeps the estimated frontier smallest
            anchor_est, _, _ = self._anchor_access_estimate(nodes[anchor], node_vars[anchor])
            steps = self._greedy_steps(
                anchor,
                1.0 if connected else anchor_est,
                nodes,
                node_vars,
                rels,
                bound=set(chain.bound_in_chain),
            )
            for i, forward, _ in steps:
                if forward:
                    chain.traverse(rels[i], nodes[i + 1], node_vars[i], node_vars[i + 1], forward=True)
                else:
                    chain.traverse(rels[i], nodes[i], node_vars[i + 1], node_vars[i], forward=False)
        else:
            for i in range(anchor, len(rels)):
                chain.traverse(rels[i], nodes[i + 1], node_vars[i], node_vars[i + 1], forward=True)
            for i in range(anchor - 1, -1, -1):
                chain.traverse(rels[i], nodes[i], node_vars[i + 1], node_vars[i], forward=False)

        subtree = chain.root
        if path_var is not None:
            subtree = self._project_path(subtree, path_var, node_vars, rels)
        if connected or correlated or self.root is None:
            self.root = subtree
        else:
            self.root = CartesianProduct(self.root, subtree)
        for node in nodes:
            self._expose(node.var)
        for rel in rels:
            self._expose(rel.var)
        self._expose(path_var)

    def _project_path(
        self,
        subtree: PlanOp,
        path_var: str,
        node_vars: Sequence[str],
        rels: Sequence[A.RelPattern],
    ) -> PlanOp:
        """Top the finished pattern chain with a ProjectPath assembling the
        named path in pattern order.  Segment expressions are built in
        *pattern* direction (independent of the order/orientation the
        chain walked the hops in)."""
        layout = subtree.out_layout
        node_slots = [layout.slot(v) for v in node_vars]
        segments: List[PathSegment] = []
        for rel in rels:
            if rel.variable_length:
                segments.append(
                    PathSegment(
                        None,
                        rel.types,
                        rel.direction,
                        build_traverse_expression(rel.types, rel.direction, ()),
                        True,
                    )
                )
            else:
                segments.append(
                    PathSegment(layout.slot(rel.var), rel.types, rel.direction, None, False)
                )
        return ProjectPath(subtree, path_var, node_slots, segments)

    def _best_scan_anchor(self, nodes: Sequence[A.NodePattern], node_vars: Sequence[str]) -> int:
        """Cheapest entry point: id-seek > indexed property > label > any."""
        best, best_score = 0, -1
        for i, node in enumerate(nodes):
            score = 0
            if node_vars[i] in self._id_seeks:
                score = 3
            elif node.labels:
                score = 1
                if self._pick_conjunct_seek(node, node_vars[i], self._bound()) is not None:
                    score = 2
            if score > best_score:
                best, best_score = i, score
        return best

    def _pick_conjunct_seek(self, node: A.NodePattern, var: str, base_names: Set[str]):
        """Choose the index seek for ``var`` (a labelled node), or None.

        Conjuncts are ``var``'s seekable WHERE conjuncts plus one ``=``
        per entry of the node's inline property map.  Candidates: a range
        index on any conjunct attribute (consuming every usable conjunct
        on it), and each composite index with an eq-covered leading
        attribute prefix (longest prefix wins — sound because composite
        entries key the node's longest indexable prefix).  Rule ranking
        prefers coverage, then range over composite, then attribute
        order; with statistics the cheapest priced candidate wins and one
        pricing worse than its label scan is rejected.

        Returns (kind, index attributes, conjuncts consumed, est rows).
        """
        label = node.labels[0]
        conjuncts = self._range_preds.get(var, []) + [
            _RangeConjunct(None, var, key, "=", value) for key, value in node.properties
        ]
        usable = [c for c in conjuncts if not (_identifier_names(c.value) - base_names)]
        if not usable:
            return None
        candidates = []  # (coverage, kind_rank, attrs, kind, chosen)
        by_attr: Dict[str, List[_RangeConjunct]] = {}
        for c in usable:
            by_attr.setdefault(c.attr, []).append(c)
        for attr, cs in sorted(by_attr.items()):
            if self.schema.has_index(label, attr):
                candidates.append((len(cs), 0, (attr,), "range", cs))
        eq_by_attr: Dict[str, _RangeConjunct] = {}
        for c in usable:
            if c.op == "=" and c.attr not in eq_by_attr:
                eq_by_attr[c.attr] = c
        for attrs in self.schema.composite_indexes(label):
            chosen = []
            for attr in attrs:
                c = eq_by_attr.get(attr)
                if c is None:
                    break
                chosen.append(c)
            if chosen:
                candidates.append((len(chosen), 1, attrs, "composite", chosen))
        if not candidates:
            return None
        if self.cost is None:
            coverage, _, attrs, kind, chosen = min(
                candidates, key=lambda c: (-c[0], c[1], c[2])
            )
            return kind, attrs, chosen, None
        best = None
        for coverage, kind_rank, attrs, kind, chosen in candidates:
            est = self.cost.seek_estimate(
                label, attrs, kind, [(c.op, _literal_of(c.value)) for c in chosen]
            )
            key = (est, -coverage, kind_rank, attrs)
            if best is None or key < best[0]:
                best = (key, attrs, kind, chosen, est)
        _, attrs, kind, chosen, est = best
        if est > self.cost.label_count(label):
            return None  # degenerate index pricing worse than its label scan
        return kind, attrs, chosen, est

    # ------------------------------------------------------------------
    # Cost-based path planning (cost_based_planner=1)
    # ------------------------------------------------------------------
    def _anchor_access_estimate(
        self, node: A.NodePattern, var: str
    ) -> Tuple[float, float, int]:
        est, work, score = self.cost.access_estimate(
            node.labels, len(node.properties), id_seek=var in self._id_seeks
        )
        if score >= 2 or not node.labels:
            return est, work, score
        pick = self._pick_conjunct_seek(node, var, self._bound())
        if pick is not None and pick[3] is not None and pick[3] < work:
            seek_rows = pick[3]
            return min(est, seek_rows), seek_rows, 2
        return est, work, score

    def _price_step(
        self, rel: A.RelPattern, dst_node: A.NodePattern, dst_var: str,
        src_est: float, seen: Set[str], *, forward: bool,
    ) -> Tuple[float, float, float]:
        direction = rel.direction
        if not forward:
            direction = {"out": "in", "in": "out", "any": "any"}[direction]
        dst_bound = dst_var in seen
        if rel.variable_length:
            min_hops, max_hops = rel.min_hops, rel.max_hops
        else:
            min_hops = max_hops = 1
        return self.cost.step_estimate(
            src_est,
            rel.types,
            direction,
            () if dst_bound else dst_node.labels,
            0 if dst_bound else len(dst_node.properties),
            variable_length=rel.variable_length,
            min_hops=min_hops,
            max_hops=max_hops,
            dst_bound=dst_bound,
        )

    def _greedy_steps(
        self,
        anchor: int,
        est: float,
        nodes: Sequence[A.NodePattern],
        node_vars: Sequence[str],
        rels: Sequence[A.RelPattern],
        *,
        bound: Optional[Set[str]] = None,
    ) -> List[Tuple[int, bool, float]]:
        """The outward walk as (rel index, forward, work) steps, extending
        whichever end of the bound [l, r] range keeps the estimated
        frontier smallest; ``work`` is the rows that step materializes
        (what :meth:`_cost_scan_anchor` sums when comparing anchors).

        Equal estimates tie-break on the sparser source side (walking a
        relationship leftward flips its direction, i.e. reads the cached
        transpose — this is where in/out degree asymmetry picks the
        matrix), then toward the right end, so empty or symmetric
        statistics reproduce the rule-based all-right-then-all-left
        order exactly."""
        steps: List[Tuple[int, bool, float]] = []
        seen: Set[str] = {node_vars[anchor]} | (bound or set())
        l = r = anchor
        while l > 0 or r < len(rels):
            choices = []
            if r < len(rels):
                e, work, frac = self._price_step(
                    rels[r], nodes[r + 1], node_vars[r + 1], est, seen, forward=True
                )
                choices.append((e, frac, 0, work))
            if l > 0:
                e, work, frac = self._price_step(
                    rels[l - 1], nodes[l - 1], node_vars[l - 1], est, seen, forward=False
                )
                choices.append((e, frac, 1, work))
            est, _, side, work = min(choices)
            if side == 0:
                steps.append((r, True, work))
                seen.add(node_vars[r + 1])
                r += 1
            else:
                steps.append((l - 1, False, work))
                seen.add(node_vars[l - 1])
                l -= 1
        return steps

    def _cost_scan_anchor(
        self,
        nodes: Sequence[A.NodePattern],
        node_vars: Sequence[str],
        rels: Sequence[A.RelPattern],
    ) -> int:
        """Anchor by estimated pipeline cost: for each candidate, sum the
        rows its access path and the greedy walk it implies materialize,
        and take the cheapest total.  Summing *work* (pre-property-filter
        rows) rather than output cardinality keeps a plan from looking
        cheap just because a late Filter discards most of what it built.
        The rule score and position tie-break equal totals, so empty
        statistics reproduce ``_best_scan_anchor``."""
        best, best_key = 0, None
        for i in range(len(nodes)):
            est, access_work, score = self._anchor_access_estimate(nodes[i], node_vars[i])
            total = access_work
            for _, _, step_work in self._greedy_steps(i, est, nodes, node_vars, rels):
                total += step_work
            key = (total, -score, i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    # ------------------------------------------------------------------
    # CREATE / MERGE
    # ------------------------------------------------------------------
    def _create_specs(self, path: A.Path, bound: Set[str], layout) -> Tuple[List[NodeCreateSpec], List[EdgeCreateSpec]]:
        node_specs: List[NodeCreateSpec] = []
        seen_in_path: Dict[str, int] = {}
        for node in path.nodes:
            if node.var is not None and node.var in seen_in_path:
                # the same variable twice in one CREATE path refers to the
                # same (just-created) node
                node_specs.append(node_specs[seen_in_path[node.var]])
                continue
            is_bound = node.var is not None and node.var in bound
            props = tuple((k, compile_expr(v, layout)) for k, v in node.properties)
            if is_bound and (node.labels or props):
                raise CypherSemanticError(
                    f"cannot restate labels/properties on bound variable {node.var!r} in CREATE"
                )
            spec = NodeCreateSpec(node.var, node.labels, props, is_bound)
            if node.var is not None:
                seen_in_path[node.var] = len(node_specs)
            node_specs.append(spec)
        edge_specs: List[EdgeCreateSpec] = []
        for i, rel in enumerate(path.rels):
            props = tuple((k, compile_expr(v, layout)) for k, v in rel.properties)
            src, dst = i, i + 1
            if rel.direction == "in":
                src, dst = dst, src
            edge_specs.append(EdgeCreateSpec(rel.var, rel.types[0], src, dst, props))
        return node_specs, edge_specs

    def _plan_create(self, clause: A.CreateClause) -> None:
        child = self.root if self.root is not None else Unit()
        bound = set(child.out_layout.names)
        paths = []
        for p in clause.patterns:
            specs = self._create_specs(p, bound, child.out_layout)
            paths.append(specs)
            # nodes created by this path are visible to later paths of the
            # same clause: CREATE (a), (a)-[:R]->(b)
            for spec in specs[0]:
                if spec.var:
                    bound.add(spec.var)
        self.root = Create(child, paths)
        self.writes = True
        for path in clause.patterns:
            for node in path.nodes:
                self._expose(node.var)
            for rel in path.rels:
                self._expose(rel.var)

    def _plan_merge(self, clause: A.MergeClause) -> None:
        child = self.root if self.root is not None else Unit()
        argument = Argument(child.out_layout)
        sub = _Planner(self.schema)
        sub.root = argument
        sub.visible = list(self.visible)
        sub._plan_path(clause.pattern)
        bound = set(child.out_layout.names)
        paths = [self._create_specs(clause.pattern, bound, child.out_layout)]
        # ON CREATE / ON MATCH items compile against the merge arm's layout
        # (pattern variables plus everything bound before the MERGE)
        merge_layout = sub.root.out_layout

        def compile_items(items):
            out = []
            for item in items:
                value_fn = compile_expr(item.value, merge_layout) if item.value is not None else None
                out.append((item.target, item.key, value_fn, item.labels, item.merge_map))
            return out

        self.root = Merge(
            child,
            sub.root,
            argument,
            paths,
            on_create=compile_items(clause.on_create),
            on_match=compile_items(clause.on_match),
        )
        self.writes = True
        for node in clause.pattern.nodes:
            self._expose(node.var)
        for rel in clause.pattern.rels:
            self._expose(rel.var)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _plan_delete(self, clause: A.DeleteClause) -> None:
        layout = self._layout()
        exprs = [compile_expr(e, layout) for e in clause.exprs]
        self.root = Delete(self.root, exprs, detach=clause.detach)
        self.writes = True

    def _plan_set(self, clause: A.SetClause) -> None:
        layout = self._layout()
        items = []
        for item in clause.items:
            value_fn = compile_expr(item.value, layout) if item.value is not None else None
            items.append((item.target, item.key, value_fn, item.labels, item.merge_map))
        self.root = SetOp(self.root, items)
        self.writes = True

    def _plan_remove(self, clause: A.RemoveClause) -> None:
        items = [(i.target, i.key, i.labels) for i in clause.items]
        self.root = RemoveOp(self.root, items)
        self.writes = True

    def _plan_unwind(self, clause: A.UnwindClause) -> None:
        child = self.root if self.root is not None else Unit()
        fn = compile_expr(clause.expr, child.out_layout)
        self.root = Unwind(child, fn, clause.alias)
        self._expose(clause.alias)

    # ------------------------------------------------------------------
    # WITH / RETURN
    # ------------------------------------------------------------------
    def _expand_star(self, projections: Sequence[A.Projection]) -> List[A.Projection]:
        out: List[A.Projection] = []
        for proj in projections:
            if proj.star:
                for name in self.visible:
                    out.append(A.Projection(A.Identifier(name), name))
            else:
                out.append(proj)
        return out

    def _plan_projection_clause(self, clause, *, is_return: bool) -> None:
        child = self.root if self.root is not None else Unit()
        projections = self._expand_star(clause.projections)
        names = [p.output_name() for p in projections]

        any_aggregate = any(has_aggregate(p.expr) for p in projections)

        # index-ordered fast path: when the sole sort key is one
        # range-indexed attribute of a bare label scan (nothing between
        # the scan and this projection that could reorder or filter),
        # stream the index's sorted arrays instead of materializing a
        # Sort — `ORDER BY n.attr LIMIT k` then stops after k rows.
        # Detected against the original ORDER BY, before the
        # output-column remap below rewrites it to an Identifier.
        if (
            len(clause.order_by) == 1
            and not any_aggregate
            and not clause.distinct
            and isinstance(child, NodeByLabelScan)
            and not child.children
        ):
            item = clause.order_by[0]
            key_expr = item.expr
            if isinstance(key_expr, A.Identifier):
                # ORDER BY an output alias sorts on the aliased expression
                for name, p in zip(names, projections):
                    if name == key_expr.name:
                        key_expr = p.expr
                        break
            if (
                isinstance(key_expr, A.PropertyAccess)
                and isinstance(key_expr.subject, A.Identifier)
                and key_expr.subject.name == child._var
                and self.schema.has_index(child._label, key_expr.key)
            ):
                child = IndexOrderScan(
                    child._var, child._label, key_expr.key, item.ascending
                )
                clause = _replace_order_by(clause, ())

        # an ORDER BY expression identical to a projection expression sorts
        # on the output column (`RETURN DISTINCT b.name ORDER BY b.name`)
        expr_to_name = {p.expr: n for n, p in zip(names, projections)}
        clause_order_by = tuple(
            A.OrderItem(A.Identifier(expr_to_name[item.expr]), item.ascending)
            if item.expr in expr_to_name
            else item
            for item in clause.order_by
        )
        clause = _replace_order_by(clause, clause_order_by)

        # ORDER BY may reference pre-projection variables (Cypher allows
        # `RETURN n.name ORDER BY n.age`); thread them through as hidden
        # columns dropped after the sort.  Not with DISTINCT or aggregation,
        # where the sort keys must be computable from the output columns —
        # the same restriction Neo4j enforces.
        hidden: List[str] = []
        if clause.order_by and not any_aggregate:
            needed: Set[str] = set()
            for item in clause.order_by:
                needed |= _identifier_names(item.expr)
            hidden = [
                n for n in sorted(needed) if n not in names and n in child.out_layout
            ]
            if hidden and clause.distinct:
                raise CypherSemanticError(
                    "with DISTINCT, ORDER BY may only reference returned columns"
                )

        if any_aggregate:
            self.root = self._plan_aggregation(child, projections, names)
        else:
            items = [(name, compile_expr(p.expr, child.out_layout)) for name, p in zip(names, projections)]
            items += [(n, compile_expr(A.Identifier(n), child.out_layout)) for n in hidden]
            self.root = Project(child, items)

        out_layout = self.root.out_layout
        if clause.distinct:
            self.root = Distinct(self.root)
        if clause.order_by:
            keys = []
            for item in clause.order_by:
                keys.append((compile_expr(item.expr, out_layout), item.ascending))
            self.root = Sort(self.root, keys)
        if clause.skip is not None:
            self.root = Skip(self.root, compile_expr(clause.skip, out_layout))
        if clause.limit is not None:
            self.root = Limit(self.root, compile_expr(clause.limit, out_layout))
        if not is_return and clause.where is not None:
            self.root = Filter(self.root, compile_expr(clause.where, out_layout), "WHERE")
        if hidden:
            keep = [(n, compile_expr(A.Identifier(n), self.root.out_layout)) for n in names]
            self.root = Project(self.root, keep)

        self.visible = list(names)
        if is_return:
            self.columns = list(names)

    def _plan_aggregation(self, child: PlanOp, projections, names) -> PlanOp:
        """Rewrite aggregate calls to placeholder slots, lift implicit group
        keys out of mixed expressions, and stack Aggregate + Project."""
        group_items: List[Tuple[str, CompiledExpr]] = []
        agg_items: List[Tuple[str, AggSpec]] = []
        outer_items: List[Tuple[str, A.Expr]] = []
        group_index: Dict[A.Expr, str] = {}

        def lift_group(expr: A.Expr) -> str:
            if expr in group_index:
                return group_index[expr]
            name = f"@grp{len(group_items)}"
            group_items.append((name, compile_expr(expr, child.out_layout)))
            group_index[expr] = name
            return name

        def rewrite(expr: A.Expr) -> A.Expr:
            if isinstance(expr, A.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
                slot = f"@agg{len(agg_items)}"
                arg_fn = compile_expr(expr.args[0], child.out_layout) if expr.args else None
                kind = expr.name if expr.name != "stdev" else "stdev"
                agg_items.append((slot, AggSpec(kind, arg_fn, expr.distinct)))
                return A.Identifier(slot)
            if not has_aggregate(expr):
                # a constant is no grouping key: `count(*) + $one` over no
                # input is one row, not zero groups
                if isinstance(expr, (A.Literal, A.Parameter)):
                    return expr
                return A.Identifier(lift_group(expr))
            # rebuild containers around aggregate leaves
            if isinstance(expr, A.Binary):
                return A.Binary(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, A.Comparison):
                return A.Comparison(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, A.BoolOp):
                return A.BoolOp(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, A.Not):
                return A.Not(rewrite(expr.operand))
            if isinstance(expr, A.Unary):
                return A.Unary(expr.op, rewrite(expr.operand))
            if isinstance(expr, A.FunctionCall):
                return A.FunctionCall(expr.name, tuple(rewrite(a) for a in expr.args), expr.distinct)
            if isinstance(expr, A.ListLiteral):
                return A.ListLiteral(tuple(rewrite(i) for i in expr.items))
            if isinstance(expr, A.MapLiteral):
                return A.MapLiteral(tuple((k, rewrite(v)) for k, v in expr.items))
            if isinstance(expr, A.PropertyAccess):
                return A.PropertyAccess(rewrite(expr.subject), expr.key)
            if isinstance(expr, A.Subscript):
                return A.Subscript(rewrite(expr.subject), rewrite(expr.index))
            if isinstance(expr, A.Slice):
                return A.Slice(
                    rewrite(expr.subject),
                    rewrite(expr.start) if expr.start is not None else None,
                    rewrite(expr.stop) if expr.stop is not None else None,
                )
            if isinstance(expr, A.IsNull):
                return A.IsNull(rewrite(expr.operand), expr.negated)
            if isinstance(expr, A.InList):
                return A.InList(rewrite(expr.needle), rewrite(expr.haystack))
            if isinstance(expr, A.StringPredicate):
                return A.StringPredicate(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, A.CaseExpr):
                return A.CaseExpr(
                    rewrite(expr.subject) if expr.subject is not None else None,
                    tuple((rewrite(w), rewrite(t)) for w, t in expr.whens),
                    rewrite(expr.default) if expr.default is not None else None,
                )
            raise CypherSemanticError(
                f"aggregation inside {expr.__class__.__name__} is not supported"
            )

        for name, proj in zip(names, projections):
            if has_aggregate(proj.expr):
                outer_items.append((name, rewrite(proj.expr)))
            else:
                # pure grouping projection: keep its own output name
                group_items.append((name, compile_expr(proj.expr, child.out_layout)))
                group_index[proj.expr] = name
                outer_items.append((name, A.Identifier(name)))

        agg_op = Aggregate(child, group_items, agg_items)
        project_items = [(name, compile_expr(expr, agg_op.out_layout)) for name, expr in outer_items]
        return Project(agg_op, project_items)


class _PathChain:
    """Builds the op chain of one MATCH path, walking outward from the
    anchor node."""

    def __init__(self, planner: _Planner, root: Optional[PlanOp], node_vars: List[str]) -> None:
        self.planner = planner
        self.root = root
        self.bound_in_chain: Set[str] = set(root.out_layout.names) if root is not None else set()

    def note_bound(self, var: str) -> None:
        self.bound_in_chain.add(var)

    def scan_anchor(self, node: A.NodePattern, var: str) -> None:
        planner = self.planner
        child = self.root  # None for standalone paths; stream for correlated
        base_layout = child.out_layout if child is not None else None
        scan: PlanOp
        seek_expr = planner._id_seeks.get(var)
        if seek_expr is not None and not (_identifier_names(seek_expr) - (set(base_layout.names) if base_layout else set())):
            from repro.execplan.record import Layout

            id_fn = compile_expr(seek_expr, base_layout or Layout())
            self.root = NodeByIdSeek(var, id_fn, child)
            self.bound_in_chain.add(var)
            planner._consumed_seeks.add(var)
            self.filter_node_constraints(node, var)
            return
        if node.labels:
            # WHERE conjuncts and inline-map entries may drive one seek;
            # the node's property filter below still checks every entry
            pick = planner._pick_conjunct_seek(
                node, var, set(base_layout.names) if base_layout else set()
            )
            if pick is not None:
                from repro.execplan.record import Layout

                kind, attrs, chosen, _est = pick
                layout = base_layout or Layout()
                specs = [
                    SeekSpec(
                        c.attr,
                        c.op,
                        compile_expr(c.value, layout),
                        f"{var}.{c.attr} {c.op} {_value_display(c.value)}",
                        _literal_of(c.value),
                    )
                    for c in chosen
                ]
                scan = IndexRangeScan(var, node.labels[0], kind, attrs, specs, child)
                planner._consumed_conjuncts.update(
                    id(c.expr) for c in chosen if c.expr is not None
                )
            else:
                scan = NodeByLabelScan(var, node.labels[0], child)
        else:
            scan = AllNodeScan(var, child)
        self.root = scan
        self.bound_in_chain.add(var)
        self.filter_node_constraints(node, var, skip_first_label=bool(node.labels))

    def filter_node_constraints(
        self, node: A.NodePattern, var: str, *, skip_first_label: bool = False
    ) -> None:
        """Residual label/property checks not already guaranteed upstream."""
        labels = node.labels[1:] if skip_first_label else node.labels
        if labels:
            slot = self.root.out_layout.slot(var)
            predicate = _LabelCheckPredicate(slot, tuple(labels))
            self.root = Filter(self.root, predicate, f"{var}:{':'.join(labels)}")
        if node.properties:
            self._property_filter(var, node.properties)

    def _property_filter(self, var: str, properties) -> None:
        layout = self.root.out_layout
        slot = layout.slot(var)
        checks = [(key, compile_expr(value, layout)) for key, value in properties]
        predicate = _PropertyCheckPredicate(slot, checks)
        self.root = Filter(self.root, predicate, f"{var}{{{', '.join(k for k, _ in checks)}}}")

    def traverse(
        self,
        rel: A.RelPattern,
        dst_node: A.NodePattern,
        src_var: str,
        dst_var: str,
        *,
        forward: bool,
    ) -> None:
        """One relationship step from a bound src to dst (possibly bound)."""
        direction = rel.direction
        if not forward:
            direction = {"out": "in", "in": "out", "any": "any"}[direction]

        dst_bound = dst_var in self.bound_in_chain
        # single hops fold destination labels into the algebra; variable
        # length must not (labels constrain only the endpoint, not the
        # intermediate hops the iterated matrix would otherwise filter)
        fold_labels = () if (dst_bound or rel.variable_length) else dst_node.labels
        expression = build_traverse_expression(rel.types, direction, fold_labels)
        edge_var = rel.var

        if rel.variable_length:
            if rel.properties:
                raise CypherSemanticError(
                    "property maps on variable-length relationships are not supported"
                )
            self.root = CondVarLenTraverse(
                self.root,
                src_var,
                dst_var,
                expression,
                rel.min_hops,
                rel.max_hops,
                dst_bound=dst_bound,
            )
        elif dst_bound:
            self.root = ExpandInto(
                self.root,
                src_var,
                dst_var,
                expression,
                edge_var=edge_var,
                types=rel.types,
                direction=direction,
            )
        else:
            self.root = ConditionalTraverse(
                self.root,
                src_var,
                dst_var,
                expression,
                edge_var=edge_var,
                types=rel.types,
                direction=direction,
            )
        if dst_bound:
            # restated constraints on an already-bound variable still filter
            self.filter_node_constraints(dst_node, dst_var)
        else:
            self.bound_in_chain.add(dst_var)
            if rel.variable_length:
                self.filter_node_constraints(dst_node, dst_var)
            elif dst_node.properties:
                # labels were folded into the expression; only properties remain
                self._property_filter(dst_var, dst_node.properties)
        if rel.properties and not rel.variable_length:
            if edge_var is None:
                raise CypherSemanticError(
                    "property maps on anonymous relationships are not supported; bind a variable"
                )
            self._property_filter(edge_var, rel.properties)


class _LabelCheckPredicate:
    """Residual label filter with a vectorized twin: per batch, one bulk
    ``nodes_have_labels`` gather instead of per-row ``has_label`` probes.
    Scalar form kept for ``exec_batch_size=1`` and error fallback."""

    __slots__ = ("_slot", "_wanted")

    def __init__(self, slot: int, wanted: Tuple[str, ...]) -> None:
        self._slot = slot
        self._wanted = wanted

    def __call__(self, record, ctx):
        entity = record[self._slot]
        return isinstance(entity, Node) and all(
            ctx.graph.has_label(entity.id, l) for l in self._wanted
        )

    def batch_eval(self, batch, ctx):
        col = batch.columns[self._slot]
        entity = as_entity_ids(col)
        if entity is not None and entity[0] == "node":
            return ValueColumn(ctx.graph.nodes_have_labels(entity[1], self._wanted))
        values = col.to_objects()
        wanted = self._wanted
        return ValueColumn(
            np.fromiter(
                (
                    isinstance(v, Node)
                    and all(ctx.graph.has_label(v.id, l) for l in wanted)
                    for v in values
                ),
                dtype=np.bool_,
                count=len(values),
            )
        )


class _PropertyCheckPredicate:
    """Inline property-map filter ``(n {k: v})`` with a vectorized twin:
    one property-column gather + elementwise Cypher-equality per key."""

    __slots__ = ("_slot", "_checks", "_batch_values")

    def __init__(self, slot: int, checks) -> None:
        self._slot = slot
        self._checks = list(checks)
        self._batch_values = [(key, vectorize(fn)) for key, fn in self._checks]

    def __call__(self, record, ctx):
        entity = record[self._slot]
        if entity is None:
            return False
        for key, fn in self._checks:
            if _equal(entity.get(key), fn(record, ctx)) is not True:
                return False
        return True

    def batch_eval(self, batch, ctx):
        col = batch.columns[self._slot]
        entity = as_entity_ids(col)
        if entity is None:
            rows = batch.materialize_rows()
            return ValueColumn(
                np.fromiter(
                    (self(r, ctx) is True for r in rows),
                    dtype=np.bool_,
                    count=len(rows),
                )
            )
        kind, ids = entity
        mask = ids >= 0
        n = len(batch)
        for (key, _), (_, bfn) in zip(self._checks, self._batch_values):
            if not mask.any():
                break
            props = gathered_column(ctx.graph, kind, ids, key).to_objects()
            wanted = as_column(bfn(batch, ctx), n).to_objects()
            eq = np.fromiter(
                (_equal(p, w) is True for p, w in zip(props, wanted)),
                dtype=np.bool_,
                count=n,
            )
            mask = mask & eq
        return ValueColumn(mask)


def _identifier_names(expr: A.Expr) -> Set[str]:
    from repro.cypher.semantic import _identifiers

    return _identifiers(expr)


def _extract_id_seeks(where: Optional[A.Expr]) -> Dict[str, A.Expr]:
    """Map var -> id-expression for top-level ``id(var) = expr`` conjuncts."""
    out: Dict[str, A.Expr] = {}
    if where is None:
        return out

    def visit(e: A.Expr) -> None:
        if isinstance(e, A.BoolOp) and e.op == "AND":
            visit(e.left)
            visit(e.right)
            return
        if isinstance(e, A.Comparison) and e.op == "=":
            for fn_side, val_side in ((e.left, e.right), (e.right, e.left)):
                if (
                    isinstance(fn_side, A.FunctionCall)
                    and fn_side.name == "id"
                    and len(fn_side.args) == 1
                    and isinstance(fn_side.args[0], A.Identifier)
                ):
                    out[fn_side.args[0].name] = val_side
                    return

    visit(where)
    return out


def _fully_consumed_by_seeks(
    where: A.Expr, consumed: Set[str], seeks: Dict[str, A.Expr]
) -> bool:
    """True when every AND-conjunct of ``where`` is the ``id(var) = expr``
    comparison a NodeByIdSeek access path was built from — the residual
    filter would re-test exactly what the seek already guarantees.  The
    id-expression must match the one the seek consumed, so a repeated
    ``id(a) = 1 AND id(a) = 2`` keeps its filter."""
    if isinstance(where, A.BoolOp) and where.op == "AND":
        return _fully_consumed_by_seeks(where.left, consumed, seeks) and _fully_consumed_by_seeks(
            where.right, consumed, seeks
        )
    if isinstance(where, A.Comparison) and where.op == "=":
        for fn_side, val_side in ((where.left, where.right), (where.right, where.left)):
            if (
                isinstance(fn_side, A.FunctionCall)
                and fn_side.name == "id"
                and len(fn_side.args) == 1
                and isinstance(fn_side.args[0], A.Identifier)
                and fn_side.args[0].name in consumed
                and seeks.get(fn_side.args[0].name) == val_side
            ):
                return True
    return False


@dataclasses.dataclass(frozen=True)
class _RangeConjunct:
    """One top-level WHERE AND-conjunct an index seek could consume:
    ``var.attr op value`` with the property access on one side.  An
    inline-map entry ``(var {attr: value})`` is an ``=`` one with no
    ``expr``: its property filter stays, so there is nothing to strip."""

    expr: Optional[A.Expr]  # the original conjunct node (identity keys consumption)
    var: str
    attr: str
    op: str  # '=', '<', '<=', '>', '>=', 'STARTS WITH', 'IN'
    value: A.Expr


_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _extract_range_conjuncts(where: Optional[A.Expr]) -> Dict[str, List[_RangeConjunct]]:
    """var -> seek-consumable top-level AND-conjuncts of ``where``."""
    out: Dict[str, List[_RangeConjunct]] = {}
    if where is None:
        return out

    def prop_of(e: A.Expr):
        if isinstance(e, A.PropertyAccess) and isinstance(e.subject, A.Identifier):
            return e.subject.name, e.key
        return None

    def visit(e: A.Expr) -> None:
        if isinstance(e, A.BoolOp) and e.op == "AND":
            visit(e.left)
            visit(e.right)
            return
        if isinstance(e, A.Comparison) and e.op in _FLIP:
            left_p, right_p = prop_of(e.left), prop_of(e.right)
            if left_p and not right_p:
                (var, attr), op, value = left_p, e.op, e.right
            elif right_p and not left_p:
                (var, attr), op, value = right_p, _FLIP[e.op], e.left
            else:
                return
            out.setdefault(var, []).append(_RangeConjunct(e, var, attr, op, value))
            return
        if isinstance(e, A.StringPredicate) and e.op == "STARTS_WITH":
            p = prop_of(e.left)
            if p is not None:
                out.setdefault(p[0], []).append(
                    _RangeConjunct(e, p[0], p[1], "STARTS WITH", e.right)
                )
            return
        if isinstance(e, A.InList):
            p = prop_of(e.needle)
            if p is not None:
                out.setdefault(p[0], []).append(
                    _RangeConjunct(e, p[0], p[1], "IN", e.haystack)
                )

    visit(where)
    return out


def _strip_conjuncts(where: A.Expr, consumed: Set[int]) -> Optional[A.Expr]:
    """``where`` minus the consumed top-level AND-conjuncts (by node
    identity); None when everything was consumed."""
    if not consumed:
        return where

    def strip(e: A.Expr) -> Optional[A.Expr]:
        if isinstance(e, A.BoolOp) and e.op == "AND":
            left, right = strip(e.left), strip(e.right)
            if left is None:
                return right
            if right is None:
                return left
            if left is e.left and right is e.right:
                return e
            return A.BoolOp("AND", left, right)
        return None if id(e) in consumed else e

    return strip(where)


def _literal_of(e: A.Expr):
    """The plan-time constant of a value expression, or NOT_LITERAL."""
    if isinstance(e, A.Literal):
        return e.value
    if isinstance(e, A.ListLiteral) and all(isinstance(i, A.Literal) for i in e.items):
        return [i.value for i in e.items]
    return NOT_LITERAL


def _value_display(e: A.Expr) -> str:
    lit = _literal_of(e)
    if lit is not NOT_LITERAL:
        return repr(lit)
    if isinstance(e, A.Parameter):
        return f"${e.name}"
    return "<expr>"


def _replace_order_by(clause, order_by):
    import dataclasses

    return dataclasses.replace(clause, order_by=order_by)


def plan_single_query(part: A.SingleQuery, schema: "PlanSchema") -> PlannedQuery:
    planner = _Planner(schema)
    for clause in part.clauses:
        planner.add_clause(clause)
    root = planner.root if planner.root is not None else Unit()
    if planner.columns is not None and list(root.out_layout.names) != list(planner.columns):
        # a trailing CALL composed after other clauses leaves earlier
        # variables in the layout; the executor serializes batches
        # positionally, so project down to exactly the result columns
        items = [(n, compile_expr(A.Identifier(n), root.out_layout)) for n in planner.columns]
        root = Project(root, items)
    return PlannedQuery(Results(root), planner.columns, planner.writes)
