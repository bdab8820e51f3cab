"""EXPLAIN ANALYZE: per-operator run-time statistics.

:func:`instrument` shadows ``open`` / ``rows`` / ``col_batches`` /
``all_rows`` / ``_record_fused`` on every node of a physical operator
tree with counting-and-timing wrappers (instance attributes shadow the
class methods, so the operators themselves stay untouched — and because
both the row and the columnar protocol are wrapped, the same
instrumentation covers both run modes; ``all_rows`` is counted through the
wrapped ``rows()``).  Each node accumulates an :class:`OpStats`:

* ``loops`` — times the node was opened (an IndexNLJoin opens its inner
  seek once and probes it per outer row: the probes are its rows);
* ``rows_out`` / ``col_batches_out`` — actuals produced across all loops;
* ``seconds`` — *inclusive* wall time spent producing this node's
  output (open + iterator pulls, children included); the rendered
  ``self`` column subtracts the executed children's inclusive times;
* ``fused`` — the node ran as part of a fused pipeline;
* SwitchUnion branch taken is read off the operator (``last_chosen``).

:func:`analysis_rows` then pairs those actuals with the plan-time
estimates the optimizer stamped on the nodes (``est_rows``/``est_cost``),
computes the per-node cardinality Q-error, and :func:`render_analysis`
formats the estimate-vs-actual table.

Only use on *fresh* (non-cached) plans: the wrappers stay on the
instances, so instrumenting a plan-cache entry would tax every later
execution of it.
"""

import time

from repro.engine.operators import DEFAULT_BATCH_SIZE, SwitchUnion

__all__ = ["OpStats", "instrument", "analysis_rows", "render_analysis"]


class OpStats:
    """Run-time actuals accumulated by one instrumented operator."""

    __slots__ = ("loops", "rows_out", "seconds", "fused",
                 "col_batches_out", "col_rows_capacity", "_depth")

    def __init__(self):
        self.loops = 0
        self.rows_out = 0
        self.seconds = 0.0
        self.fused = False
        #: Columnar batches emitted and their total *underlying* row
        #: capacity; ``rows_out`` counts the live (selected) rows, so
        #: ``rows_out / col_rows_capacity`` is the selection density.
        self.col_batches_out = 0
        self.col_rows_capacity = 0
        # Reentrancy depth: the compatibility col_batches() fallback pulls
        # from self.rows() — the *wrapped* rows once instrumented — so only
        # the outermost wrapper of an operator may count, or rows and time
        # would be double-counted.
        self._depth = 0

    def __repr__(self):
        return (
            f"OpStats(loops={self.loops}, rows={self.rows_out}, "
            f"batches={self.col_batches_out}, {self.seconds * 1e3:.3f}ms)"
        )


def _wrap(op, stats, timer=time.perf_counter):
    orig_open = op.open
    orig_rows = op.rows
    orig_record_fused = op._record_fused

    def open(ctx):
        stats.loops += 1
        t0 = timer()
        try:
            return orig_open(ctx)
        finally:
            stats.seconds += timer() - t0

    def rows():
        it = iter(orig_rows())
        while True:
            outer = stats._depth == 0
            if outer:
                t0 = timer()
            stats._depth += 1
            try:
                row = next(it)
            except StopIteration:
                stats._depth -= 1
                if outer:
                    stats.seconds += timer() - t0
                return
            stats._depth -= 1
            if outer:
                stats.seconds += timer() - t0
                stats.rows_out += 1
            yield row

    orig_col_batches = op.col_batches

    def col_batches(size=DEFAULT_BATCH_SIZE):
        it = iter(orig_col_batches(size))
        while True:
            outer = stats._depth == 0
            if outer:
                t0 = timer()
            stats._depth += 1
            try:
                batch = next(it)
            except StopIteration:
                stats._depth -= 1
                if outer:
                    stats.seconds += timer() - t0
                return
            stats._depth -= 1
            if outer:
                stats.seconds += timer() - t0
                stats.col_batches_out += 1
                stats.col_rows_capacity += batch.length
                stats.rows_out += batch.n_rows
            yield batch

    def all_rows():
        # Route the materializing fast path through the wrapped rows() so
        # the whole subtree is counted — the operators' own all_rows
        # overrides would bypass the children's instrumentation.
        return list(rows())

    def record_fused(ctx):
        stats.fused = True
        return orig_record_fused(ctx)

    op.open = open
    op.rows = rows
    op.col_batches = col_batches
    op.all_rows = all_rows
    op._record_fused = record_fused


def instrument(root):
    """Attach an :class:`OpStats` (``exec_stats``) to every node and wrap
    its protocol methods; returns the list of instrumented nodes."""
    nodes = []
    for op in root.walk():
        stats = OpStats()
        op.exec_stats = stats
        _wrap(op, stats)
        nodes.append(op)
    return nodes


def q_error(estimate, actual, eps=1.0):
    """Cardinality Q-error: ``max(est/act, act/est)`` with both sides
    clamped to ``eps`` so zero-row results stay finite.  1.0 is a perfect
    estimate; EXPLAIN ANALYZE feeds these into the ``cost_model_q_error``
    histogram to monitor cost-model drift."""
    est = max(float(estimate), eps)
    act = max(float(actual), eps)
    return max(est / act, act / est)


def _node_records(op, depth, out):
    stats = getattr(op, "exec_stats", None) or OpStats()
    executed = stats.loops > 0
    est = op.est_rows
    if stats.col_batches_out:
        mode = "columnar"
    elif executed:
        mode = "row"
    else:
        mode = None
    record = {
        "op": type(op).__name__,
        "describe": op.describe(),
        "depth": depth,
        "est_rows": est,
        "est_cost": op.est_cost,
        "actual_rows": stats.rows_out,
        "loops": stats.loops,
        "batches": stats.col_batches_out,
        # Evaluation mode this node actually produced output in, and the
        # selection-vector density of its columnar output (live rows over
        # underlying batch capacity; 1.0 = dense, no filtering upstream).
        "mode": mode,
        "sel_density": (
            stats.rows_out / stats.col_rows_capacity
            if stats.col_rows_capacity else None
        ),
        "time_ms": stats.seconds * 1e3,
        "fused": stats.fused,
        "executed": executed,
        "branch": None,
        # Q-error only where the node both ran and carries an estimate:
        # never-executed SwitchUnion branches have no actual to compare.
        "q_error": q_error(est, stats.rows_out) if executed and est is not None else None,
    }
    if isinstance(op, SwitchUnion):
        chosen = op.last_chosen
        record["branch"] = (
            None if chosen is None else ("local" if chosen == 0 else "remote")
        )
    out.append(record)
    # Self time: inclusive minus the executed children's inclusive time
    # ("where did the time go"); over a tree the self times sum to the
    # root's inclusive time.
    child_ms = 0.0
    for child in op.children():
        child_record = _node_records(child, depth + 1, out)
        child_ms += child_record["time_ms"]
    record["self_ms"] = record["time_ms"] - child_ms
    return record


def analysis_rows(root):
    """Flatten an executed, instrumented tree into per-node records
    (pre-order, with ``depth`` for re-indenting)."""
    out = []
    _node_records(root, 0, out)
    return out


def render_analysis(records):
    """The estimate-vs-actual table as a list of text lines."""
    headers = ("operator", "est.rows", "act.rows", "loops", "batches",
               "time", "self", "q-err", "notes")
    table = [headers]
    for r in records:
        name = "  " * r["depth"] + r["describe"]
        if not r["executed"]:
            table.append((name, _fmt_est(r["est_rows"]), "-", "0", "-", "-", "-", "-",
                          "(never executed)"))
            continue
        notes = []
        if r["mode"] is not None:
            notes.append(f"mode={r['mode']}")
        if r["sel_density"] is not None:
            notes.append(f"density={r['sel_density']:.2f}")
        if r["fused"]:
            notes.append("fused")
        if r["branch"] is not None:
            notes.append(f"branch={r['branch']}")
        n_batches = r["batches"]
        table.append((
            name,
            _fmt_est(r["est_rows"]),
            str(r["actual_rows"]),
            str(r["loops"]),
            str(n_batches) if n_batches else "-",
            f"{r['time_ms']:.3f}ms",
            f"{r['self_ms']:.3f}ms",
            f"{r['q_error']:.2f}" if r["q_error"] is not None else "-",
            " ".join(notes),
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def _fmt_est(est):
    if est is None:
        return "?"
    return f"{est:.0f}"
