"""C&C constraints and their normalization (paper §3.2.1).

A C&C constraint is a set of tuples ``<b, S>`` where ``S`` is a set of input
operands (table instances, identified by their FROM-clause alias) and ``b``
is a currency bound in seconds.  The *normalized form* requires that

1. all input operands are base-table instances (derived tables / views have
   been expanded), and
2. the operand sets are pairwise disjoint.

Normalization unions the constraints from every SFW block of the query,
expands derived-table references, then repeatedly merges tuples with
overlapping operand sets, taking the *minimum* bound (two tuples sharing an
operand force all their operands onto one snapshot, which must satisfy the
tighter bound).

Queries without any currency clause get the *tightest* default — bound 0 on
a single consistency class of all inputs — so they retain traditional
semantics (always computed from the latest back-end snapshot).  Operands not
mentioned by any clause in a query that does have clauses get singleton
bound-0 tuples: unmentioned inputs must be current but need not be mutually
consistent with anything else.
"""

from repro.common.errors import ConsistencyError
from repro.sql import ast


class CCTuple:
    """One ``<bound, operand-set>`` element of a C&C constraint.

    ``by_columns`` carries the grouping columns (``BY R.isbn``) through
    normalization.  The prototype — like the paper's — enforces table-level
    consistency, so grouping columns do not relax anything at run time, and
    no checker reads them; they survive normalization and ``repr`` only.
    """

    __slots__ = ("bound", "operands", "by_columns")

    def __init__(self, bound, operands, by_columns=()):
        self.bound = float(bound)
        self.operands = frozenset(o.lower() for o in operands)
        self.by_columns = tuple(by_columns)

    def __eq__(self, other):
        return (
            isinstance(other, CCTuple)
            and self.bound == other.bound
            and self.operands == other.operands
        )

    def __hash__(self):
        return hash((self.bound, self.operands))

    def __repr__(self):
        ops = ", ".join(sorted(self.operands))
        by = f" by {[c.to_sql() for c in self.by_columns]}" if self.by_columns else ""
        return f"<{self.bound:g}s on ({ops}){by}>"


class CCConstraint:
    """A set of CCTuples, with normalization and bound lookups."""

    def __init__(self, tuples=()):
        self.tuples = list(tuples)

    @classmethod
    def default(cls, operands):
        """The tightest constraint: bound 0, all operands one class."""
        if not operands:
            return cls([])
        return cls([CCTuple(0.0, operands)])

    def union(self, other):
        """Combine two constraints (constraints are sets of tuples)."""
        return CCConstraint(self.tuples + list(other.tuples))

    @property
    def operands(self):
        out = set()
        for t in self.tuples:
            out |= t.operands
        return out

    def is_normalized(self):
        """True if the operand sets are pairwise disjoint."""
        seen = set()
        for t in self.tuples:
            if t.operands & seen:
                return False
            seen |= t.operands
        return True

    def normalize(self, expansion=None, all_operands=None):
        """Return the normalized constraint.

        ``expansion`` maps a derived-table alias to the set of base operands
        it is computed from; entries are expanded recursively.
        ``all_operands`` is the full set of base operands of the query: any
        operand not covered by a clause gets a singleton bound-0 tuple.
        """
        expansion = expansion or {}

        def expand(op):
            seen = set()
            frontier = [op]
            out = set()
            while frontier:
                current = frontier.pop()
                if current in seen:
                    raise ConsistencyError(f"cyclic view expansion at {current!r}")
                seen.add(current)
                if current in expansion:
                    frontier.extend(expansion[current])
                else:
                    out.add(current)
            return out

        work = []
        for t in self.tuples:
            expanded = set()
            for op in t.operands:
                expanded |= expand(op)
            work.append(CCTuple(t.bound, expanded, t.by_columns))

        # Repeatedly merge tuples with overlapping operand sets; the merged
        # bound is the min (the shared snapshot must satisfy both).
        merged = True
        while merged:
            merged = False
            for i in range(len(work)):
                for j in range(i + 1, len(work)):
                    if work[i].operands & work[j].operands:
                        a, b = work[i], work[j]
                        combined = CCTuple(
                            min(a.bound, b.bound),
                            a.operands | b.operands,
                            a.by_columns + b.by_columns,
                        )
                        work = [t for k, t in enumerate(work) if k not in (i, j)]
                        work.append(combined)
                        merged = True
                        break
                if merged:
                    break

        if all_operands is not None:
            covered = set()
            for t in work:
                covered |= t.operands
            for op in sorted(set(o.lower() for o in all_operands) - covered):
                work.append(CCTuple(0.0, [op]))

        return CCConstraint(sorted(work, key=lambda t: sorted(t.operands)))

    def bound_for(self, operand):
        """The currency bound applying to ``operand`` (inf if unconstrained)."""
        operand = operand.lower()
        for t in self.tuples:
            if operand in t.operands:
                return t.bound
        return ast.UNBOUNDED

    def class_of(self, operand):
        """The consistency class (operand set) containing ``operand``."""
        operand = operand.lower()
        for t in self.tuples:
            if operand in t.operands:
                return t.operands
        return frozenset([operand])

    def __eq__(self, other):
        return isinstance(other, CCConstraint) and set(self.tuples) == set(other.tuples)

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __repr__(self):
        return "CCConstraint{" + ", ".join(repr(t) for t in self.tuples) + "}"


def _collect_clauses(select, scope, expansion, operands, clauses):
    """Walk a Select block tree gathering currency specs and operand info.

    ``scope`` maps visible aliases (current + outer blocks) to operand ids.
    Operand ids are the FROM aliases themselves, which the caller guarantees
    unique per query by rejecting duplicates.
    """
    local_scope = dict(scope)
    for item in select.from_items:
        alias = item.alias
        if alias in operands or alias in expansion:
            raise ConsistencyError(f"duplicate table alias in query: {alias!r}")
        if isinstance(item, ast.FromSubquery):
            inner_ops = set()
            _collect_clauses(item.select, local_scope, expansion, inner_ops, clauses)
            expansion[alias] = inner_ops
            operands.update(inner_ops)
        else:
            operands.add(alias)
        local_scope[alias] = alias

    # Subqueries in WHERE/HAVING also contribute blocks (paper §2.2, Q3).
    for expr in _subquery_exprs(select):
        inner_ops = set()
        _collect_clauses(expr, local_scope, expansion, inner_ops, clauses)
        operands.update(inner_ops)

    if select.currency is not None:
        for spec in select.currency.specs:
            resolved = []
            for target in spec.targets:
                if target not in local_scope:
                    raise ConsistencyError(
                        f"currency clause references unknown input {target!r}"
                    )
                resolved.append(local_scope[target])
            clauses.append(CCTuple(spec.bound, resolved, spec.by_columns))


def _subquery_exprs(select):
    """Yield Select nodes nested in WHERE/HAVING expressions of one block."""
    roots = [e for e in (select.where, select.having) if e is not None]
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.ExistsSubquery, ast.InSubquery)):
                yield node.select
            elif isinstance(node, ast.Expr):
                stack.extend(node.children())


def constraint_from_select(select):
    """Build the normalized C&C constraint for a parsed SELECT statement.

    Returns ``(constraint, operands)`` where ``operands`` is the set of base
    input-operand aliases of the (extended) query.
    """
    expansion = {}
    operands = set()
    clauses = []
    _collect_clauses(select, {}, expansion, operands, clauses)
    if not clauses:
        return CCConstraint.default(sorted(operands)), operands
    raw = CCConstraint(clauses)
    return raw.normalize(expansion=expansion, all_operands=operands), operands
