"""Plan templates: one compiled plan per statement *shape*.

The paper checks currency at run time so that one compiled dynamic plan
serves every execution (§3.2).  A template extends that to the
statement's literals: ``WHERE c_custkey = 1234`` and ``= 1235`` have the
same :func:`~repro.sql.lexer.fingerprint` shape, are optimized once with
the literal replaced by an opaque :class:`~repro.sql.ast.Param`, and every
later statement of the shape only *binds* its literals into the
template's parameter cell.

Each literal token of a shape is a **slot** of one of three kinds:

* *free* — bound per statement, keyed by Python type only.  Only the
  constant of a top-level ``col = literal`` conjunct and the items of a
  top-level non-negated ``col IN (...)`` can be free: the predicates whose
  costing never looks at the value.
* *classed* — free, but plan-time code classified the value
  (:meth:`Param.classify`, e.g. the shard a partition key lives on); the
  key carries the class.  The items of an IN-list are classified as one
  group (:func:`~repro.sql.ast.classify_set`): the key carries the *set*
  of their classes, so ``IN (1, 2, 3)`` over shards (0, 1, 0) and over
  (1, 0, 0) share the plan, which only depends on the shards spanned.
* *pinned* — part of the key by value: every other literal (ranges,
  select-list and residual literals, LIMIT, the currency bound — plan
  choice is a function of B), and any free slot whose value plan-time
  code tried to read (:class:`~repro.sql.ast.ParamRead`).

A shape's :class:`ShapeRecipe` says which slot is which; a template is
stored under ``recipe.key(shape, literals)``.
"""

from collections import OrderedDict

from repro.optimizer.query_info import _constant_value
from repro.sql import ast

__all__ = ["BoundPlan", "PlanCache", "PlanTemplate", "ShapeRecipe", "parameterize"]


def parameterize(select, params, pinned):
    """Replace the bindable literals of ``select`` by Params over ``params``.

    Returns ``(select', slots)``: a copy whose WHERE has a
    :class:`~repro.sql.ast.Param` for every bindable literal whose slot is
    not in ``pinned`` (and whose value is what the fingerprint put in that
    slot), and the slots so replaced.  The AND-tree keeps its structure,
    so the SQL rendered for remote branches is the statement's own.
    """
    slots = []

    def bind(node):
        if (
            type(node) is ast.Literal
            and node.slot is not None
            and node.slot not in pinned
            and type(params[node.slot]) is type(node.value)
            and params[node.slot] == node.value
        ):
            slots.append(node.slot)
            return ast.Param(node.slot, params)
        return node

    def rewrite(expr):
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "and":
                return ast.BinaryOp("and", rewrite(expr.left), rewrite(expr.right))
            if expr.op == "=":
                if isinstance(expr.left, ast.ColumnRef):
                    return ast.BinaryOp("=", expr.left, bind(expr.right))
                if isinstance(expr.right, ast.ColumnRef):
                    return ast.BinaryOp("=", bind(expr.left), expr.right)
        elif (
            isinstance(expr, ast.InList)
            and not expr.negated
            and isinstance(expr.operand, ast.ColumnRef)
            and all(_constant_value(item)[0] for item in expr.items)
        ):
            return ast.InList(expr.operand, [bind(item) for item in expr.items])
        return expr

    if select.where is None:
        return select, slots
    return select.replace(where=rewrite(select.where)), slots


class ShapeRecipe:
    """How to key the templates of one shape: ``n`` literal slots, of
    which ``pinned`` are keyed by value, ``classes`` (``(slot, fn)``
    pairs) by ``fn(value)`` and ``groups`` (``(slots, fn)`` pairs) by the
    set of ``fn(value)`` over the group; every slot is keyed by its type.
    Each class and each group is one entry of the key's class part."""

    __slots__ = ("n", "pinned", "classes", "groups")

    def __init__(self, n, pinned, classes, groups):
        self.n = n
        self.pinned = tuple(sorted(pinned))
        self.classes = tuple(sorted(classes.items(), key=lambda item: item[0]))
        self.groups = tuple(sorted(groups.items(), key=lambda item: item[0]))

    def key(self, shape, literals):
        classes = [fn(literals[slot]) for slot, fn in self.classes]
        for slots, fn in self.groups:
            classes.append(frozenset([fn(literals[slot]) for slot in slots]))
        return (
            shape,
            tuple(map(type, literals)),
            tuple([literals[slot] for slot in self.pinned]),
            tuple(classes),
        )


class PlanTemplate:
    """A compiled plan whose closures read ``params``, valid for every
    statement that agrees with the one it was compiled for on ``key``."""

    __slots__ = ("plan", "params", "shape", "recipe", "key")

    def __init__(self, plan, params, shape, recipe):
        self.plan = plan
        self.params = params
        self.shape = shape
        self.recipe = recipe
        self.key = recipe.key(shape, params)

    def describe(self, literals):
        """The ``template:`` line of EXPLAIN: the shape and each slot's
        kind; a group is listed once, at its first slot, with its set."""
        recipe = self.recipe
        classes = dict(recipe.classes)
        groups = {slots[0]: (slots, fn) for slots, fn in recipe.groups}
        grouped = {slot for slots, _ in recipe.groups for slot in slots}
        parts = []
        for slot, value in enumerate(literals):
            if slot in groups:
                slots, fn = groups[slot]
                members = sorted({str(fn(literals[s])) for s in slots})
                names = ",".join(f"?{s}" for s in slots)
                parts.append(f"{names} set={{{', '.join(members)}}}")
                continue
            if slot in grouped:
                continue
            if slot in recipe.pinned:
                kind = f"pinned={ast.Literal(value).to_sql()}"
            elif slot in classes:
                kind = f"class={classes[slot](value)}"
            else:
                kind = "free"
            parts.append(f"?{slot} {kind}")
        return f"template: {self.shape} [{', '.join(parts)}]"


class BoundPlan:
    """A template plus one statement's literals: what the text-keyed plan
    cache holds and the executor runs.  Duck-typed to
    :class:`~repro.optimizer.optimizer.OptimizedPlan`; ``root()`` binds the
    literals into the template's cell first, so the shared operator tree
    (and anything rendered from it — EXPLAIN, remote SQL, a snapshot)
    speaks for *this* statement."""

    __slots__ = ("template", "literals", "column_names", "_history_meta")

    def __init__(self, template, literals):
        self.template = template
        self.literals = literals
        self.column_names = template.plan.column_names

    def root(self):
        template = self.template
        template.params[:] = self.literals
        return template.plan.root()

    def explain(self):
        return self.root().explain()

    def summary(self):
        return self.template.plan.summary()

    def describe_template(self):
        return self.template.describe(self.literals)

    def __getattr__(self, name):
        # cost, est_rows, kind, query_info, ...: the shared plan's.
        return getattr(self.template.plan, name)

    def __repr__(self):
        return f"BoundPlan({self.template.plan!r}, {self.literals!r})"


class PlanCache(OrderedDict):
    """The storage of a :class:`~repro.plan.compiler.PlanCompiler`.

    The mapping itself is the first probe: ``SQL text -> plan`` (a
    :class:`BoundPlan` or an instantiated snapshot), LRU-ordered.  Behind
    it sit ``recipes`` (``shape -> ShapeRecipe``) and ``templates``
    (``key -> PlanTemplate``, LRU-ordered), which the texts' BoundPlans
    point into; :meth:`clear` drops all three, so plans and templates
    cannot outlive one another.  Every part is bounded by the capacity
    handed in (recipes oldest-first: a shape that lost its recipe just
    compiles again).

    A recipe only ever moves slots free -> classed (alone or in a group)
    -> pinned, and every such move changes the length of a key's
    pinned/class tuples, so a template stored under an older recipe can
    never answer a probe made with a newer one.
    """

    def __init__(self):
        super().__init__()
        self.recipes = {}
        self.templates = OrderedDict()

    def remember(self, sql, plan, capacity):
        """Enter ``plan`` under its text; returns how many texts were
        evicted (least recently used first) to make room."""
        evicted = 0
        while len(self) >= capacity:
            self.popitem(last=False)
            evicted += 1
        self[sql] = plan
        return evicted

    def describe(self, sql):
        """The ``template:`` line of EXPLAIN for a statement text."""
        plan = self.get(sql)
        if isinstance(plan, BoundPlan):
            return plan.describe_template()
        return "template: none (this text has no compiled template)"

    def probe_template(self, shape, literals):
        """The template a statement of ``shape`` can bind into, or None."""
        recipe = self.recipes.get(shape)
        if recipe is None or recipe.n != len(literals):
            return None
        template = self.templates.get(recipe.key(shape, literals))
        if template is not None:
            self.templates.move_to_end(template.key)
        return template

    def add_template(self, template, capacity):
        """Store ``template`` and its shape's recipe; returns how many
        templates were evicted to stay within ``capacity``."""
        recipes = self.recipes
        recipes[template.shape] = template.recipe
        while len(recipes) > capacity:
            del recipes[next(iter(recipes))]
        templates = self.templates
        templates[template.key] = template
        templates.move_to_end(template.key)
        evicted = 0
        while len(templates) > capacity:
            templates.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self):
        super().clear()
        self.recipes.clear()
        self.templates.clear()
