"""One compile-and-bind object for every tier that caches plans.

The paper compiles a statement once and checks currency at run time
(§3.2); its remote branch is a query to a server that caches compiled
plans too.  :class:`PlanCompiler` is that plan cache, shared by both
tiers: the cache (:class:`~repro.cache.mtcache.MTCache`) builds one over
its C&C optimizer, and every back-end server
(:class:`~repro.cache.backend.BackendServer`, hence every shard
partition) one over its base-table optimizer.

A SELECT text is answered in up to three steps:

* :meth:`PlanCompiler.probe` — the text LRU (this very text ran before);
* :meth:`PlanCompiler.bind` — :func:`~repro.sql.lexer.fingerprint` the
  text and bind its literals into the template its shape compiled;
* :meth:`PlanCompiler.compile` — optimize the parsed statement with its
  bindable literals as opaque Params, pinning every slot the optimizer
  reads (:class:`~repro.sql.ast.ParamRead`), and store the template.

The owner supplies the optimize function and is told of every event
(``hits``, ``binds``, ``misses``, ``demotions``, ``evictions``,
``template_evictions``) through ``report(event, n)``; the compiler holds
no metric handles of its own.  Invalidation is the owner's call too:
:meth:`PlanCompiler.clear` drops texts, recipes and templates together.
"""

from repro.plan.template import BoundPlan, PlanCache, PlanTemplate, ShapeRecipe, parameterize
from repro.sql import ast
from repro.sql.lexer import fingerprint

__all__ = ["PLAN_CACHE_SIZE", "PlanCompiler", "is_select_text"]

#: Capacity of a plan cache: of its statement texts, of its templates and
#: of its shape recipes (each part is bounded separately).
PLAN_CACHE_SIZE = 128


def is_select_text(sql):
    """Whether a statement text is a SELECT (the only kind with a plan to
    cache; DML, DDL and EXPLAIN texts are never looked up)."""
    return sql.lstrip()[:6].lower() == "select"


class PlanCompiler:
    """A tier's compiled-plan cache: text LRU, shape recipes and templates
    (one :class:`~repro.plan.template.PlanCache`), plus the compile loop
    that fills them.

    ``optimize(select)`` returns an
    :class:`~repro.optimizer.optimizer.OptimizedPlan` or raises (an
    :class:`~repro.common.errors.OptimizerError` propagates: that
    statement is the owner's to run uncached).  ``report(event, n)``
    receives every event.  Each template keeps its built operator tree
    across executions.
    """

    def __init__(self, optimize, report, capacity=PLAN_CACHE_SIZE):
        self.optimize = optimize
        self.report = report
        self.capacity = capacity
        self.cache = PlanCache()

    def probe(self, sql):
        """The plan cached under this exact text (LRU touch), or None."""
        cache = self.cache
        plan = cache.get(sql)
        if plan is not None:
            cache.move_to_end(sql)
            self.report("hits")
        return plan

    def bind(self, sql):
        """A new text of a compiled shape: bind its literals into the
        shape's template (remembered under the text), or None."""
        shape, literals = fingerprint(sql)
        template = self.cache.probe_template(shape, literals)
        if template is None:
            return None
        self.report("hits")
        self.report("binds")
        plan = BoundPlan(template, literals)
        self.remember(sql, plan)
        return plan

    def lookup(self, sql):
        """:meth:`probe`, then :meth:`bind`: the whole probe of a tier
        with nothing in between (a SELECT text only)."""
        plan = self.probe(sql)
        return plan if plan is not None else self.bind(sql)

    def compile(self, sql, select):
        """Compile ``select`` (the parse of ``sql``) into a template and
        return it bound to this statement's literals.

        The optimizer runs on a copy whose bindable literals are opaque
        Params.  Whatever reads one anyway raises ParamRead: that slot is
        pinned to its value (it joins the template's key) and the
        statement is optimized again — in the worst case with every
        literal pinned, which is a plain text-keyed plan.
        """
        shape, literals = fingerprint(sql)
        known = self.cache.recipes.get(shape)
        pinned = set(known.pinned) if known is not None else set()
        if "\x00" in sql:
            pinned.update(range(len(literals)))  # the placeholder byte is taken
        while True:
            params = ast.Params(literals)
            bindable, slots = parameterize(select, params, pinned)
            try:
                plan = self.optimize(bindable)
                # Cached plans keep their built operator tree across
                # executions; building it here keeps a late value read
                # inside the try.
                plan.root()
                break
            except ast.ParamRead as read:
                pinned.add(read.slot)
                self.report("demotions")
        classes = dict(known.classes) if known is not None else {}
        classes.update(params.classes)
        groups = dict(known.groups) if known is not None else {}
        groups.update(params.groups)
        recipe = ShapeRecipe(
            len(literals),
            set(range(len(literals))).difference(slots),
            {slot: fn for slot, fn in classes.items() if slot in slots},
            {group: fn for group, fn in groups.items() if set(group) <= set(slots)},
        )
        template = PlanTemplate(plan, params, shape, recipe)
        self.report("misses")
        evicted = self.cache.add_template(template, self.capacity)
        if evicted:
            self.report("template_evictions", evicted)
        bound = BoundPlan(template, literals)
        self.remember(sql, bound)
        return bound

    def remember(self, sql, plan):
        """Enter ``plan`` under its text, evicting the least recently
        used texts beyond the capacity."""
        evicted = self.cache.remember(sql, plan, self.capacity)
        if evicted:
            self.report("evictions", evicted)

    def describe(self, sql):
        """The ``template:`` line of EXPLAIN for a statement text."""
        return self.cache.describe(sql)

    def clear(self):
        self.cache.clear()
