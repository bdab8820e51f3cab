"""Structural expression comparison, ignoring column qualifiers.

View definitions store predicates over unqualified base-table columns
(``c_acctbal < 500``), while query conjuncts usually qualify them with the
FROM alias (``c.c_acctbal < 500``).  View matching needs to recognize these
as the same predicate; :func:`equal_ignoring_qualifiers` compares the trees
structurally with column names only.
"""

from repro.sql import ast


def equal_ignoring_qualifiers(a, b):
    """True if two expressions are structurally equal modulo qualifiers."""
    if a is None or b is None:
        return a is b
    for side in (a, b):
        if isinstance(side, ast.Param):
            # Matching a predicate against a bindable literal would need
            # its value: the template build pins the slot and retries.
            raise ast.ParamRead(side.slot)
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.ColumnRef):
        return a.name == b.name
    if isinstance(a, ast.Literal):
        return a.value == b.value
    # Generic structural compare: same scalar attributes, recursively equal
    # expression attributes.
    for key, value_a in a.__dict__.items():
        value_b = b.__dict__[key]
        if isinstance(value_a, ast.Expr) or isinstance(value_b, ast.Expr):
            if not equal_ignoring_qualifiers(value_a, value_b):
                return False
        elif isinstance(value_a, (list, tuple)):
            if len(value_a) != len(value_b):
                return False
            for item_a, item_b in zip(value_a, value_b):
                if isinstance(item_a, ast.Expr) or isinstance(item_b, ast.Expr):
                    if not equal_ignoring_qualifiers(item_a, item_b):
                        return False
                elif item_a != item_b:
                    return False
        elif value_a != value_b:
            return False
    return True
