"""Zone-map predicate pushdown.

Each row group stores per-column min/max statistics ("zone maps").
Before a filtered scan touches a row group's bytes, the WHERE predicate
is evaluated against those statistics; a row group whose predicate is
*provably false for every row* is skipped without any I/O.  This is the
classic segment-skipping optimization of columnar engines (DuckDB,
Parquet readers) and is what makes highly selective queries — e.g.
``WHERE step = 624`` over a table holding every timestep — touch a
fraction of the table.

Zone maps refute through interval logic (ranges, comparisons, ``IN``
lists, ``BETWEEN``), composed through AND/OR recursion.  The analysis is
conservative: anything it cannot prove returns "might match", never the
reverse, so pruning can never change results.
"""

from __future__ import annotations

from repro.db.sql import ast

Stats = dict[str, tuple[float, float]]


def can_skip_row_group(where: ast.Expr | None, stats: Stats) -> bool:
    """True iff ``where`` is provably false for every row of the group.

    A group with an empty zone map (a legacy table, or every column
    holding a non-finite value) is never skipped.
    """
    if where is None or not stats:
        return False
    return _always_false(where, stats)


def _bounds(expr: ast.Expr, stats: Stats) -> tuple[float, float] | None:
    """Value interval of an expression over the row group, if derivable."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, (int, float)):
        v = float(expr.value)
        return (v, v)
    if isinstance(expr, ast.Column):
        return stats.get(expr.name)
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _bounds(expr.operand, stats)
        if inner is not None:
            return (-inner[1], -inner[0])
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
        left = _bounds(expr.left, stats)
        right = _bounds(expr.right, stats)
        if left is not None and right is not None:
            if expr.op == "+":
                return (left[0] + right[0], left[1] + right[1])
            return (left[0] - right[1], left[1] - right[0])
    return None


def _always_false(expr: ast.Expr, stats: Stats) -> bool:
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op == "AND":
            return _always_false(expr.left, stats) or _always_false(expr.right, stats)
        if op == "OR":
            return _always_false(expr.left, stats) and _always_false(expr.right, stats)
        left = _bounds(expr.left, stats)
        right = _bounds(expr.right, stats)
        if left is None or right is None:
            return False
        l_lo, l_hi = left
        r_lo, r_hi = right
        if op == "=":
            return l_hi < r_lo or l_lo > r_hi
        if op == "!=":
            return l_lo == l_hi == r_lo == r_hi
        if op == "<":
            return l_lo >= r_hi
        if op == "<=":
            return l_lo > r_hi
        if op == ">":
            return l_hi <= r_lo
        if op == ">=":
            return l_hi < r_lo
        return False
    if isinstance(expr, ast.InList):
        if expr.negated:
            return False
        operand_bounds = _bounds(expr.operand, stats)
        if operand_bounds is None:
            return False
        for option in expr.options:
            b = _bounds(option, stats)
            if b is None:
                return False  # non-numeric option: unprovable
            v_lo, v_hi = b
            lo, hi = operand_bounds
            if not (v_hi < lo or v_lo > hi):
                return False  # this option might match
        return True
    if isinstance(expr, ast.Between):
        if expr.negated:
            return False
        operand = _bounds(expr.operand, stats)
        low = _bounds(expr.low, stats)
        high = _bounds(expr.high, stats)
        if operand is None or low is None or high is None:
            return False
        return operand[1] < low[0] or operand[0] > high[1]
    return False
