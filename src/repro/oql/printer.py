"""AST → OQL text (unparser).

Used to display plans and rewritten queries, and — in tests — to verify
the parse → print → parse round trip, which pins down operator
precedence and keyword handling.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.oql.ast_nodes import (
    AggregateExpr,
    BinOp,
    BoolOp,
    CollectionRef,
    ExistsExpr,
    Expr,
    FromClause,
    Literal,
    OrderBy,
    Path,
    Query,
    TupleExpr,
)


def print_query(query: Query) -> str:
    """Render a query as parseable OQL text."""
    parts = ["select"]
    if query.distinct:
        parts.append("distinct")
    parts.append(_print_select(query.select))
    parts.append("from")
    parts.append(", ".join(_print_from(clause) for clause in query.from_clauses))
    if query.where is not None:
        parts.append("where")
        parts.append(print_expr(query.where))
    if query.order_by:
        parts.append("order by")
        parts.append(", ".join(_print_order(term) for term in query.order_by))
    if query.limit is not None:
        parts.append(f"limit {query.limit}")
    return " ".join(parts)


def print_expr(expr: Expr) -> str:
    """Render one expression (fully parenthesizing boolean structure)."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return "'" + expr.value + "'"
        return repr(expr.value)
    if isinstance(expr, Path):
        return str(expr)
    if isinstance(expr, BinOp):
        return f"{print_expr(expr.left)} {expr.op} {print_expr(expr.right)}"
    if isinstance(expr, BoolOp):
        if expr.op == "not":
            return f"not {_maybe_paren(expr.operands[0])}"
        joiner = f" {expr.op} "
        return joiner.join(_maybe_paren(op) for op in expr.operands)
    if isinstance(expr, ExistsExpr):
        return (
            f"exists {expr.var} in {expr.source} : "
            f"{_maybe_paren(expr.condition)}"
        )
    raise QueryError(f"cannot print expression {expr!r}")


def _maybe_paren(expr: Expr) -> str:
    text = print_expr(expr)
    if isinstance(expr, (BoolOp, ExistsExpr)):
        return f"({text})"
    return text


def _print_select(select: Expr) -> str:
    if isinstance(select, AggregateExpr):
        arg = "*" if select.arg is None else str(select.arg)
        return f"{select.func}({arg})"
    if isinstance(select, TupleExpr):
        fields = ", ".join(
            f"{name}: {print_expr(value)}" for name, value in select.fields
        )
        return f"tuple({fields})"
    return print_expr(select)


def _print_from(clause: FromClause) -> str:
    if isinstance(clause.source, CollectionRef):
        return f"{clause.var} in {clause.source.name}"
    return f"{clause.var} in {clause.source}"


def _print_order(term: OrderBy) -> str:
    direction = " desc" if term.descending else ""
    return f"{term.key}{direction}"
