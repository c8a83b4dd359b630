"""Recursive-descent OQL parser for the subset the paper exercises.

Grammar (informal)::

    statement  := query | "explain" query
                  | "analyze" [ident ("," ident)*]
    query      := "select" ["distinct"] select_expr
                  "from" from_clause ("," from_clause)*
                  ["where" or_expr]
                  ["order" "by" order_term ("," order_term)*]
                  ["limit" int]
    select_expr:= tuple_expr | list_expr | or_expr
    tuple_expr := "tuple" "(" ident ":" or_expr ("," ident ":" or_expr)* ")"
    list_expr  := "[" or_expr ("," or_expr)* "]"
    from_clause:= ident "in" (ident | path)
    or_expr    := and_expr ("or" and_expr)*
    and_expr   := not_expr ("and" not_expr)*
    not_expr   := "not" not_expr | comparison
    comparison := primary (("<"|"<="|">"|">="|"="|"!=") primary)?
    primary    := literal | path | "(" or_expr ")"
    path       := ident ("." ident)*
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import OQLSyntaxError
from repro.oql.ast_nodes import (
    AggregateExpr,
    AnalyzeStmt,
    BinOp,
    BoolOp,
    CollectionRef,
    ExistsExpr,
    ExplainStmt,
    Expr,
    FromClause,
    Literal,
    OrderBy,
    Path,
    Query,
    Statement,
    TupleExpr,
)

_AGGREGATES = ("count", "sum", "avg", "min", "max")
from repro.oql.lexer import Token, tokenize

_COMPARISONS = ("<", "<=", ">", ">=", "=", "!=")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- plumbing -----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        token = self.cur
        self.i += 1
        return token

    def expect_kw(self, word: str) -> None:
        if not self.cur.is_kw(word):
            raise OQLSyntaxError(
                f"expected {word!r} at position {self.cur.pos}, "
                f"got {self.cur.text!r}"
            )
        self.advance()

    def expect_op(self, op: str) -> None:
        if not self.cur.is_op(op):
            raise OQLSyntaxError(
                f"expected {op!r} at position {self.cur.pos}, "
                f"got {self.cur.text!r}"
            )
        self.advance()

    def expect_ident(self) -> str:
        if self.cur.kind != "ident":
            raise OQLSyntaxError(
                f"expected identifier at position {self.cur.pos}, "
                f"got {self.cur.text!r}"
            )
        return self.advance().text

    # -- grammar ---------------------------------------------------------

    def statement(self) -> Statement:
        if self.cur.is_kw("explain"):
            self.advance()
            return ExplainStmt(self.query())
        if self.cur.is_kw("analyze"):
            self.advance()
            names: list[str] = []
            if self.cur.kind == "ident":
                names.append(self.advance().text)
                while self.cur.is_op(","):
                    self.advance()
                    names.append(self.expect_ident())
            if self.cur.kind != "eof":
                raise OQLSyntaxError(
                    f"trailing input at position {self.cur.pos}: "
                    f"{self.cur.text!r}"
                )
            return AnalyzeStmt(tuple(names))
        return self.query()

    def query(self) -> Query:
        self.expect_kw("select")
        distinct = False
        if self.cur.is_kw("distinct"):
            distinct = True
            self.advance()
        select = self.select_expr()
        self.expect_kw("from")
        clauses = [self.from_clause()]
        while self.cur.is_op(","):
            self.advance()
            clauses.append(self.from_clause())
        where = None
        if self.cur.is_kw("where"):
            self.advance()
            where = self.or_expr()
        order_by: list[OrderBy] = []
        if self.cur.is_kw("order"):
            self.advance()
            self.expect_kw("by")
            order_by.append(self._order_term())
            while self.cur.is_op(","):
                self.advance()
                order_by.append(self._order_term())
        limit: int | None = None
        if self.cur.is_kw("limit"):
            self.advance()
            if self.cur.kind != "int":
                raise OQLSyntaxError(
                    f"limit expects an integer at position {self.cur.pos}, "
                    f"got {self.cur.text!r}"
                )
            limit = int(self.advance().text.replace("_", ""))
        if self.cur.kind != "eof":
            raise OQLSyntaxError(
                f"trailing input at position {self.cur.pos}: {self.cur.text!r}"
            )
        return Query(
            select, tuple(clauses), where, distinct, tuple(order_by), limit
        )

    def _order_term(self) -> OrderBy:
        key = self.primary()
        if not isinstance(key, Path):
            raise OQLSyntaxError("order by expects var.attribute")
        descending = False
        if self.cur.is_kw("desc"):
            descending = True
            self.advance()
        elif self.cur.is_kw("asc"):
            self.advance()
        return OrderBy(key, descending)

    def select_expr(self) -> Expr:
        if self.cur.kind == "kw" and self.cur.text in _AGGREGATES:
            func = self.advance().text
            self.expect_op("(")
            arg: Path | None
            if self.cur.is_op("*"):
                self.advance()
                arg = None
            else:
                parsed = self.primary()
                if not isinstance(parsed, Path):
                    raise OQLSyntaxError(
                        f"{func}() expects a variable or var.attribute"
                    )
                arg = parsed
            self.expect_op(")")
            if func != "count" and (arg is None or not arg.attrs):
                raise OQLSyntaxError(f"{func}() needs var.attribute")
            return AggregateExpr(func, arg)
        if self.cur.is_kw("tuple"):
            self.advance()
            self.expect_op("(")
            fields = [self._tuple_field()]
            while self.cur.is_op(","):
                self.advance()
                fields.append(self._tuple_field())
            self.expect_op(")")
            return TupleExpr(tuple(fields))
        if self.cur.is_op("["):
            self.advance()
            exprs = [self.or_expr()]
            while self.cur.is_op(","):
                self.advance()
                exprs.append(self.or_expr())
            self.expect_op("]")
            fields = tuple(
                (f"col{i}", expr) for i, expr in enumerate(exprs)
            )
            return TupleExpr(fields)
        return self.or_expr()

    def _tuple_field(self) -> tuple[str, Expr]:
        name = self.expect_ident()
        self.expect_op(":")
        return name, self.or_expr()

    def from_clause(self) -> FromClause:
        var = self.expect_ident()
        self.expect_kw("in")
        first = self.expect_ident()
        if self.cur.is_op("."):
            attrs = []
            while self.cur.is_op("."):
                self.advance()
                attrs.append(self.expect_ident())
            return FromClause(var, Path(first, tuple(attrs)))
        return FromClause(var, CollectionRef(first))

    def or_expr(self) -> Expr:
        operands = [self.and_expr()]
        while self.cur.is_kw("or"):
            self.advance()
            operands.append(self.and_expr())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("or", tuple(operands))

    def and_expr(self) -> Expr:
        operands = [self.not_expr()]
        while self.cur.is_kw("and"):
            self.advance()
            operands.append(self.not_expr())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("and", tuple(operands))

    def not_expr(self) -> Expr:
        if self.cur.is_kw("not"):
            self.advance()
            return BoolOp("not", (self.not_expr(),))
        if self.cur.is_kw("exists"):
            return self.exists_expr()
        return self.comparison()

    def exists_expr(self) -> Expr:
        self.expect_kw("exists")
        var = self.expect_ident()
        self.expect_kw("in")
        first = self.expect_ident()
        attrs = []
        while self.cur.is_op("."):
            self.advance()
            attrs.append(self.expect_ident())
        if not attrs:
            raise OQLSyntaxError(
                "exists ranges over a set attribute (e.g. p.clients)"
            )
        self.expect_op(":")
        condition = self.not_expr()
        return ExistsExpr(var, Path(first, tuple(attrs)), condition)

    def comparison(self) -> Expr:
        left = self.primary()
        if self.cur.kind == "op" and self.cur.text in _COMPARISONS:
            op = self.advance().text
            right = self.primary()
            return BinOp(op, left, right)
        return left

    def primary(self) -> Expr:
        token = self.cur
        if token.is_op("-"):
            self.advance()
            number = self.cur
            if number.kind == "int":
                self.advance()
                return Literal(-int(number.text.replace("_", "")))
            if number.kind == "float":
                self.advance()
                return Literal(-float(number.text))
            raise OQLSyntaxError(
                f"expected a number after '-' at position {number.pos}"
            )
        if token.kind == "int":
            self.advance()
            return Literal(int(token.text.replace("_", "")))
        if token.kind == "float":
            self.advance()
            return Literal(float(token.text))
        if token.kind == "string":
            self.advance()
            return Literal(token.text)
        if token.is_op("("):
            self.advance()
            inner = self.or_expr()
            self.expect_op(")")
            return inner
        if token.kind == "ident":
            first = self.advance().text
            attrs = []
            while self.cur.is_op("."):
                self.advance()
                attrs.append(self.expect_ident())
            return Path(first, tuple(attrs))
        raise OQLSyntaxError(
            f"unexpected token {token.text!r} at position {token.pos}"
        )


#: Distinct statement texts whose parse is kept.  Parsing charges no
#: simulated time and every AST node is frozen, so one tree can serve
#: every execution of a text; plans are not kept, because the planners
#: read index selectivity, collection sizes and installed statistics,
#: all of which change under inserts and ``analyze``.
STATEMENT_CACHE_SIZE = 1024


def parse(source: str) -> Query:
    """Parse OQL text into a :class:`Query`."""
    stmt = parse_statement(source)
    if isinstance(stmt, Query):
        return stmt
    return _Parser(tokenize(source)).query()  # raises: not a query


@lru_cache(maxsize=STATEMENT_CACHE_SIZE)
def parse_statement(source: str) -> Statement:
    """Parse one statement: a query, ``explain <query>``, or
    ``analyze [collections]``.  The tree of each text is kept (least
    recently used first out); a syntax error is raised on every call and
    kept nowhere."""
    return _Parser(tokenize(source)).statement()
