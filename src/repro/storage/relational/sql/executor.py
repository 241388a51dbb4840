"""Execution of parsed SQL statements against a :class:`Database`.

The executor performs a light logical-planning pass for SELECTs:

* **access path** — equality/range/IN predicates on indexed columns of the
  base table turn full scans into index lookups,
* **join strategy** — equi-join conditions become hash joins; anything else
  falls back to a nested-loop join,
* then filtering, grouping, projection, distinct, ordering, and limiting.

Rows travel through the pipeline as *environments*: mappings from table
binding (alias or name) to the row dict, so qualified and unqualified column
references both resolve naturally.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Any, Callable, Iterable

from ....errors import SQLError, StorageError
from ...schema import Column, ColumnType, TableSchema
from ..database import Database, SQLResult
from ..index import HashIndex, SortedIndex
from ..table import Table
from . import ast
from .functions import SCALAR_FUNCTIONS, make_aggregate
from .parser import parse

Env = dict[str, dict[str, Any]]
#: Table binding -> its column names, for every binding an env carries.
Scope = dict[str, frozenset[str]]
#: A compiled expression: ``(env, aggregate values or None) -> value``.
Compiled = Callable[[Env, "list[Any] | None"], Any]

#: Sentinel: an expression that cannot be folded to a constant at plan time.
_NOT_CONSTANT = object()


class ExecutionStats:
    """Counters filled in during execution (consumed by the cost model)."""

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.rows_joined = 0
        self.index_lookups = 0
        self.used_index: str | None = None


def execute_sql(
    database: Database, sql: str, parameters: dict[str, Any] | None = None
) -> SQLResult:
    """Parse and execute *sql*; returns a :class:`SQLResult` with ``stats``."""
    statement = parse(sql)
    executor = Executor(database, parameters or {})
    return executor.execute(statement)


class Executor:
    def __init__(self, database: Database, parameters: dict[str, Any]) -> None:
        self._db = database
        self._params = parameters
        self.stats = ExecutionStats()

    def execute(self, statement: ast.Statement) -> SQLResult:
        if isinstance(statement, ast.Select):
            result = self._execute_select(statement)
        elif isinstance(statement, ast.Insert):
            result = self._execute_insert(statement)
        elif isinstance(statement, ast.Update):
            result = self._execute_update(statement)
        elif isinstance(statement, ast.Delete):
            result = self._execute_delete(statement)
        elif isinstance(statement, ast.CreateTable):
            result = self._execute_create_table(statement)
        elif isinstance(statement, ast.CreateIndex):
            result = self._execute_create_index(statement)
        else:  # pragma: no cover - exhaustive over Statement
            raise SQLError(f"unsupported statement: {statement!r}")
        result.stats = self.stats  # type: ignore[attr-defined]
        return result

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------
    def _execute_select(self, select: ast.Select) -> SQLResult:
        table = self._db.table(select.table.name)
        binding = select.table.binding()
        scope: Scope = {binding: frozenset(table.schema.column_names())}
        envs = self._base_rows(table, binding, select.where)
        for join in select.joins:
            envs = self._apply_join(envs, join, scope)
        if select.where is not None:
            where = self._compile(select.where, scope)
            envs = [env for env in envs if where(env, None)]
        has_aggregates = any(
            _find_aggregates(item.expr) for item in select.items
        ) or (select.having is not None and _find_aggregates(select.having))
        if select.group_by or has_aggregates:
            rows = self._grouped_projection(select, envs, scope)
        else:
            project = self._projector(select.items, scope)
            rows = [project(env, None) for env in envs]
            rows = self._order_rows(select, rows, envs, scope)
        columns = self._output_columns(select.items, envs)
        if select.distinct:
            rows = _distinct_rows(rows)
        if select.offset:
            rows = rows[select.offset :]
        if select.limit is not None:
            rows = rows[: select.limit]
        return SQLResult(rows=rows, columns=columns, statement_kind="select")

    def _base_rows(
        self, table: Table, binding: str, where: ast.Expr | None
    ) -> list[Env]:
        candidates = self._access_path(table, binding, where)
        if candidates is None:
            rows = table.snapshot()
            self.stats.rows_scanned += len(rows)
        else:
            rows = candidates
            self.stats.index_lookups += 1
        return [{binding: row} for row in rows]

    def _access_path(
        self, table: Table, binding: str, where: ast.Expr | None
    ) -> list[dict[str, Any]] | None:
        """Return candidate rows via an index, or None for a full scan."""
        if where is None:
            return None
        for conjunct in _conjuncts(where):
            rows = self._try_index(table, binding, conjunct)
            if rows is not None:
                return rows
        return None

    def _try_index(
        self, table: Table, binding: str, expr: ast.Expr
    ) -> list[dict[str, Any]] | None:
        if isinstance(expr, ast.Binary) and expr.op in {"=", "<", "<=", ">", ">="}:
            column_ref, literal = _column_literal(expr.left, expr.right)
            if column_ref is None:
                return None
            if column_ref.table not in (None, binding):
                return None
            index = table.index_on(column_ref.name)
            if index is None:
                return None
            value = self._eval_constant(literal)
            if expr.op == "=":
                self.stats.used_index = f"{table.name}.{column_ref.name}"
                return table.snapshot(index.lookup(value))
            if isinstance(index, SortedIndex):
                # Only handle column-on-left ranges; flipped forms fall back.
                if not isinstance(expr.left, ast.ColumnRef):
                    return None
                self.stats.used_index = f"{table.name}.{column_ref.name}"
                if expr.op in {">", ">="}:
                    ids = index.range(low=value, low_inclusive=expr.op == ">=")
                else:
                    ids = index.range(high=value, high_inclusive=expr.op == "<=")
                return table.snapshot(ids)
            return None
        if isinstance(expr, ast.InList) and not expr.negated:
            if not isinstance(expr.operand, ast.ColumnRef):
                return None
            if expr.operand.table not in (None, binding):
                return None
            index = table.index_on(expr.operand.name)
            if not isinstance(index, HashIndex):
                return None
            values = [self._eval_constant(item) for item in expr.items]
            if any(value is _NOT_CONSTANT for value in values):
                return None
            self.stats.used_index = f"{table.name}.{expr.operand.name}"
            return table.snapshot(index.lookup_many(values))
        return None

    def _eval_constant(self, expr: ast.Expr) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Parameter):
            if expr.name not in self._params:
                raise SQLError(f"missing parameter: {expr.name!r}")
            return self._params[expr.name]
        return _NOT_CONSTANT

    def _apply_join(self, envs: list[Env], join: ast.Join, scope: Scope) -> list[Env]:
        """Join *join*'s table onto *envs*; adds its binding to *scope*."""
        table = self._db.table(join.table.name)
        binding = join.table.binding()
        right_rows = table.snapshot()
        self.stats.rows_scanned += len(right_rows)
        equi = _equi_join_key(join.condition, binding)
        left_key = self._compile(equi[0], scope) if equi is not None else None
        scope[binding] = frozenset(table.schema.column_names())
        joined: list[Env] = []
        if equi is not None:
            right_column = equi[1]
            buckets: dict[Any, list[dict[str, Any]]] = {}
            for row in right_rows:
                buckets.setdefault(row.get(right_column), []).append(row)
            for env in envs:
                key = left_key(env, None)
                matches = buckets.get(key, []) if key is not None else []
                for row in matches:
                    joined.append({**env, binding: row})
                    self.stats.rows_joined += 1
                if not matches and join.kind == "left":
                    joined.append({**env, binding: _null_row(table)})
        else:
            condition = (
                self._compile(join.condition, scope)
                if join.condition is not None
                else None
            )
            for env in envs:
                matched = False
                for row in right_rows:
                    candidate = {**env, binding: row}
                    if condition is None or condition(candidate, None):
                        joined.append(candidate)
                        matched = True
                        self.stats.rows_joined += 1
                if not matched and join.kind == "left":
                    joined.append({**env, binding: _null_row(table)})
        return joined

    def _grouped_projection(
        self, select: ast.Select, envs: list[Env], scope: Scope
    ) -> list[dict[str, Any]]:
        groups: dict[tuple, list[Env]] = {}
        if select.group_by:
            keys = [self._compile(expr, scope) for expr in select.group_by]
            for env in envs:
                group = tuple([_hashable(key(env, None)) for key in keys])
                groups.setdefault(group, []).append(env)
        else:
            groups[()] = envs  # implicit single group (may be empty)
        calls: list[ast.FunctionCall] = []
        for item in select.items:
            calls.extend(_find_aggregates(item.expr))
        if select.having is not None:
            calls.extend(_find_aggregates(select.having))
        for order in select.order_by:
            calls.extend(_find_aggregates(order.expr))
        calls = list(dict.fromkeys(calls))
        slots = {call: slot for slot, call in enumerate(calls)}
        aggregates = [self._aggregate(call, scope) for call in calls]
        # Once per group, where the representative env may be empty, so
        # column reads resolve by name and fail as SQL errors.
        having = (
            self._compile(select.having, None, slots)
            if select.having is not None
            else None
        )
        project = self._projector(select.items, None, slots)
        rows: list[dict[str, Any]] = []
        representative_envs: list[Env] = []
        for member_envs in groups.values():
            agg_values = [aggregate(member_envs) for aggregate in aggregates]
            representative = member_envs[0] if member_envs else {}
            if having is not None and not having(representative, agg_values):
                continue
            rows.append(project(representative, agg_values))
            representative_envs.append(representative)
        return self._order_rows(select, rows, representative_envs, None)

    def _aggregate(
        self, call: ast.FunctionCall, scope: Scope
    ) -> Callable[[list[Env]], Any]:
        """One aggregate call compiled to a function of a group's envs."""
        count_star = bool(call.args) and isinstance(call.args[0], ast.Star)
        count_star = count_star or (call.name == "COUNT" and not call.args)
        argument = (
            self._compile(call.args[0], scope) if len(call.args) == 1 else None
        )

        def aggregate(envs: list[Env]) -> Any:
            accumulator = make_aggregate(call.name, count_star, call.distinct)
            for env in envs:
                if count_star:
                    accumulator.add(1)
                elif argument is None:
                    raise SQLError(f"{call.name} expects one argument")
                else:
                    accumulator.add(argument(env, None))
            return accumulator.result()

        return aggregate

    def _projector(
        self,
        items: Iterable[ast.SelectItem],
        scope: Scope | None,
        slots: dict[ast.FunctionCall, int] | None = None,
    ) -> Compiled:
        """Compile a select list to a function building one output row."""
        # (output name, compiled value), or (None, table) for a star item.
        parts: list[tuple[str | None, Any]] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                parts.append((None, item.expr.table))
            else:
                name = item.alias or _output_name(item.expr)
                parts.append((name, self._compile(item.expr, scope, slots)))
        if all(name is not None for name, _ in parts):
            return lambda env, aggs: {name: value(env, aggs) for name, value in parts}

        def project(env: Env, aggs: list[Any] | None) -> dict[str, Any]:
            row: dict[str, Any] = {}
            for name, part in parts:
                if name is not None:
                    row[name] = part(env, aggs)
                    continue
                for binding, bound_row in env.items():
                    if part is None or binding == part:
                        row.update(bound_row)
            return row

        return project

    def _output_columns(
        self, items: Iterable[ast.SelectItem], envs: list[Env]
    ) -> list[str]:
        columns: list[str] = []
        sample = envs[0] if envs else {}
        for item in items:
            if isinstance(item.expr, ast.Star):
                for binding, bound_row in sample.items():
                    if item.expr.table is not None and binding != item.expr.table:
                        continue
                    columns.extend(c for c in bound_row if c not in columns)
                continue
            name = item.alias or _output_name(item.expr)
            if name not in columns:
                columns.append(name)
        return columns

    def _order_rows(
        self,
        select: ast.Select,
        rows: list[dict[str, Any]],
        envs: list[Env],
        scope: Scope | None,
    ) -> list[dict[str, Any]]:
        if not select.order_by:
            return rows
        keys = [
            (self._order_value(order.expr, scope), order.descending)
            for order in select.order_by
        ]
        decorated = []
        for position, row in enumerate(rows):
            env = envs[position] if position < len(envs) else {}
            sort_key = [_SortKey(value(row, env), descending) for value, descending in keys]
            decorated.append((sort_key, row))
        # One stable pass per key, last key first: the same order as sorting
        # on the whole key list, with ties kept in input order.
        for level in reversed(range(len(keys))):
            decorated.sort(key=lambda entry: entry[0][level])
        return [row for _, row in decorated]

    def _order_value(
        self, expr: ast.Expr, scope: Scope | None
    ) -> Callable[[dict[str, Any], Env], Any]:
        """ORDER BY may reference an output alias or an input column."""
        alias = expr.name if isinstance(expr, ast.ColumnRef) else None
        output = alias if alias is not None and expr.table is None else None
        if output is None and _find_aggregates(expr):
            # Grouped query: aggregate results live in the projected row.
            output = _output_name(expr)
        evaluate = self._compile(expr, scope)

        def value(row: dict[str, Any], env: Env) -> Any:
            if output is not None and output in row:
                return row[output]
            try:
                return evaluate(env, None)
            except SQLError:
                if alias is not None and alias in row:
                    return row[alias]
                raise

        return value

    # ------------------------------------------------------------------
    # DML / DDL
    # ------------------------------------------------------------------
    def _execute_insert(self, insert: ast.Insert) -> SQLResult:
        table = self._db.table(insert.table)
        inserted = 0
        for value_tuple in insert.rows:
            if len(value_tuple) != len(insert.columns):
                raise SQLError(
                    f"INSERT column/value count mismatch: "
                    f"{len(insert.columns)} vs {len(value_tuple)}"
                )
            row = {
                column: self._compile(expr, None)({}, None)
                for column, expr in zip(insert.columns, value_tuple)
            }
            table.insert(row)
            inserted += 1
        return SQLResult(rowcount=inserted, statement_kind="insert")

    def _execute_update(self, update: ast.Update) -> SQLResult:
        table = self._db.table(update.table)
        binding = update.table
        scope: Scope = {binding: frozenset(table.schema.column_names())}
        where = self._compile(update.where, scope) if update.where is not None else None
        # Assignments may read the row they change (salary = salary * 2):
        # every row is evaluated once, against its pre-statement values.
        assignments = [
            (column, self._compile(expr, scope)) for column, expr in update.assignments
        ]

        def changes_for(row: dict[str, Any]) -> dict[str, Any] | None:
            env = {binding: row}
            if where is not None and not where(env, None):
                return None
            return {column: value(env, None) for column, value in assignments}

        count = table.update_rows(changes_for)
        return SQLResult(rowcount=count, statement_kind="update")

    def _execute_delete(self, delete: ast.Delete) -> SQLResult:
        table = self._db.table(delete.table)
        binding = delete.table
        if delete.where is None:
            count = table.delete(lambda row: True)
        else:
            scope: Scope = {binding: frozenset(table.schema.column_names())}
            where = self._compile(delete.where, scope)
            count = table.delete(lambda row: where({binding: row}, None))
        return SQLResult(rowcount=count, statement_kind="delete")

    def _execute_create_table(self, create: ast.CreateTable) -> SQLResult:
        columns = [
            Column(
                name=definition.name,
                type=ColumnType.parse(definition.type_name),
                nullable=not (definition.not_null or definition.primary_key),
                primary_key=definition.primary_key,
            )
            for definition in create.columns
        ]
        self._db.create_table(TableSchema(create.table, tuple(columns)))
        return SQLResult(statement_kind="create_table")

    def _execute_create_index(self, create: ast.CreateIndex) -> SQLResult:
        table = self._db.table(create.table)
        if create.kind not in {"hash", "sorted"}:
            raise StorageError(f"unknown index kind: {create.kind!r}")
        table.create_index(create.column, kind=create.kind)
        return SQLResult(statement_kind="create_index")

    # ------------------------------------------------------------------
    # Expression compilation
    # ------------------------------------------------------------------
    def _compile(
        self,
        expr: ast.Expr,
        scope: Scope | None,
        slots: dict[ast.FunctionCall, int] | None = None,
    ) -> Compiled:
        """Compile *expr* to a function of ``(env, aggregate values)``.

        *scope* maps each table binding every env will carry to its
        columns; a column owned by exactly one binding is read straight
        from that row.  With no scope, columns resolve by name per env.
        *slots* places each aggregate call in the grouped context's value
        list; without it an aggregate fails as used outside a group.

        Compiling never raises: a missing parameter, an unknown function
        or a bad operand raises the same :class:`SQLError` when (and only
        when) the evaluation would have reached it.  Subtrees without
        column or aggregate reads fold to constants when that succeeds.
        """

        def sub(child: ast.Expr) -> Compiled:
            return self._compile(child, scope, slots)

        if isinstance(expr, ast.Literal):
            return _Constant(expr.value)
        if isinstance(expr, ast.Parameter):
            if expr.name not in self._params:
                return _fails(f"missing parameter: {expr.name!r}")
            return _Constant(self._params[expr.name])
        if isinstance(expr, ast.ColumnRef):
            return _column(expr, scope)
        if isinstance(expr, ast.Unary):
            operand = sub(expr.operand)
            return _fold(_unary(expr.op, operand), operand)
        if isinstance(expr, ast.Binary):
            return _binary(expr.op, sub(expr.left), sub(expr.right))
        if isinstance(expr, ast.InList):
            return _in_list(sub(expr.operand), [sub(i) for i in expr.items], expr.negated)
        if isinstance(expr, ast.Between):
            return _between(
                sub(expr.operand), sub(expr.low), sub(expr.high), expr.negated
            )
        if isinstance(expr, ast.IsNull):
            operand = sub(expr.operand)
            if expr.negated:
                return _fold(lambda env, aggs: operand(env, aggs) is not None, operand)
            return _fold(lambda env, aggs: operand(env, aggs) is None, operand)
        if isinstance(expr, (ast.Exists, ast.Subquery, ast.InSubquery)):
            return self._compile_subquery(expr, scope, slots)
        if isinstance(expr, ast.FunctionCall):
            return self._compile_function(expr, scope, slots)
        if isinstance(expr, ast.CaseWhen):
            default = sub(expr.default) if expr.default is not None else None
            return _case([(sub(c), sub(r)) for c, r in expr.whens], default)
        if isinstance(expr, ast.Star):
            return _fails("'*' is only valid in select lists and COUNT(*)")
        return _fails(f"cannot evaluate expression: {expr!r}")

    def _compile_function(
        self,
        call: ast.FunctionCall,
        scope: Scope | None,
        slots: dict[ast.FunctionCall, int] | None,
    ) -> Compiled:
        if call.is_aggregate:
            slot = None if slots is None else slots.get(call)
            if slot is None:
                return _fails(f"aggregate {call.name} used outside a grouped context")
            return lambda env, aggs: aggs[slot]
        handler = SCALAR_FUNCTIONS.get(call.name)
        if handler is None:
            return _fails(f"unknown function: {call.name}")
        args = [self._compile(arg, scope, slots) for arg in call.args]
        if len(args) == 1:
            (only,) = args
            return _fold(lambda env, aggs: handler([only(env, aggs)]), only)
        return _fold(
            lambda env, aggs: handler([arg(env, aggs) for arg in args]), *args
        )

    def _compile_subquery(
        self,
        expr: ast.Exists | ast.Subquery | ast.InSubquery,
        scope: Scope | None,
        slots: dict[ast.FunctionCall, int] | None,
    ) -> Compiled:
        """Subqueries are uncorrelated: each runs at most once per statement,
        the first time an evaluation reaches it."""

        @functools.cache
        def result() -> SQLResult:
            return self._execute_select(expr.select)

        if isinstance(expr, ast.Exists):
            negated = expr.negated
            return lambda env, aggs: bool(result().rows) != negated
        if isinstance(expr, ast.Subquery):

            def scalar(env: Env, aggs: list[Any] | None) -> Any:
                found = result()
                if not found.rows or not found.columns:
                    return None
                return found.rows[0][found.columns[0]]

            return scalar
        operand = self._compile(expr.operand, scope, slots)
        negated = expr.negated

        @functools.cache
        def members() -> set[Any]:
            found = result()
            return {row[found.columns[0]] for row in found.rows}

        def in_subquery(env: Env, aggs: list[Any] | None) -> Any:
            value = operand(env, aggs)
            if value is None:
                return None
            if not result().columns:
                return negated
            return (value in members()) != negated

        return in_subquery


# ----------------------------------------------------------------------
# Compiled expression nodes
# ----------------------------------------------------------------------
class _Constant:
    """A folded subtree: the same value for every env."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __call__(self, env: Env, aggs: list[Any] | None) -> Any:
        return self.value


def _fold(node: Compiled, *children: Compiled) -> Compiled:
    """*node* as a constant when all its children are, unless evaluating it
    raises — then the error stays where the evaluation would reach it."""
    if not all(isinstance(child, _Constant) for child in children):
        return node
    try:
        return _Constant(node({}, None))
    except Exception:
        return node


def _fails(message: str) -> Compiled:
    def fail(env: Env, aggs: list[Any] | None) -> Any:
        raise SQLError(message)

    return fail


def _column(ref: ast.ColumnRef, scope: Scope | None) -> Compiled:
    owners: list[str] = []
    if scope is not None:
        if ref.table is None:
            owners = [binding for binding, columns in scope.items() if ref.name in columns]
        elif ref.name in scope.get(ref.table, ()):
            owners = [ref.table]
    if len(owners) == 1:
        binding, name = owners[0], ref.name
        return lambda env, aggs: env[binding][name]
    return lambda env, aggs: _resolve(env, ref)


def _unary(op: str, operand: Compiled) -> Compiled:
    if op == "-":

        def negate(env: Env, aggs: list[Any] | None) -> Any:
            value = operand(env, aggs)
            return None if value is None else -value

        return negate
    if op == "NOT":

        def invert(env: Env, aggs: list[Any] | None) -> Any:
            value = operand(env, aggs)
            return None if value is None else not value

        return invert

    def unknown(env: Env, aggs: list[Any] | None) -> Any:
        operand(env, aggs)
        raise SQLError(f"unknown unary operator: {op}")

    return unknown


def _binary(op: str, left: Compiled, right: Compiled) -> Compiled:
    if op == "AND":

        def both(env: Env, aggs: list[Any] | None) -> Any:
            a = left(env, aggs)
            if a is not None and not a:
                return False
            b = right(env, aggs)
            if b is not None and not b:
                return False
            if a is None or b is None:
                return None
            return True

        return _fold(both, left, right)
    if op == "OR":

        def either(env: Env, aggs: list[Any] | None) -> Any:
            a = left(env, aggs)
            if a is not None and a:
                return True
            b = right(env, aggs)
            if b is not None and b:
                return True
            if a is None or b is None:
                return None
            return False

        return _fold(either, left, right)
    if op == "LIKE" and isinstance(right, _Constant) and right.value is not None:
        match = _like_regex(str(right.value)).fullmatch

        def like(env: Env, aggs: list[Any] | None) -> Any:
            text = left(env, aggs)
            return None if text is None else match(str(text)) is not None

        return _fold(like, left)
    apply = _BINARY_OPS.get(op) or _unknown_binary(op)
    if isinstance(right, _Constant) and right.value is not None:
        constant = right.value

        def with_constant(env: Env, aggs: list[Any] | None) -> Any:
            a = left(env, aggs)
            return None if a is None else apply(a, constant)

        return _fold(with_constant, left)

    def binary(env: Env, aggs: list[Any] | None) -> Any:
        a = left(env, aggs)
        b = right(env, aggs)
        if a is None or b is None:
            return None
        return apply(a, b)

    return _fold(binary, left, right)


def _in_list(operand: Compiled, items: list[Compiled], negated: bool) -> Compiled:
    def members(env: Env, aggs: list[Any] | None) -> set[Any]:
        return {item(env, aggs) for item in items}

    folded = _fold(members, *items)
    constant = folded.value if isinstance(folded, _Constant) else None

    def in_list(env: Env, aggs: list[Any] | None) -> Any:
        value = operand(env, aggs)
        if value is None:
            return None
        found = value in (members(env, aggs) if constant is None else constant)
        return found != negated

    return _fold(in_list, operand, *items)


def _between(
    operand: Compiled, low: Compiled, high: Compiled, negated: bool
) -> Compiled:
    def between(env: Env, aggs: list[Any] | None) -> Any:
        value = operand(env, aggs)
        lower = low(env, aggs)
        upper = high(env, aggs)
        if value is None or lower is None or upper is None:
            return None
        return (lower <= value <= upper) != negated

    return _fold(between, operand, low, high)


def _case(whens: list[tuple[Compiled, Compiled]], default: Compiled | None) -> Compiled:
    def case(env: Env, aggs: list[Any] | None) -> Any:
        for condition, result in whens:
            if condition(env, aggs):
                return result(env, aggs)
        return None if default is None else default(env, aggs)

    parts = [node for pair in whens for node in pair]
    return _fold(case, *parts, *([default] if default is not None else []))


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise SQLError("division by zero")
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        raise SQLError("modulo by zero")
    return left % right


def _unknown_binary(op: str) -> Callable[[Any, Any], Any]:
    def unknown(left: Any, right: Any) -> Any:
        raise SQLError(f"unknown binary operator: {op}")

    return unknown


_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
    "||": lambda left, right: str(left) + str(right),
    "LIKE": lambda left, right: _like_regex(str(right)).fullmatch(str(left)) is not None,
}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class _SortKey:
    """Ordering wrapper: NULLs first ascending, comparison-safe, reversible."""

    __slots__ = ("value", "descending")

    def __init__(self, value: Any, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending
        if b is None:
            return self.descending
        if self.descending:
            return b < a
        return a < b


def _resolve(env: Env, ref: ast.ColumnRef) -> Any:
    if ref.table is not None:
        if ref.table not in env:
            raise SQLError(f"unknown table binding: {ref.table!r}")
        row = env[ref.table]
        if ref.name not in row:
            raise SQLError(f"unknown column {ref.name!r} in {ref.table!r}")
        return row[ref.name]
    matches = [binding for binding, row in env.items() if ref.name in row]
    if not matches:
        raise SQLError(f"unknown column: {ref.name!r}")
    if len(matches) > 1:
        raise SQLError(f"ambiguous column {ref.name!r}: in {sorted(matches)}")
    return env[matches[0]][ref.name]


def _conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _column_literal(
    left: ast.Expr, right: ast.Expr
) -> tuple[ast.ColumnRef | None, ast.Expr | None]:
    if isinstance(left, ast.ColumnRef) and isinstance(right, (ast.Literal, ast.Parameter)):
        return left, right
    if isinstance(right, ast.ColumnRef) and isinstance(left, (ast.Literal, ast.Parameter)):
        return right, left
    return None, None


def _equi_join_key(
    condition: ast.Expr | None, new_binding: str
) -> tuple[ast.Expr, str] | None:
    """If *condition* is ``existing_expr = new_binding.column``, return
    (existing-side expression, new-side column name) for a hash join."""
    if not isinstance(condition, ast.Binary) or condition.op != "=":
        return None
    left, right = condition.left, condition.right
    if isinstance(right, ast.ColumnRef) and right.table == new_binding:
        if not _mentions_binding(left, new_binding):
            return left, right.name
    if isinstance(left, ast.ColumnRef) and left.table == new_binding:
        if not _mentions_binding(right, new_binding):
            return right, left.name
    return None


def _mentions_binding(expr: ast.Expr, binding: str) -> bool:
    if isinstance(expr, ast.ColumnRef):
        return expr.table == binding
    if isinstance(expr, ast.Binary):
        return _mentions_binding(expr.left, binding) or _mentions_binding(expr.right, binding)
    if isinstance(expr, ast.Unary):
        return _mentions_binding(expr.operand, binding)
    if isinstance(expr, ast.FunctionCall):
        return any(_mentions_binding(arg, binding) for arg in expr.args)
    return False


def _find_aggregates(expr: ast.Expr) -> list[ast.FunctionCall]:
    found: list[ast.FunctionCall] = []
    if isinstance(expr, ast.FunctionCall):
        if expr.is_aggregate:
            found.append(expr)
            return found
        for arg in expr.args:
            found.extend(_find_aggregates(arg))
    elif isinstance(expr, ast.Binary):
        found.extend(_find_aggregates(expr.left))
        found.extend(_find_aggregates(expr.right))
    elif isinstance(expr, ast.Unary):
        found.extend(_find_aggregates(expr.operand))
    elif isinstance(expr, ast.InList):
        found.extend(_find_aggregates(expr.operand))
        for item in expr.items:
            found.extend(_find_aggregates(item))
    elif isinstance(expr, ast.Between):
        for sub in (expr.operand, expr.low, expr.high):
            found.extend(_find_aggregates(sub))
    elif isinstance(expr, ast.IsNull):
        found.extend(_find_aggregates(expr.operand))
    elif isinstance(expr, ast.CaseWhen):
        for condition, result in expr.whens:
            found.extend(_find_aggregates(condition))
            found.extend(_find_aggregates(result))
        if expr.default is not None:
            found.extend(_find_aggregates(expr.default))
    return found


def _output_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        if expr.args and isinstance(expr.args[0], ast.Star):
            return f"{expr.name}(*)"
        arg_names = ", ".join(_output_name(arg) for arg in expr.args)
        return f"{expr.name}({arg_names})"
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.Binary):
        return f"{_output_name(expr.left)} {expr.op} {_output_name(expr.right)}"
    if isinstance(expr, ast.Unary):
        return f"{expr.op} {_output_name(expr.operand)}"
    return "expr"


def _like_regex(pattern: str) -> re.Pattern[str]:
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(regex, flags=re.IGNORECASE)


def _null_row(table: Table) -> dict[str, Any]:
    return {name: None for name in table.schema.column_names()}


def _distinct_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    seen: set[tuple] = set()
    result = []
    for row in rows:
        key = tuple(_hashable(row[k]) for k in row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value
