"""Idiom-recognition pass: compile mini-C loops onto the span fast path.

The tree-walking interpreter pays one policy decision per byte for the
string-walking loops that dominate the paper's vulnerable functions.  This
pass recognizes the handful of loop shapes those functions are made of and
rewrites each into a ``Lowered*`` statement the interpreter executes with the
bulk ``scan_span``/``read_span_until``/``write_span`` primitives — one policy
decision per contiguous span (PR 2) or invalid run (PR 4) instead of per byte.

Recognized idioms
-----------------
* ``while (*s) s++;`` (also ``while (*s != 0)``) — terminator scan.
* ``while ((c = *p++) != 0);`` — scan that consumes the terminator.
* ``while ((*d++ = *s++) != 0);`` — the strcpy copy loop.
* ``while (n--) *p++ = c;`` — counted fill.
* ``for (i = 0; i < n; i++) p[i] = c;`` — indexed fill.

Each lowered node keeps the ``original`` statement, and the interpreter falls
back to tree-walking it whenever a runtime precondition fails (the matched
variable does not hold a byte pointer), so lowering is always meaning-
preserving.  The differential Hypothesis suite
(``tests/test_minic_lowering_differential.py``) proves lowered and tree-walk
execution observably identical under all five policies.

Deliberately **not** lowered: ``while (*src) *dst++ = *src++;`` reads the
source byte twice per iteration (condition and body), producing a
read/read/write event stream per byte that span batching cannot reproduce.

This module also owns the compile entry point (``compile_program``).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.errors import MiniCError
from repro.minic import ast_nodes as ast
from repro.minic.parser import parse
from repro.minic.stdlib import BUILTINS


class CompileError(MiniCError):
    """Raised when the translation unit fails the well-formedness checks."""


# -- small matchers --------------------------------------------------------------


def _ident(expr) -> Optional[str]:
    """Name of a plain identifier expression, else None."""
    return expr.name if isinstance(expr, ast.Identifier) else None


def _deref_ident(expr) -> Optional[str]:
    """``*name`` — name of the dereferenced identifier, else None."""
    if isinstance(expr, ast.Unary) and expr.op == "*":
        return _ident(expr.operand)
    return None


def _deref_post_inc(expr) -> Optional[str]:
    """``*name++`` — name of the post-incremented, dereferenced identifier."""
    if isinstance(expr, ast.Unary) and expr.op == "*":
        target = expr.operand
        if isinstance(target, ast.IncDec) and target.op == "++" and target.postfix:
            return _ident(target.target)
    return None


def _is_zero(expr) -> bool:
    return isinstance(expr, ast.IntLiteral) and expr.value == 0


def _nonzero_test(cond):
    """Strip a ``!= 0`` comparison: both ``X`` and ``X != 0`` test X."""
    if isinstance(cond, ast.Binary) and cond.op == "!=" and _is_zero(cond.right):
        return cond.left
    return cond


def _empty_body(stmt) -> bool:
    if isinstance(stmt, ast.Empty):
        return True
    if isinstance(stmt, ast.Block):
        return all(_empty_body(inner) for inner in stmt.statements)
    return False


def _pure_fill_value(expr, excluded: Set[str]) -> bool:
    """True for fill values safe to evaluate once: literals, or identifiers
    the loop itself does not modify."""
    if isinstance(expr, ast.IntLiteral):
        return True
    name = _ident(expr)
    return name is not None and name not in excluded


def _stmt_expr(stmt) -> Optional[ast.Expr]:
    """The expression of a single-statement body (unwrapping one block level)."""
    if isinstance(stmt, ast.Block):
        real = [s for s in stmt.statements if not isinstance(s, ast.Empty)]
        if len(real) != 1:
            return None
        stmt = real[0]
    if isinstance(stmt, ast.ExprStatement):
        return stmt.expr
    return None


# -- idiom recognition ------------------------------------------------------------


def _match_while(stmt: ast.While) -> Optional[ast.Stmt]:
    cond = _nonzero_test(stmt.condition)

    # while (*s) s++;  — terminator scan advancing the scanned pointer.
    scanned = _deref_ident(cond)
    if scanned is not None:
        body = _stmt_expr(stmt.body)
        if (
            isinstance(body, ast.IncDec)
            and body.op == "++"
            and _ident(body.target) == scanned
        ):
            return ast.LoweredScan(pointer=scanned, original=stmt)
        return None

    # while ((c = *p++) != 0);  — scan consuming the terminator into c.
    if isinstance(cond, ast.Assign) and cond.op == "":
        var = _ident(cond.target)
        if var is not None:
            pointer = _deref_post_inc(cond.value)
            if pointer is not None and pointer != var and _empty_body(stmt.body):
                return ast.LoweredScanConsume(var=var, pointer=pointer, original=stmt)
        # while ((*d++ = *s++) != 0);  — the strcpy loop.
        dst = _deref_post_inc(cond.target)
        src = _deref_post_inc(cond.value)
        if dst is not None and src is not None and dst != src and _empty_body(stmt.body):
            return ast.LoweredCopy(dst=dst, src=src, original=stmt)
        return None

    # while (n--) *p++ = c;  — counted fill.
    if isinstance(cond, ast.IncDec) and cond.op == "--" and cond.postfix:
        counter = _ident(cond.target)
        body = _stmt_expr(stmt.body)
        if (
            counter is not None
            and isinstance(body, ast.Assign)
            and body.op == ""
        ):
            pointer = _deref_post_inc(body.target)
            if (
                pointer is not None
                and pointer != counter
                and _pure_fill_value(body.value, {counter, pointer})
            ):
                return ast.LoweredFillWhile(
                    counter=counter, pointer=pointer, value=body.value, original=stmt
                )
    return None


def _match_for(stmt: ast.For) -> Optional[ast.Stmt]:
    # for (i = 0; i < n; i++) p[i] = c;  — indexed fill.
    init = stmt.init
    cond = stmt.condition
    step = stmt.step
    if not (
        isinstance(init, ast.Assign)
        and init.op == ""
        and _is_zero(init.value)
        and isinstance(cond, ast.Binary)
        and cond.op == "<"
        and isinstance(step, ast.IncDec)
        and step.op == "++"
    ):
        return None
    index = _ident(init.target)
    if index is None or _ident(cond.left) != index or _ident(step.target) != index:
        return None
    limit = cond.right
    if not (isinstance(limit, ast.IntLiteral) or (_ident(limit) and _ident(limit) != index)):
        return None
    body = _stmt_expr(stmt.body)
    if not (isinstance(body, ast.Assign) and body.op == ""):
        return None
    target = body.target
    if not (isinstance(target, ast.Index) and _ident(target.index) == index):
        return None
    pointer = _ident(target.base)
    if pointer is None or pointer == index:
        return None
    excluded = {index, pointer}
    limit_name = _ident(limit)
    if limit_name:
        excluded.add(limit_name)
    if limit_name == pointer:
        return None
    if not _pure_fill_value(body.value, excluded):
        return None
    return ast.LoweredFillFor(
        index=index, limit=limit, pointer=pointer, value=body.value, original=stmt
    )


def _lower_stmt(stmt: ast.Stmt) -> ast.Stmt:
    if isinstance(stmt, ast.Block):
        stmt.statements = [_lower_stmt(inner) for inner in stmt.statements]
        return stmt
    if isinstance(stmt, ast.If):
        stmt.then_branch = _lower_stmt(stmt.then_branch)
        if stmt.else_branch is not None:
            stmt.else_branch = _lower_stmt(stmt.else_branch)
        return stmt
    if isinstance(stmt, ast.While):
        lowered = _match_while(stmt)
        if lowered is not None:
            return lowered
        stmt.body = _lower_stmt(stmt.body)
        return stmt
    if isinstance(stmt, ast.For):
        lowered = _match_for(stmt)
        if lowered is not None:
            return lowered
        stmt.body = _lower_stmt(stmt.body)
        return stmt
    return stmt


def lower_unit(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Rewrite recognized loop idioms into span-lowered statements, in place.

    The matched loop statements survive unchanged inside each lowered node's
    ``original`` field (the interpreter's fallback path), so no information is
    lost.
    """
    for function in unit.functions:
        function.body = _lower_stmt(function.body)
    return unit


def lowered_count(unit: ast.TranslationUnit) -> int:
    """Number of lowered statements in the unit (used by tests and the CLI)."""
    count = 0

    def visit(node) -> None:
        nonlocal count
        if isinstance(
            node,
            (
                ast.LoweredScan,
                ast.LoweredScanConsume,
                ast.LoweredCopy,
                ast.LoweredFillWhile,
                ast.LoweredFillFor,
            ),
        ):
            count += 1
        if hasattr(node, "__dict__") or hasattr(node, "__dataclass_fields__"):
            for value in vars(node).values():
                if isinstance(value, list):
                    for item in value:
                        if isinstance(item, (ast.Expr, ast.Stmt)):
                            visit(item)
                elif isinstance(value, (ast.Expr, ast.Stmt)):
                    visit(value)

    for function in unit.functions:
        visit(function.body)
    return count


# -- compile entry point -----------------------------------------------------------


def _collect_calls(node, found, declared) -> None:
    if isinstance(node, ast.Call):
        found.add(node.name)
    if isinstance(node, ast.Declaration):
        declared.add(node.name)
    values = vars(node).values() if hasattr(node, "__dict__") else ()
    for value in values:
        if isinstance(value, list):
            for item in value:
                if isinstance(item, (ast.Expr, ast.Stmt)):
                    _collect_calls(item, found, declared)
        elif isinstance(value, (ast.Expr, ast.Stmt)):
            _collect_calls(value, found, declared)


def compile_program(source: str, lower: bool = True, includes=None, defines=None):
    """Parse ``source``, check well-formedness, and (by default) span-lower it.

    ``lower=False`` keeps the frozen per-byte tree-walk — the reference path
    the differential suite compares against.  There is still no code
    generation: the policy is chosen when the returned Program is
    *instantiated*, exactly as before.
    """
    from repro.minic.interpreter import Program

    unit = parse(source, includes=includes, defines=defines)
    defined = [function.name for function in unit.functions]
    duplicates = sorted({name for name in defined if defined.count(name) > 1})
    if duplicates:
        raise CompileError(f"duplicate function definition(s): {duplicates}")
    variables = {declaration.name for declaration in unit.globals}
    called: Set[str] = set()
    for function in unit.functions:
        _collect_calls(function.body, called, variables)
        variables.update(parameter.name for parameter in function.parameters)
    # A called name may also be a function-pointer variable (parameter or
    # global) dispatched at runtime; only reject names that are neither.
    unknown = called - set(defined) - set(BUILTINS) - variables
    if unknown:
        raise CompileError(f"call(s) to undefined function(s): {sorted(unknown)}")
    if lower:
        lower_unit(unit)
    return Program(unit, source=source)
