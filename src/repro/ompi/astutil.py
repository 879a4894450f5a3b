"""AST construction and rewriting helpers for the transformation sets."""

from __future__ import annotations

import copy
from typing import Optional, Sequence

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import CType, INT, LONG, PointerType


def clone(node):
    return copy.deepcopy(node)


def ident(name: str) -> A.Ident:
    return A.Ident(name)


def intlit(value: int) -> A.Expr:
    """The literal as the parser builds it: a negative value is unary
    minus applied to its magnitude."""
    if value < 0:
        return A.Unary("-", A.IntLit(-int(value)))
    return A.IntLit(int(value))


def call(name: str, *args: A.Expr) -> A.Call:
    return A.Call(ident(name), list(args))


def callstmt(name: str, *args: A.Expr) -> A.ExprStmt:
    return A.ExprStmt(call(name, *args))


def assign(target: A.Expr, value: A.Expr, op: Optional[str] = None) -> A.ExprStmt:
    return A.ExprStmt(A.Assign(target, value, op))


def binop(op: str, left: A.Expr, right: A.Expr) -> A.Binary:
    return A.Binary(op, left, right)


def addr_of(expr: A.Expr) -> A.Unary:
    return A.Unary("&", expr)


def deref(expr: A.Expr) -> A.Unary:
    return A.Unary("*", expr)


def cast(ctype: CType, expr: A.Expr) -> A.Cast:
    return A.Cast(ctype, expr)


def decl(name: str, ctype: CType, init: Optional[A.Expr] = None,
         quals: tuple[str, ...] = ()) -> A.DeclStmt:
    return A.DeclStmt([A.VarDecl(name, ctype, init, None, quals)])


def decl_long(name: str, init: Optional[A.Expr] = None) -> A.DeclStmt:
    return decl(name, LONG, init)


def block(*stmts) -> A.Compound:
    flat: list[A.Stmt] = []
    for s in stmts:
        if isinstance(s, (list, tuple)):
            flat.extend(s)
        elif s is not None:
            flat.append(s)
    return A.Compound(flat)


def string(value: str) -> A.StringLit:
    return A.StringLit(value)


def sizeof_expr(expr: A.Expr) -> A.SizeofExpr:
    return A.SizeofExpr(expr)


def sizeof_type(ctype: CType) -> A.SizeofType:
    return A.SizeofType(ctype)


def ceil_div(num: A.Expr, den: A.Expr) -> A.Expr:
    """(num + den - 1) / den as an expression."""
    return binop("/", binop("-", binop("+", num, clone(den)), intlit(1)), clone(den))


def product(exprs: Sequence[A.Expr]) -> A.Expr:
    out = clone(exprs[0])
    for e in exprs[1:]:
        out = binop("*", out, clone(e))
    return out


def rename_idents(node: A.Node, mapping: dict[str, A.Expr]) -> A.Node:
    """Deep-copy ``node`` replacing every Ident whose name is in ``mapping``
    (except call targets and declarations, which carry names, not Idents)."""
    node = clone(node)
    _rename_in_place(node, mapping)
    return node


def _rename_in_place(node: A.Node, mapping: dict[str, A.Expr]) -> None:
    import dataclasses
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, A.Ident):
            if value.name in mapping and not (
                isinstance(node, A.Call) and node.func is value
            ):
                setattr(node, f.name, clone(mapping[value.name]))
            continue
        if isinstance(value, A.Node):
            _rename_in_place(value, mapping)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, A.Ident):
                    if item.name in mapping:
                        value[i] = clone(mapping[item.name])
                elif isinstance(item, A.Node):
                    _rename_in_place(item, mapping)


def strip_pragmas(stmt: A.Stmt) -> A.Stmt:
    """Deep-copy with every PragmaStmt replaced by its body (or dropped):
    used for sequential host-fallback code."""
    stmt = clone(stmt)
    _strip_in_place(stmt)
    return stmt


def _strip_in_place(node: A.Node) -> None:
    import dataclasses
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, A.PragmaStmt):
            replacement = value.body if value.body is not None \
                else A.ExprStmt(None)
            _strip_in_place(replacement)
            setattr(node, f.name, replacement)
        elif isinstance(value, A.Node):
            _strip_in_place(value)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, A.PragmaStmt):
                    replacement = item.body if item.body is not None \
                        else A.ExprStmt(None)
                    _strip_in_place(replacement)
                    value[i] = replacement
                elif isinstance(item, A.Node):
                    _strip_in_place(item)


def written_names(stmt: A.Stmt) -> set[str]:
    """Names of variables assigned/incremented anywhere in ``stmt``."""
    out: set[str] = set()
    for node in stmt.walk():
        target = None
        if isinstance(node, A.Assign):
            target = node.target
        elif isinstance(node, A.Unary) and node.op in ("++", "--", "p++", "p--"):
            target = node.operand
        if isinstance(target, A.Ident):
            out.add(target.name)
    return out
