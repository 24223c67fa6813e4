"""Rendering normal terms of type t as logic formulas.

A beta-normal closed term of type t decomposes into quantifiers
(constants of type (s -> t) -> t applied to an abstraction), binary
connectives, and predicate constants applied to term-level arguments.
Following the display convention for curried predicates, argument order
is reversed: ((watched x) z) prints watched(z,x).  Quantifier binders
are renamed canonically (x, z, x1, z1, ...) in pre-order, so
alpha-equal terms render identically.

Quantifier kinds other than forall/exists are supported for generalized
quantifiers declared as constants of the same shape; they render with
their own name as the binder word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .terms import (Abs, App, Arrow, Const, PolyInst, SemType, SortAtom, T,
                    Term, Var, free_vars as term_free_vars, poly_inst, spine, type_of)

FORALL = "forall"
EXISTS = "exists"
AND = "and"
OR = "or"
IMPLIES = "implies"

UNICODE = "unicode"
ASCII = "ascii"
STRUCTURED = "structured"


class NotAProposition(Exception):
    pass


class NonLogicalHead(Exception):
    pass


# Term-level argument nodes.
@dataclass(frozen=True)
class FVar:
    name: str
    type: SemType


@dataclass(frozen=True)
class FConst:
    name: str
    type: SemType
    schema: SemType | None = None  # set when the source node was polymorphic


@dataclass(frozen=True)
class FFun:
    head: FConst
    args: tuple  # of term-level nodes, in display order


@dataclass(frozen=True)
class FCoerce:
    name: str
    source: SortAtom
    target: SortAtom
    arg: object


# Formula nodes.
@dataclass(frozen=True)
class Quant:
    kind: str  # forall, exists, or a generalized-quantifier constant name
    variable: str
    sort: SemType
    body: "Formula"


@dataclass(frozen=True)
class Conn:
    kind: str  # and, or, implies
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Pred:
    name: str
    args: tuple = ()


Formula = Quant | Conn | Pred


def _binder_names():
    k = 0
    while True:
        suffix = "" if k == 0 else str(k)
        yield "x" + suffix
        yield "z" + suffix
        k += 1


def _eta_contract(term: Term) -> Term:
    """Display-level eta contraction, so iota-style arguments print as
    bare symbols: \\x. (dog x) prints dog."""
    if isinstance(term, Abs):
        body = _eta_contract(term.body)
        if (isinstance(body, App) and isinstance(body.arg, Var)
                and body.arg.name == term.var
                and term.var not in term_free_vars(body.fn)):
            return body.fn
        return Abs(term.var, term.var_type, body)
    if isinstance(term, App):
        return App(_eta_contract(term.fn), _eta_contract(term.arg))
    return term


def _head_info(head: Term) -> tuple[str, SemType, SemType | None]:
    if isinstance(head, (Const, PolyInst)):
        return head.name, head.type, head.schema if isinstance(head, PolyInst) else None
    raise NonLogicalHead(f"cannot render head {head!r}")


def _is_quantifier_type(ty: SemType) -> bool:
    return (isinstance(ty, Arrow) and ty.codomain == T
            and isinstance(ty.domain, Arrow) and ty.domain.codomain == T
            and isinstance(ty.domain.domain, SortAtom))


def to_formula(term: Term, *, reverse_args: bool = True) -> Formula:
    """Decompose a beta-normal term of type t into a formula tree."""
    if type_of(term) != T:
        raise NotAProposition(f"term has type {type_of(term)}, not t")
    names = _binder_names()

    def formula(t: Term, env: dict[str, str]) -> Formula:
        head, args = spine(t)
        if isinstance(head, Abs):
            raise NonLogicalHead("unreduced redex at formula position")
        if isinstance(head, Var):
            raise NonLogicalHead(f"variable head {head.name} at type t")
        name, hty, _ = _head_info(head)
        if name in (AND, OR, IMPLIES) and len(args) == 2:
            return Conn(name, formula(args[0], env), formula(args[1], env))
        if isinstance(head, Const) and _is_quantifier_type(hty) and len(args) == 1:
            sort = hty.domain.domain
            body = args[0]
            if not isinstance(body, Abs):
                body = Abs("_q", sort, App(body, Var("_q", sort)))
            binder = next(names)
            return Quant(name, binder, sort,
                         formula(body.body, {**env, body.var: binder}))
        fargs = [fterm(a, env) for a in args]
        if reverse_args:
            fargs.reverse()
        return Pred(name, tuple(fargs))

    def fterm(t: Term, env: dict[str, str]):
        t = _eta_contract(t)
        if isinstance(t, Var):
            return FVar(env.get(t.name, t.name), t.type)
        if isinstance(t, (Const, PolyInst)):
            name, ty, schema = _head_info(t)
            return FConst(name, ty, schema)
        if isinstance(t, Abs):
            raise NonLogicalHead("abstraction argument cannot be rendered")
        head, args = spine(t)
        if isinstance(head, (Var, Abs)):
            raise NonLogicalHead(f"cannot render argument head {head!r}")
        name, hty, schema = _head_info(head)
        if (isinstance(head, Const) and len(args) == 1
                and isinstance(hty, Arrow)
                and isinstance(hty.domain, SortAtom)
                and isinstance(hty.codomain, SortAtom)
                and hty.codomain != T):
            return FCoerce(name, hty.domain, hty.codomain, fterm(args[0], env))
        fargs = [fterm(a, env) for a in args]
        if reverse_args:
            fargs.reverse()
        return FFun(FConst(name, hty, schema), tuple(fargs))

    return formula(term, {})


def free_vars(formula: Formula) -> set[str]:
    """Variables not bound by an enclosing quantifier."""

    def term_vars(node) -> set[str]:
        if isinstance(node, FVar):
            return {node.name}
        if isinstance(node, FFun):
            return set().union(*[term_vars(a) for a in node.args]) if node.args else set()
        if isinstance(node, FCoerce):
            return term_vars(node.arg)
        return set()

    if isinstance(formula, Quant):
        return free_vars(formula.body) - {formula.variable}
    if isinstance(formula, Conn):
        return free_vars(formula.left) | free_vars(formula.right)
    out: set[str] = set()
    for a in formula.args:
        out |= term_vars(a)
    return out


# ---------------------------------------------------------------------------
# rendering

_PREC = {IMPLIES: 1, OR: 2, AND: 3}
_UNICODE_OPS = {AND: "∧", OR: "∨", IMPLIES: "⇒"}
_ASCII_OPS = {AND: "&", OR: "|", IMPLIES: "->"}
_UNICODE_QUANTS = {FORALL: "∀", EXISTS: "∃"}


def render(formula: Formula, style: str = UNICODE) -> str:
    """Deterministic text for a formula.

    Quantifiers scope maximally rightward: in tail position they render
    bare, otherwise parenthesized.  Connective precedence is and > or >
    implies, with implies right-associative and the others
    left-associative; parentheses appear only where required.
    """
    if style == STRUCTURED:
        return json.dumps(_tree(formula), sort_keys=True)
    unicode = style == UNICODE
    if style not in (UNICODE, ASCII):
        raise ValueError(f"unknown style {style!r}")

    def term_text(node) -> str:
        if isinstance(node, FVar):
            return node.name
        if isinstance(node, FConst):
            return node.name
        if isinstance(node, FCoerce):
            return f"{node.name}({term_text(node.arg)})"
        args = ",".join(term_text(a) for a in node.args)
        return f"{node.head.name}({args})" if node.args else node.head.name

    def text(f: Formula, prec: int, tail: bool) -> str:
        if isinstance(f, Quant):
            if unicode and f.kind in _UNICODE_QUANTS:
                head = f"{_UNICODE_QUANTS[f.kind]}{f.variable}. "
            else:
                head = f"{f.kind} {f.variable}. "
            s = head + text(f.body, 0, True)
            return s if tail else f"({s})"
        if isinstance(f, Conn):
            p = _PREC[f.kind]
            parenthesized = p < prec
            inner_tail = tail or parenthesized
            if f.kind == IMPLIES:
                left = text(f.left, p + 1, False)
                right = text(f.right, p, inner_tail)
            else:
                left = text(f.left, p, False)
                right = text(f.right, p + 1, inner_tail)
            op = _UNICODE_OPS[f.kind] if unicode else _ASCII_OPS[f.kind]
            s = f"{left} {op} {right}"
            return f"({s})" if parenthesized else s
        args = ",".join(term_text(a) for a in f.args)
        return f"{f.name}({args})" if f.args else f.name

    return text(formula, 0, True)


def formula_tree(formula: Formula) -> dict:
    """The STRUCTURED rendering as a plain dict."""
    return _tree(formula)


def _tree(formula: Formula) -> dict:
    def term_tree(node) -> dict:
        if isinstance(node, FVar):
            return {"kind": "var", "name": node.name}
        if isinstance(node, FConst):
            return {"kind": "const", "name": node.name, "type": str(node.type)}
        if isinstance(node, FCoerce):
            return {"kind": "coerce", "name": node.name,
                    "source": node.source.name, "target": node.target.name,
                    "arg": term_tree(node.arg)}
        return {"kind": "pred", "name": node.head.name,
                "args": [term_tree(a) for a in node.args]}

    if isinstance(formula, Quant):
        return {"kind": "quant", "quantifier": formula.kind,
                "variable": formula.variable, "sort": str(formula.sort),
                "body": _tree(formula.body)}
    if isinstance(formula, Conn):
        return {"kind": "conn", "connective": formula.kind,
                "left": _tree(formula.left), "right": _tree(formula.right)}
    return {"kind": "pred", "name": formula.name,
            "args": [term_tree(a) for a in formula.args]}


# ---------------------------------------------------------------------------
# back-translation (inverse on the supported fragment)

def _match_schema(schema: SemType, concrete: SemType,
                  out: dict[str, SemType]) -> None:
    from .terms import TypeVar
    if isinstance(schema, TypeVar):
        prior = out.get(schema.name)
        if prior is not None and prior != concrete:
            raise ValueError(f"inconsistent instantiation of {schema.name}")
        out[schema.name] = concrete
        return
    if isinstance(schema, Arrow) and isinstance(concrete, Arrow):
        _match_schema(schema.domain, concrete.domain, out)
        _match_schema(schema.codomain, concrete.codomain, out)
        return
    if schema != concrete:
        raise ValueError(f"schema {schema} does not match {concrete}")


def formula_to_term(formula: Formula, *, reverse_args: bool = True) -> Term:
    """Rebuild a term from a formula; inverse of to_formula up to
    beta-eta equivalence."""

    def fterm(node) -> Term:
        if isinstance(node, FVar):
            return Var(node.name, node.type)
        if isinstance(node, FConst):
            if node.schema is not None:
                mapping: dict[str, SemType] = {}
                _match_schema(node.schema, node.type, mapping)
                return poly_inst(node.name, node.schema, mapping)
            return Const(node.name, node.type)
        if isinstance(node, FCoerce):
            return App(Const(node.name, Arrow(node.source, node.target)),
                       fterm(node.arg))
        args = [fterm(a) for a in node.args]
        if reverse_args:
            args.reverse()
        out = fterm(node.head)
        for a in args:
            out = App(out, a)
        return out

    def build(f: Formula) -> Term:
        if isinstance(f, Quant):
            body = Abs(f.variable, f.sort, build(f.body))
            return App(Const(f.kind, Arrow(Arrow(f.sort, T), T)), body)
        if isinstance(f, Conn):
            conn = Const(f.kind, Arrow(T, Arrow(T, T)))
            return App(App(conn, build(f.left)), build(f.right))
        args = [fterm(a) for a in f.args]
        if reverse_args:
            args.reverse()
        ty: SemType = T
        for a in reversed(args):
            ty = Arrow(type_of(a), ty)
        out: Term = Const(f.name, ty)
        for a in args:
            out = App(out, a)
        return out

    return build(formula)
