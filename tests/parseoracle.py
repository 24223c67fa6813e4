"""Reference term parser used to check `lambeksem.lexicon.parse_term`.

A verbatim copy of the package's two-pass parser: `_parse_raw_term`
reads the tokens into an untyped syntax tree, and `build` then walks
that tree to type it.  Each text is read in full before anything is
typed, so when a text has several faults this parser reports a syntax
fault first, where the package reports the first fault in reading
order.  The texts it accepts, and the terms and constant types it
returns for them, are the package's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from lambeksem.lexicon import (CONNECTIVE_TYPE, LOGICAL_CONNECTIVES, QUANTIFIERS, RESERVED,
                               TermNotationError, TypeErasureMismatch, _Tokens,
                               _type_operand)
from lambeksem.terms import (Abs, App, Arrow, Const, E, SemType, SortAtom, T, Term,
                             UnificationError, Unifier, Var, map_types, poly_inst,
                             subst_type, type_vars)


# Raw syntax tree produced by the parser, typed in a second pass.
@dataclass(frozen=True)
class _RawLam:
    var: str
    var_type: SemType
    body: object
    position: int


@dataclass(frozen=True)
class _RawApp:
    fn: object
    arg: object


@dataclass(frozen=True)
class _RawName:
    name: str
    annotation: SemType | None
    position: int


def _parse_raw_term(text: str, sorts: tuple[str, ...],
                    tyvars: tuple[str, ...]) -> object:
    tokens = _Tokens(text)

    def term() -> object:
        if tokens.peek("\\"):
            _, at = tokens.take("\\", "lambda")
            var, _ = tokens.take("ident", "binder name")
            tokens.take(":", "':' after binder")
            vt = _type_operand(tokens, sorts, tyvars)
            tokens.take(".", "'.' after binder type")
            return _RawLam(var, vt, term(), at)
        out = atom()
        while tokens.peek("ident", "(", "\\"):
            out = _RawApp(out, atom())
        return out

    def atom() -> object:
        if tokens.peek("ident"):
            name, at = tokens.take("ident", "name")
            annotation = None
            if tokens.peek(":"):
                tokens.take(":", "':'")
                annotation = _type_operand(tokens, sorts, tyvars)
            return _RawName(name, annotation, at)
        if tokens.peek("("):
            tokens.take("(", "'('")
            inner = term()
            tokens.take(")", "')'")
            return inner
        if tokens.peek("\\"):
            return term()
        raise TermNotationError("expected a term", tokens.at())

    out = term()
    tokens.finish("input")
    return out


def parse_term(text: str, *, sorts: tuple[str, ...],
               poly: Mapping[str, SemType] | None = None,
               coercion_types: Mapping[str, SemType] | None = None,
               constant_types: Mapping[str, SemType] | None = None,
               schema_vars: tuple[str, ...] = (),
               expected_erasure: SemType | None = None,
               where: str = "term") -> tuple[Term, dict[str, SemType]]:
    """Parse and type a lexical term.

    Returns the typed term plus the types discovered for previously
    unseen constants.  Constant types are taken from annotations, from
    `constant_types`, or reconstructed when the context forces them.
    `expected_erasure` pins the undetermined t-positions: t is not
    refinable by sorts, so wherever the category's translation says t,
    the term's type is made t.  A constant whose sort the context never
    forces is an error; entity constants such as proper names need an
    annotation.
    """
    poly = dict(poly or {})
    coercion_types = dict(coercion_types or {})
    known = dict(constant_types or {})
    holes = Unifier()
    new_constants: dict[str, SemType] = {}
    quantifier_types: set[SemType] = set()

    def build(raw: object, env: dict[str, SemType]) -> tuple[Term, SemType]:
        if isinstance(raw, _RawLam):
            if raw.var in RESERVED:
                raise TermNotationError(f"reserved name {raw.var!r} cannot bind", raw.position)
            vt = raw.var_type
            body, body_ty = build(raw.body, {**env, raw.var: vt})
            return Abs(raw.var, vt, body), Arrow(vt, body_ty)
        if isinstance(raw, _RawApp):
            fn, fn_ty = build(raw.fn, env)
            arg, arg_ty = build(raw.arg, env)
            result, clashes = holes.apply(fn_ty, arg_ty)
            reject_sort_clashes(clashes)
            return App(fn, arg), result
        if isinstance(raw, _RawName):
            name = raw.name
            if name in env:
                if raw.annotation is not None:
                    raise TermNotationError(f"bound variable {name!r} cannot be annotated",
                                            raw.position)
                return Var(name, env[name]), env[name]
            if name in LOGICAL_CONNECTIVES:
                return Const(name, CONNECTIVE_TYPE), CONNECTIVE_TYPE
            if name in QUANTIFIERS:
                ty = Arrow(Arrow(holes.fresh(), T), T)
                quantifier_types.add(ty)
                return Const(name, ty), ty
            if name in poly:
                node = poly_inst(name, poly[name])
                return node, subst_type(poly[name], node.inst_map)
            if name in coercion_types:
                ty = coercion_types[name]
                return Const(name, ty), ty
            if raw.annotation is not None:
                ty = raw.annotation
                prior = known.get(name) or new_constants.get(name)
                if prior is not None and prior != ty:
                    raise TypeErasureMismatch(
                        f"constant {name} annotated {ty} but already has type {prior}")
                new_constants.setdefault(name, ty)
                known.setdefault(name, ty)
                return Const(name, ty), ty
            if name in known:
                return Const(name, known[name]), known[name]
            hole = holes.fresh()
            new_constants[name] = hole
            known[name] = hole
            return Const(name, hole), hole
        raise TermNotationError(f"unparsed node {raw!r}", 0)

    def reject_sort_clashes(clashes: list[tuple[SemType, SemType]]) -> None:
        # Schema variables are never bound: a definition may apply a
        # (b -> t) predicate to a c argument, and that clash is repaired
        # at use sites, so a disagreement involving one is tolerated.
        for a, b in clashes:
            if isinstance(a, SortAtom) and isinstance(b, SortAtom):
                raise TypeErasureMismatch(f"cannot reconcile {a} with {b} in {where}")

    def pin(actual: SemType, expected: SemType) -> None:
        # Positions the category translation types at t are not
        # refinable by sorts, so force them; e positions stay open.
        actual = holes.resolve(actual)
        if expected == T:
            reject_sort_clashes(holes.unify(actual, T))
            return
        if isinstance(expected, Arrow) and isinstance(actual, Arrow):
            pin(actual.domain, expected.domain)
            pin(actual.codomain, expected.codomain)

    def ground(ty: SemType) -> SemType:
        grounded = holes.ground(ty)
        if ty not in quantifier_types:
            return grounded
        # A quantifier ranges over e unless its sort was forced.  A schema
        # variable that reached it belongs to a polymorphic constant's own
        # instantiation, so it does not count as forcing.
        stray = type_vars(grounded) - set(schema_vars)
        return subst_type(grounded, dict.fromkeys(stray, E))

    try:
        term, top_type = build(_parse_raw_term(text, sorts, schema_vars), {})
        if expected_erasure is not None:
            pin(top_type, expected_erasure)
        term = map_types(term, ground)
    except UnificationError as exc:
        raise TypeErasureMismatch(f"{exc} in {where}") from exc
    except RecursionError as exc:
        # Nested deeper than parsing or typing it can recurse.
        raise TermNotationError(str(exc), 0) from None

    resolved_constants: dict[str, SemType] = {}
    for name, ty in new_constants.items():
        ty = holes.resolve(ty)
        leftover = type_vars(ty) - set(schema_vars)
        if leftover:
            raise TypeErasureMismatch(
                f"type of constant {name} is underdetermined in {where}; annotate it as name:type")
        resolved_constants[name] = ty
    return term, resolved_constants
