"""Typed lambda terms over declared sorts: the semantic core.

Terms are immutable trees.  Every variable and constant carries its type
inline, so a term can be typed without an external signature.  All
operations are pure; fresh names come from a module counter, which keeps
runs deterministic for a fixed sequence of calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping


class TermError(Exception):
    pass


class UnboundVariable(TermError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class TypeMismatch(TermError):
    """Expected/found pair kept structured so callers can inspect it."""

    def __init__(self, site: str, expected: "SemType", found: "SemType"):
        super().__init__(f"type mismatch at {site}: expected {expected}, found {found}")
        self.site = site
        self.expected = expected
        self.found = found


# ---------------------------------------------------------------------------
# semantic types


@dataclass(frozen=True)
class SemType:
    def __str__(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class SortAtom(SemType):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arrow(SemType):
    domain: SemType
    codomain: SemType

    def __str__(self) -> str:
        dom = f"({self.domain})" if isinstance(self.domain, Arrow) else str(self.domain)
        return f"{dom} -> {self.codomain}"


@dataclass(frozen=True)
class TypeVar(SemType):
    """Schema variable of a polymorphic constant."""

    name: str

    def __str__(self) -> str:
        return self.name


E = SortAtom("e")
T = SortAtom("t")


def type_vars(ty: SemType) -> set[str]:
    if isinstance(ty, TypeVar):
        return {ty.name}
    if isinstance(ty, Arrow):
        return type_vars(ty.domain) | type_vars(ty.codomain)
    return set()


def subst_type(ty: SemType, mapping: Mapping[str, SemType]) -> SemType:
    if isinstance(ty, TypeVar):
        return mapping.get(ty.name, ty)
    if isinstance(ty, Arrow):
        return Arrow(subst_type(ty.domain, mapping), subst_type(ty.codomain, mapping))
    return ty


def erase_type(ty: SemType) -> SemType:
    """Collapse every sort except t to e.  Schema variables also erase to e."""
    if isinstance(ty, Arrow):
        return Arrow(erase_type(ty.domain), erase_type(ty.codomain))
    if isinstance(ty, SortAtom) and ty == T:
        return T
    return E


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str
    type: SemType


@dataclass(frozen=True)
class Const(Term):
    name: str
    type: SemType


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Abs(Term):
    var: str
    var_type: SemType
    body: Term


@dataclass(frozen=True)
class PolyInst(Term):
    """Occurrence of a declared polymorphic constant.

    `inst` maps every schema variable to a type; identity instantiations
    (var mapped to itself) mark an occurrence still awaiting resolution.
    """

    name: str
    schema: SemType
    inst: tuple[tuple[str, SemType], ...]

    @property
    def inst_map(self) -> dict[str, SemType]:
        return dict(self.inst)

    def with_inst(self, mapping: Mapping[str, SemType]) -> "PolyInst":
        inst = tuple(sorted((v, mapping.get(v, t)) for v, t in self.inst))
        return PolyInst(self.name, self.schema, inst)


def poly_inst(name: str, schema: SemType, inst: Mapping[str, SemType] | None = None) -> PolyInst:
    mapping = dict(inst or {})
    items = tuple(sorted((v, mapping.get(v, TypeVar(v))) for v in sorted(type_vars(schema))))
    return PolyInst(name, schema, items)


# ---------------------------------------------------------------------------
# type maps and hole unification


def map_types(term: Term, f: Callable[[SemType], SemType]) -> Term:
    """The term with `f` applied to every type it carries: variable,
    constant and binder types, and polymorphic instantiations."""
    if isinstance(term, Var):
        return Var(term.name, f(term.type))
    if isinstance(term, Const):
        return Const(term.name, f(term.type))
    if isinstance(term, PolyInst):
        return term.with_inst({n: f(ty) for n, ty in term.inst})
    if isinstance(term, Abs):
        return Abs(term.var, f(term.var_type), map_types(term.body, f))
    if isinstance(term, App):
        return App(map_types(term.fn, f), map_types(term.arg, f))
    raise TermError(f"unknown term node: {term!r}")


class UnificationError(TermError):
    """An atom against an arrow, or a hole bound to a type containing it."""


def is_hole(ty: SemType) -> bool:
    return isinstance(ty, TypeVar) and ty.name.startswith("_")


class Unifier:
    """Bindings of holes: type variables whose names start with `_`.

    Schema variables of polymorphic constants are never bound; an atomic
    disagreement involving one is returned like a clash of two sorts, and
    the caller decides what it means.
    """

    def __init__(self) -> None:
        self.binding: dict[str, SemType] = {}
        self._counter = itertools.count()

    def fresh(self) -> TypeVar:
        return TypeVar(f"_h{next(self._counter)}")

    def resolve(self, ty: SemType) -> SemType:
        if isinstance(ty, TypeVar) and ty.name in self.binding:
            return self.resolve(self.binding[ty.name])
        if isinstance(ty, Arrow):
            return Arrow(self.resolve(ty.domain), self.resolve(ty.codomain))
        return ty

    def ground(self, ty: SemType) -> SemType:
        """Resolve, then send every hole still open to e."""
        if isinstance(ty, TypeVar):
            if ty.name in self.binding:
                return self.ground(self.binding[ty.name])
            return E if is_hole(ty) else ty
        if isinstance(ty, Arrow):
            return Arrow(self.ground(ty.domain), self.ground(ty.codomain))
        return ty

    def unify(self, a: SemType, b: SemType) -> list[tuple[SemType, SemType]]:
        """Bind holes to make a and b equal; return the atom pairs that
        still disagree, in walk order."""
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return []
        if is_hole(b) and not is_hole(a):
            a, b = b, a
        if is_hole(a):
            if a.name in type_vars(b):
                raise UnificationError(f"circular binding of {a} to {b}")
            self.binding[a.name] = b
            return []
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            return self.unify(a.domain, b.domain) + self.unify(a.codomain, b.codomain)
        if isinstance(a, Arrow) or isinstance(b, Arrow):
            raise UnificationError(f"cannot reconcile {a} with {b}")
        return [(a, b)]

    def apply(self, fn_ty: SemType, arg_ty: SemType
              ) -> tuple[SemType, list[tuple[SemType, SemType]]]:
        """Result type of applying fn_ty to arg_ty, and the clashes left."""
        fn_ty = self.resolve(fn_ty)
        if isinstance(fn_ty, Arrow):
            return fn_ty.codomain, self.unify(fn_ty.domain, arg_ty)
        result = self.fresh()
        return result, self.unify(fn_ty, Arrow(arg_ty, result))


_fresh_counter = itertools.count()


def fresh_name(prefix: str = "_v") -> str:
    return f"{prefix}{next(_fresh_counter)}"


def spine(term: Term) -> tuple[Term, list[Term]]:
    """Unwind nested applications: returns (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


def apply_spine(head: Term, args: list[Term]) -> Term:
    for a in args:
        head = App(head, a)
    return head


def free_vars(term: Term) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, App):
        return free_vars(term.fn) | free_vars(term.arg)
    if isinstance(term, Abs):
        return free_vars(term.body) - {term.var}
    return set()


def type_of(term: Term, context: Mapping[str, SemType] | None = None,
            strict: bool = True) -> SemType:
    """Type of a term.

    With a context, free variables must be bound by it.  Without one,
    free variables are typed by their own annotations.  Non-strict
    checking accepts applications whose function and argument disagree
    only in sorts, not in erasure; unrepaired terms type that way.
    """

    def go(t: Term, bound: dict[str, SemType]) -> SemType:
        if isinstance(t, Var):
            if t.name in bound:
                expected = bound[t.name]
            elif context is not None:
                if t.name not in context:
                    raise UnboundVariable(t.name)
                expected = context[t.name]
            else:
                return t.type
            if expected != t.type:
                raise TypeMismatch(f"variable {t.name}", expected, t.type)
            return t.type
        if isinstance(t, Const):
            return t.type
        if isinstance(t, PolyInst):
            return subst_type(t.schema, t.inst_map)
        if isinstance(t, Abs):
            inner = dict(bound)
            inner[t.var] = t.var_type
            return Arrow(t.var_type, go(t.body, inner))
        if isinstance(t, App):
            fn_ty = go(t.fn, bound)
            arg_ty = go(t.arg, bound)
            if not isinstance(fn_ty, Arrow):
                raise TypeMismatch("application head", Arrow(arg_ty, TypeVar("_")), fn_ty)
            if fn_ty.domain != arg_ty:
                if strict or erase_type(fn_ty.domain) != erase_type(arg_ty):
                    raise TypeMismatch("application argument", fn_ty.domain, arg_ty)
            return fn_ty.codomain
        raise TermError(f"unknown term node: {t!r}")

    return go(term, {})


def _rename_bound(term: Abs) -> Abs:
    new = fresh_name(term.var.rstrip("0123456789") or "_v")
    body = _subst(term.body, term.var, Var(new, term.var_type))
    return Abs(new, term.var_type, body)


def _subst(term: Term, target: str, replacement: Term) -> Term:
    """Capture-avoiding substitution without type checking."""
    if isinstance(term, Var):
        return replacement if term.name == target else term
    if isinstance(term, (Const, PolyInst)):
        return term
    if isinstance(term, App):
        return App(_subst(term.fn, target, replacement),
                   _subst(term.arg, target, replacement))
    if isinstance(term, Abs):
        if term.var == target:
            return term
        if term.var in free_vars(replacement) and target in free_vars(term.body):
            term = _rename_bound(term)
        return Abs(term.var, term.var_type, _subst(term.body, target, replacement))
    raise TermError(f"unknown term node: {term!r}")


def substitute(term: Term, target: str, replacement: Term) -> Term:
    """Replace free occurrences of `target`, renaming binders to avoid capture.

    The replacement's type must equal the annotated type of every replaced
    occurrence.
    """
    repl_ty = type_of(replacement)

    def check(t: Term, shadowed: frozenset[str]) -> None:
        if isinstance(t, Var):
            if t.name == target and target not in shadowed and t.type != repl_ty:
                raise TypeMismatch(f"substitution for {target}", t.type, repl_ty)
        elif isinstance(t, App):
            check(t.fn, shadowed)
            check(t.arg, shadowed)
        elif isinstance(t, Abs):
            check(t.body, shadowed | {t.var})

    check(term, frozenset())
    return _subst(term, target, replacement)


# ---------------------------------------------------------------------------
# normalization

BETA = "beta"
BETA_ETA_LONG = "beta-eta-long"


def _whnf(term: Term) -> Term:
    args: list[Term] = []
    while True:
        if isinstance(term, App):
            args.append(term.arg)
            term = term.fn
        elif isinstance(term, Abs) and args:
            term = _subst(term.body, term.var, args.pop())
        else:
            break
    return apply_spine(term, list(reversed(args)))


def _beta(term: Term) -> Term:
    term = _whnf(term)
    if isinstance(term, Abs):
        return Abs(term.var, term.var_type, _beta(term.body))
    head, args = spine(term)
    if not args:
        return head
    return apply_spine(head, [_beta(a) for a in args])


def _eta_long(term: Term) -> Term:
    ty = type_of(term)
    if isinstance(ty, Arrow):
        if isinstance(term, Abs):
            return Abs(term.var, term.var_type, _eta_long(term.body))
        v = fresh_name("_e")
        return Abs(v, ty.domain, _eta_long(App(term, Var(v, ty.domain))))
    head, args = spine(term)
    return apply_spine(head, [_eta_long(a) for a in args])


def normalize(term: Term, mode: str = BETA) -> Term:
    """Beta-normalize; with BETA_ETA_LONG, also fully eta-expand."""
    if mode not in (BETA, BETA_ETA_LONG):
        raise ValueError(f"unknown normalization mode: {mode}")
    out = _beta(term)
    if mode == BETA_ETA_LONG:
        out = _beta(_eta_long(out))
    return out


# ---------------------------------------------------------------------------
# alpha equality and canonical forms


def alpha_eq(a: Term, b: Term) -> bool:
    def go(x: Term, y: Term, mx: dict[str, int], my: dict[str, int], depth: int) -> bool:
        if isinstance(x, Var) and isinstance(y, Var):
            bx, by = x.name in mx, y.name in my
            if bx != by:
                return False
            if bx:
                return mx[x.name] == my[y.name] and x.type == y.type
            return x.name == y.name and x.type == y.type
        if isinstance(x, Const) and isinstance(y, Const):
            return x.name == y.name and x.type == y.type
        if isinstance(x, PolyInst) and isinstance(y, PolyInst):
            return x.name == y.name and x.schema == y.schema and x.inst == y.inst
        if isinstance(x, App) and isinstance(y, App):
            return go(x.fn, y.fn, mx, my, depth) and go(x.arg, y.arg, mx, my, depth)
        if isinstance(x, Abs) and isinstance(y, Abs):
            if x.var_type != y.var_type:
                return False
            return go(x.body, y.body, {**mx, x.var: depth}, {**my, y.var: depth}, depth + 1)
        return False

    return go(a, b, {}, {}, 0)


def canonicalize(term: Term) -> Term:
    """Rename binders to b0, b1, ... in traversal order."""
    counter = itertools.count()

    def go(t: Term, env: dict[str, str]) -> Term:
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name), t.type)
        if isinstance(t, (Const, PolyInst)):
            return t
        if isinstance(t, App):
            return App(go(t.fn, env), go(t.arg, env))
        if isinstance(t, Abs):
            new = f"b{next(counter)}"
            return Abs(new, t.var_type, go(t.body, {**env, t.var: new}))
        raise TermError(f"unknown term node: {t!r}")

    return go(term, {})


def canonical_key(term: Term) -> str:
    """Printable key that is identical exactly for alpha-equal terms."""

    def go(t: Term) -> str:
        if isinstance(t, Var):
            return f"v:{t.name}:{t.type}"
        if isinstance(t, Const):
            return f"c:{t.name}:{t.type}"
        if isinstance(t, PolyInst):
            inst = ",".join(f"{v}={ty}" for v, ty in t.inst)
            return f"p:{t.name}:{t.schema}:{inst}"
        if isinstance(t, App):
            return f"({go(t.fn)} {go(t.arg)})"
        if isinstance(t, Abs):
            return f"(L{t.var}:{t.var_type}.{go(t.body)})"
        raise TermError(f"unknown term node: {t!r}")

    return go(canonicalize(term))


# ---------------------------------------------------------------------------
# printing


def term_to_text(term: Term, annotate_constants: bool = True) -> str:
    """Serialize to the lambda notation used by lexicon files.

    With constant annotations the output reparses to the same term; a
    resolved polymorphic occurrence prints its instantiation for the
    reader but is not meant to round-trip.
    """

    def ty_text(ty: SemType) -> str:
        return f"({ty})" if isinstance(ty, Arrow) else str(ty)

    def go(t: Term) -> str:
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            return f"{t.name}:{ty_text(t.type)}" if annotate_constants else t.name
        if isinstance(t, PolyInst):
            resolved = {v: ty for v, ty in t.inst if ty != TypeVar(v)}
            if resolved and annotate_constants:
                inst = ",".join(f"{v}={ty}" for v, ty in sorted(resolved.items()))
                return f"{t.name}[{inst}]"
            return t.name
        if isinstance(t, App):
            parts = []
            head, args = spine(t)
            parts.append(go(head))
            parts.extend(go(a) for a in args)
            return "(" + " ".join(parts) + ")"
        if isinstance(t, Abs):
            return f"\\{t.var}:{ty_text(t.var_type)}. {go(t.body)}"
        raise TermError(f"unknown term node: {t!r}")

    return go(term)


# ---------------------------------------------------------------------------
# occurrence discipline


class OccurrenceClass(Enum):
    LINEAR = "linear"
    AFFINE = "affine"
    RELEVANT = "relevant"
    UNRESTRICTED = "unrestricted"


def _binder_counts(term: Term) -> list[int]:
    counts: list[int] = []

    def occurrences(t: Term, name: str) -> int:
        if isinstance(t, Var):
            return 1 if t.name == name else 0
        if isinstance(t, (Const, PolyInst)):
            return 0
        if isinstance(t, App):
            return occurrences(t.fn, name) + occurrences(t.arg, name)
        if isinstance(t, Abs):
            return 0 if t.var == name else occurrences(t.body, name)
        raise TermError(f"unknown term node: {t!r}")

    def walk(t: Term) -> None:
        if isinstance(t, App):
            walk(t.fn)
            walk(t.arg)
        elif isinstance(t, Abs):
            counts.append(occurrences(t.body, t.var))
            walk(t.body)

    walk(term)
    return counts


def classify_occurrences(term: Term) -> OccurrenceClass:
    """Usage discipline of the term's binders.

    LINEAR: every bound variable occurs exactly once.  AFFINE: at most
    once, with some unused.  RELEVANT: at least once, with some repeated.
    UNRESTRICTED: both unused and repeated binders occur.
    """
    counts = _binder_counts(term)
    dropped = any(c == 0 for c in counts)
    repeated = any(c > 1 for c in counts)
    if not dropped and not repeated:
        return OccurrenceClass.LINEAR
    if not repeated:
        return OccurrenceClass.AFFINE
    if not dropped:
        return OccurrenceClass.RELEVANT
    return OccurrenceClass.UNRESTRICTED
