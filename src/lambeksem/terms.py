"""Typed lambda terms over declared sorts: the semantic core.

Terms are immutable trees.  Every variable and constant carries its type
inline, so a term can be typed without an external signature.  Every
operation is pure.  Normalization evaluates a term into closures and
reads the value back (`evaluate`, `read_back`), naming binders b0, b1,
... in traversal order, so a normal form depends on its term alone.  One
read-back can give both the beta-normal form and the key text of the
eta-long form, checking types strictly as it goes (`read_back_keyed`).
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

    @property
    def type(self) -> SemType:
        """The schema under this occurrence's instantiation."""
        return subst_type(self.schema, self.inst_map)

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


def spine(term: Term) -> tuple[Term, list[Term]]:
    """Unwind nested applications: returns (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


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
        if isinstance(t, (Const, PolyInst)):
            return t.type
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


# ---------------------------------------------------------------------------
# normalization by evaluation (Berger & Schwichtenberg, LICS 1991)

BETA = "beta"
BETA_ETA_LONG = "beta-eta-long"


class _Closure:
    """An abstraction with the values of the variables free in it."""
    __slots__ = ("abs", "env")

    def __init__(self, abs_: Abs, env: dict):
        self.abs, self.env = abs_, env

    def apply(self, value) -> "_Closure | _Neutral":
        return _eval(self.abs.body, {**self.env, self.abs.var: value})


class _Neutral:
    """A head that cannot reduce applied to evaluated arguments: a
    constant, a free variable, or an occurrence of a binder read-back
    has entered, as its level followed by the occurrence's annotation."""
    __slots__ = ("head", "args")

    def __init__(self, head: "Term | tuple", args: tuple = ()):
        self.head, self.args = head, args


def _eval(t: Term, env: dict) -> _Closure | _Neutral:
    """The value of `t`.  `env` maps a bound variable to its value, or,
    for a binder that read-back has entered, to its level: (its name in
    the beta-normal form, in the eta-long form, its type)."""
    if isinstance(t, App):
        fn, arg = _eval(t.fn, env), _eval(t.arg, env)
        if isinstance(fn, _Closure):
            return fn.apply(arg)
        return _Neutral(fn.head, fn.args + (arg,))
    if isinstance(t, Var):
        value = env.get(t.name)
        if value is None:
            return _Neutral(t)
        if value.__class__ is tuple:
            return _Neutral(value + (t.type,))
        return value
    if isinstance(t, Abs):
        return _Closure(t, env)
    if isinstance(t, (Const, PolyInst)):
        return _Neutral(t)
    raise TermError(f"unknown term node: {t!r}")


def evaluate(term: Term) -> _Closure | _Neutral:
    """Evaluate into closures and neutral terms, for read-back."""
    return _eval(term, {})


def _names(free: frozenset[str] | set[str]) -> Callable[[], str]:
    return (n for n in map("b{}".format, itertools.count())
            if n not in free).__next__


def read_back(value: _Closure | _Neutral,
              free: frozenset[str] | set[str] = frozenset()) -> Term:
    """The beta-normal form of an evaluated term, unchecked.  Binders
    are named b0, b1, ... in traversal order (function before
    argument), skipping the names in `free`, and a variable bound by
    read-back keeps each occurrence's own annotation."""
    names = _names(free)

    def beta(v: _Closure | _Neutral) -> Term:
        if isinstance(v, _Closure):
            name = names()
            return Abs(name, v.abs.var_type, beta(v.apply((name, None, None))))
        out = Var(v.head[0], v.head[3]) if v.head.__class__ is tuple else v.head
        for a in v.args:
            out = App(out, beta(a))
        return out

    return beta(value)


# Eta-long form constructors (variable, head, application, abstraction).
_AS_TERM = (Var, lambda head: head, App, Abs)


def _read(value: _Closure | _Neutral, ty: SemType,
          free: frozenset[str] | set[str], long: tuple) -> tuple[Term, object]:
    """`read_back(value, free)` and, from the same traversal, the
    eta-long form at type `ty` built with `long`'s constructors.  That
    form names its binders in its own traversal order, eta binders
    included; a spine's arguments are read at its head's domains, and a
    spine of arrow type gets a binder for each argument it lacks.  The
    strict type check goes along: `TermError` is raised unless each
    occurrence's annotation is its binder's type, each argument's type
    its head's domain, the value's type `ty`, and each variable head
    that read-back did not bind is in `free`."""
    var, head_form, app, lam = long
    short_name, long_name = _names(free), _names(free)

    def go(v: _Closure | _Neutral, ty: SemType) -> tuple[Term, object]:
        if v.__class__ is _Closure:
            var_ty = v.abs.var_type
            if ty.__class__ is not Arrow or ty.domain != var_ty:
                raise TermError("read-back refused")
            short, name = short_name(), long_name()
            body, body_long = go(v.apply((short, name, var_ty)), ty.codomain)
            return Abs(short, var_ty, body), lam(name, var_ty, body_long)
        head = v.head
        if head.__class__ is tuple:
            short, name, binder_ty, fn_ty = head
            if fn_ty != binder_ty:
                raise TermError("read-back refused")
            out, out_long = Var(short, fn_ty), var(name, fn_ty)
        elif head.__class__ is Var and head.name not in free:
            raise TermError("read-back refused")
        else:
            out, out_long, fn_ty = head, head_form(head), head.type
        etas, rest = [], ty
        while rest.__class__ is Arrow:
            etas.append((long_name(), rest.domain))
            rest = rest.codomain
        for a in v.args:
            if fn_ty.__class__ is not Arrow:
                raise TermError("read-back refused")
            arg, arg_long = go(a, fn_ty.domain)
            out, out_long = App(out, arg), app(out_long, arg_long)
            fn_ty = fn_ty.codomain
        if fn_ty != ty:
            raise TermError("read-back refused")
        for name, domain in etas:
            # An eta binder's level has no name in the beta-normal form.
            out_long = app(out_long, go(_Neutral((None, name, domain, domain)), domain)[1])
        for name, domain in reversed(etas):
            out_long = lam(name, domain, out_long)
        return out, out_long

    return go(value, ty)


def read_back_keyed(value: _Closure | _Neutral, ty: SemType) -> tuple[Term, str] | None:
    """`read_back(value)` and the key text of the eta-long form at type
    `ty`, from one strictly checked traversal (`_read`); None if the
    value is open or ill-typed, or its type is not `ty`."""
    try:
        return _read(value, ty, frozenset(), _AS_KEY)
    except TermError:
        return None


def normalize(term: Term, mode: str = BETA) -> Term:
    """Beta-normalize; with BETA_ETA_LONG, also fully eta-expand.  The
    result's binders are named as by `read_back`, skipping the term's
    free variables.

    BETA does not type-check.  BETA_ETA_LONG type-checks the beta-normal
    term once, strictly, at its root (raising `TypeMismatch` on an
    ill-typed application or a variable that disagrees with its binder),
    and the typed read-back then passes each subterm's type down.
    """
    if mode not in (BETA, BETA_ETA_LONG):
        raise ValueError(f"unknown normalization mode: {mode}")
    free = free_vars(term)
    value = evaluate(term)
    out = read_back(value, free)
    if mode == BETA_ETA_LONG:
        out = _read(value, type_of(out), free, _AS_TERM)[1]
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


def _key_leaf(t: Term) -> str:
    if isinstance(t, Var):
        return f"v:{t.name}:{t.type}"
    if isinstance(t, Const):
        return f"c:{t.name}:{t.type}"
    if isinstance(t, PolyInst):
        inst = ",".join(f"{v}={ty}" for v, ty in t.inst)
        return f"p:{t.name}:{t.schema}:{inst}"
    raise TermError(f"unknown term node: {t!r}")


# The same for its key text.
_AS_KEY = (lambda name, ty: f"v:{name}:{ty}", _key_leaf,
           lambda fn, arg: f"({fn} {arg})",
           lambda name, ty, body: f"(L{name}:{ty}.{body})")


def key_text(term: Term) -> str:
    """Printable text that is identical exactly for equal terms."""
    _, leaf, app, lam = _AS_KEY
    if isinstance(term, App):
        return app(key_text(term.fn), key_text(term.arg))
    if isinstance(term, Abs):
        return lam(term.var, term.var_type, key_text(term.body))
    return leaf(term)


def canonical_key(term: Term) -> str:
    """Printable key that is identical exactly for alpha-equal terms."""
    return key_text(canonicalize(term))


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
