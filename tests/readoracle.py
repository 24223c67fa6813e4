"""Reference reading and key of a candidate, used to check
`lambeksem.composer`'s one read-back.

A verbatim copy of the package's evaluator and read-back before the
reading, the key and the strict type check were one traversal, with the
checks `analyze` then made around them: the candidate's free variables
are collected, its value is read back untyped for the reading, which is
checked with `free_vars` and strict `type_of`, and read back again at
type t for the key, which `key_text` prints.  Each read-back applies
every closure again, so the beta work is done twice.
"""

from __future__ import annotations

import itertools

from lambeksem.composer import CompositionError
from lambeksem.terms import (Abs, App, Arrow, Const, PolyInst, SemType, T, Term,
                             TermError, Var, free_vars, key_text, type_of)


class _Closure:
    __slots__ = ("abs", "env")

    def __init__(self, abs_: Abs, env: dict):
        self.abs, self.env = abs_, env

    def apply(self, value):
        return _eval(self.abs.body, {**self.env, self.abs.var: value})


class _Neutral:
    __slots__ = ("head", "args")

    def __init__(self, head: Term, args: tuple = ()):
        self.head, self.args = head, args


def _eval(t: Term, env: dict):
    if isinstance(t, App):
        fn, arg = _eval(t.fn, env), _eval(t.arg, env)
        if isinstance(fn, _Closure):
            return fn.apply(arg)
        return _Neutral(fn.head, fn.args + (arg,))
    if isinstance(t, Var):
        value = env.get(t.name)
        if value is None:
            return _Neutral(t)
        if isinstance(value, str):
            return _Neutral(Var(value, t.type))
        return value
    if isinstance(t, Abs):
        return _Closure(t, env)
    if isinstance(t, (Const, PolyInst)):
        return _Neutral(t)
    raise TermError(f"unknown term node: {t!r}")


def read_back(value, ty: SemType | None = None,
              free: frozenset[str] | set[str] = frozenset()) -> Term:
    names = (n for n in map("b{}".format, itertools.count())
             if n not in free).__next__

    def beta(v) -> Term:
        if isinstance(v, _Closure):
            name = names()
            return Abs(name, v.abs.var_type, beta(v.apply(name)))
        out = v.head
        for a in v.args:
            out = App(out, beta(a))
        return out

    def long(v, ty: SemType) -> Term:
        if isinstance(ty, Arrow):
            name = names()
            if isinstance(v, _Closure):
                return Abs(name, v.abs.var_type, long(v.apply(name), ty.codomain))
            expanded = _Neutral(v.head, v.args + (_Neutral(Var(name, ty.domain)),))
            return Abs(name, ty.domain, long(expanded, ty.codomain))
        out, fn_ty = v.head, v.head.type
        for a in v.args:
            out = App(out, long(a, fn_ty.domain))
            fn_ty = fn_ty.codomain
        return out

    return beta(value) if ty is None else long(value, ty)


def reading_and_key(candidate: Term) -> tuple[Term, str]:
    """The reading and the key `analyze` gave a candidate, or the
    exception it raised for it."""
    free = free_vars(candidate)
    value = _eval(candidate, {})
    reading = read_back(value, None, free)
    if free and free_vars(reading):
        raise CompositionError("reading is not closed")
    if type_of(reading, {}) != T:
        raise CompositionError("reading is not of type t")
    return reading, key_text(read_back(value, T, free))
