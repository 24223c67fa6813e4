"""Truth of closed terms of type t in seeded random finite models.

A model gives every sort atom, e included, a domain of one to three
elements, and t the booleans.  `and`, `or`, `implies` and `not` are
boolean; `forall` and `exists` range over their sort's domain, and
`most` holds when its argument holds of more than half of it.  Every
other constant, `the`, `this` and the coercions included, is a random
function for its name and type.  A function's value at a point is drawn
when evaluation first asks for it and fixed from then on, so within one
model every term is read against the same interpretation.

`truth` can also apply coercions at given argument sites of an unrepaired
term while it evaluates it, so that a repaired candidate's meaning can be
had without building the repaired term.
"""

from __future__ import annotations

import itertools
import random

from lambeksem.terms import Abs, App, Arrow, SemType, T, Term, Var

CONNECTIVES = {
    "and": lambda p: lambda q: p and q,
    "or": lambda p: lambda q: p or q,
    "implies": lambda p: lambda q: (not p) or q,
}
QUANTIFIERS = {
    "forall": all,
    "exists": any,
    "most": lambda values: 2 * sum(values) > len(values),
}


class Model:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sizes: dict[SemType, int] = {}
        self.points: dict[tuple, object] = {}

    def domain(self, ty: SemType) -> list:
        if ty == T:
            return [False, True]
        if isinstance(ty, Arrow):
            points = self.domain(ty.domain)
            keys = [self.graph(p, ty.domain) for p in points]
            return [lambda x, table=dict(zip(keys, outs)), dom=ty.domain:
                    table[self.graph(x, dom)]
                    for outs in itertools.product(self.domain(ty.codomain),
                                                  repeat=len(points))]
        if ty not in self.sizes:
            self.sizes[ty] = self.rng.randint(1, 3)
        return [(str(ty), i) for i in range(self.sizes[ty])]

    def graph(self, value, ty: SemType):
        """A hashable stand-in for a value: a function by its table."""
        if isinstance(ty, Arrow):
            return tuple(self.graph(value(x), ty.codomain)
                         for x in self.domain(ty.domain))
        return value

    def constant(self, name: str, ty: SemType):
        if name in CONNECTIVES and ty == Arrow(T, Arrow(T, T)):
            return CONNECTIVES[name]
        if name == "not" and ty == Arrow(T, T):
            return lambda p: not p
        if (name in QUANTIFIERS and isinstance(ty, Arrow) and ty.codomain == T
                and isinstance(ty.domain, Arrow) and ty.domain.codomain == T):
            sort = ty.domain.domain
            return lambda p: QUANTIFIERS[name]([p(x) for x in self.domain(sort)])
        return self._drawn((name, ty), ty)

    def _drawn(self, key: tuple, ty: SemType):
        if isinstance(ty, Arrow):
            return lambda x: self._drawn(key + (self.graph(x, ty.domain),), ty.codomain)
        if key not in self.points:
            self.points[key] = self.rng.choice(self.domain(ty))
        return self.points[key]

    def truth(self, term: Term, repairs: dict | None = None) -> bool:
        """The value of a closed term of type t.  `repairs` maps an
        argument site (a path of fn/arg/body steps, as in
        `MismatchSite.location`) to the coercions applied there,
        innermost first."""
        repairs = repairs or {}

        def go(t: Term, env: dict, path: tuple[str, ...]):
            if isinstance(t, Var):
                value = env[t.name]
            elif isinstance(t, Abs):
                value = lambda v: go(t.body, {**env, t.var: v}, path + ("body",))
            elif isinstance(t, App):
                value = go(t.fn, env, path + ("fn",))(go(t.arg, env, path + ("arg",)))
            else:
                value = self.constant(t.name, t.type)
            for coercion in repairs.get(path, ()):
                value = self.constant(coercion.name, coercion.type)(value)
            return value

        return go(term, {}, ())
