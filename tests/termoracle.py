"""Reference normalizer used to check `lambeksem.terms.normalize`.

A verbatim copy of the package's first normalizer: `_subst` recomputes
the replacement's free variables at every binder it crosses, `_eta_long`
types every subterm it visits and the eta-long result is beta-normalized
once more.  Slow, but every step is the textbook definition.  Fresh
names come from this module's own counter; a renamed binder takes the
next one that is free in neither the body nor the replacement.
"""

from __future__ import annotations

import itertools

from lambeksem.terms import (BETA, BETA_ETA_LONG, Abs, App, Arrow, Const, PolyInst,
                             Term, TermError, Var, free_vars, spine, type_of)

_fresh_counter = itertools.count()


def fresh_name(prefix: str) -> str:
    return f"{prefix}{next(_fresh_counter)}"


def apply_spine(head: Term, args: list[Term]) -> Term:
    for a in args:
        head = App(head, a)
    return head


def _rename_bound(term: Abs, replacement: Term) -> Abs:
    taken = free_vars(term.body) | free_vars(replacement)
    prefix = term.var.rstrip("0123456789") or "_v"
    new = fresh_name(prefix)
    while new in taken:
        new = fresh_name(prefix)
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
            term = _rename_bound(term, replacement)
        return Abs(term.var, term.var_type, _subst(term.body, target, replacement))
    raise TermError(f"unknown term node: {term!r}")


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
