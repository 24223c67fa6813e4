"""Reference lexical substitution used to check `lambeksem.composer`.

A verbatim copy of the package's per-parse `substitute_lexical`, before
semantic work was shared across the parses of a sentence: open the
whole derivational term (`_open`), infer its type (`_infer`), ground
every hole, then unfold definitions, four walks of the whole term for
every parse.  Slow, but each parse is resolved on its own, so nothing
one parse binds can leak into another.
"""

from __future__ import annotations

from lambeksem.composer import CompositionError, MissingSense
from lambeksem.lexicon import Lexicon
from lambeksem.prover import Parse, extract_term
from lambeksem.terms import (Abs, App, Arrow, Const, E, PolyInst, SemType, Term,
                             TypeVar, UnificationError, Unifier, Var, map_types,
                             subst_type)


def _open(term: Term, mapping: dict[str, Term], holes: Unifier) -> Term:
    """Replace every e inside a derivational binder annotation with a
    fresh hole, consistently on the binder and its occurrences, and each
    free word variable with its lexical term (closed, so no capture)."""

    def open_type(ty: SemType) -> SemType:
        if ty == E:
            return holes.fresh()
        if isinstance(ty, Arrow):
            return Arrow(open_type(ty.domain), open_type(ty.codomain))
        return ty

    def walk(t: Term, env: dict[str, SemType]) -> Term:
        if isinstance(t, Var):
            return Var(t.name, env[t.name]) if t.name in env else mapping.get(t.name, t)
        if isinstance(t, Abs):
            opened = open_type(t.var_type)
            return Abs(t.var, opened, walk(t.body, {**env, t.var: opened}))
        if isinstance(t, App):
            return App(walk(t.fn, env), walk(t.arg, env))
        return t

    return walk(term, {})


def _infer(term: Term, holes: Unifier) -> SemType:
    """Type of the term, binding holes at every application; sort clashes
    are left for `find_mismatches`."""
    if isinstance(term, (Var, Const)):
        return term.type
    if isinstance(term, PolyInst):
        return subst_type(term.schema, term.inst_map)
    if isinstance(term, Abs):
        return Arrow(term.var_type, _infer(term.body, holes))
    return holes.apply(_infer(term.fn, holes), _infer(term.arg, holes))[0]


def _unfold_definitions(term: Term, lexicon: Lexicon) -> Term:
    if isinstance(term, PolyInst):
        poly = lexicon.poly(term.name)
        if poly is not None and poly.definition is not None:
            inst = term.inst_map
            body = map_types(poly.definition, lambda ty: subst_type(ty, inst))
            return _unfold_definitions(body, lexicon)
        return term
    if isinstance(term, App):
        return App(_unfold_definitions(term.fn, lexicon),
                   _unfold_definitions(term.arg, lexicon))
    if isinstance(term, Abs):
        return Abs(term.var, term.var_type,
                   _unfold_definitions(term.body, lexicon))
    return term


def substitute_lexical(parse: Parse, lexicon: Lexicon) -> Term:
    """Plug each word's lexical term into the derivational term.

    The result is fully sorted (derivational binder holes filled by
    unification, polymorphic constants instantiated, definitions
    unfolded) but possibly ill-typed at sort-clashing application
    sites, and still unreduced.
    """
    holes = Unifier()

    def freshen(ty: SemType) -> SemType:
        # Senses are typed without schema variables, so the only type
        # variables in one are the identity instantiations of its
        # polymorphic constants; each occurrence gets its own holes.
        return holes.fresh() if isinstance(ty, TypeVar) else ty

    mapping: dict[str, Term] = {}
    for pos, word in enumerate(parse.words):
        entry = lexicon.entry(word)
        if entry is None:
            raise MissingSense(f"no entry for {word}")
        idx = parse.sense_indices[pos]
        if idx >= len(entry.senses):
            raise MissingSense(f"{word} has no sense #{idx}")
        mapping[f"h{pos}"] = map_types(entry.senses[idx].term, freshen)

    substituted = _open(extract_term(parse.proof, lexicon.bases), mapping, holes)
    try:
        _infer(substituted, holes)
    except UnificationError as exc:
        raise CompositionError(f"cannot compose: {exc}") from exc
    return _unfold_definitions(map_types(substituted, holes.ground), lexicon)
