"""Meaning assembly: lexical substitution, sort-mismatch repair, readings.

The derivational term coming out of a proof is typed over plain e and t,
while lexical terms carry refined sorts.  Because derivational terms are
linear, every derivational binder is constrained by exactly one
application site, so those binders can be treated as type holes and
filled by unification.  After substitution and hole resolution the term
is fully sorted except at application sites where two ground sorts
genuinely clash; those become mismatch sites, to be repaired by wrapping
the argument in a coercion constant.  Repairs respect rigidity: using a
rigid coercion of a word blocks every other coercion that word provides.

Mismatch sites are located on the unreduced substituted term, before
beta reduction; readings are the beta-normal forms of the repaired
terms, deduplicated by alpha-equality of their eta-long forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .categories import Category, parse_category, sem_type
from .lexicon import Coercion, Lexicon, phrase_coercions
from .prover import Parse, ProveOptions, enumerate_parses
from .terms import (Abs, App, Arrow, BETA, BETA_ETA_LONG, Const, E, PolyInst,
                    SemType, SortAtom, T, Term, TypeVar, UnificationError,
                    Unifier, Var, canonical_key, canonicalize, free_vars,
                    map_types, normalize, subst_type, type_of)


class CompositionError(Exception):
    pass


class MissingSense(CompositionError):
    pass


@dataclass(frozen=True)
class MismatchSite:
    """An application whose argument sort clashes with the parameter sort.

    `location` is the path of fn/arg/body steps from the root to the
    argument subterm.  `candidates` holds the coercions that bridge
    found -> expected, each as a one-step chain; a site with a
    non-atomic clash is fatal and has no candidates.
    """
    location: tuple[str, ...]
    expected: SemType
    found: SemType
    candidates: tuple[tuple[Coercion, ...], ...] = ()
    fatal: bool = False


@dataclass(frozen=True)
class Provenance:
    parse: Parse
    choices: tuple[tuple[MismatchSite, tuple[Coercion, ...]], ...] = ()


@dataclass(frozen=True)
class Reading:
    """One meaning of a sentence: a closed beta-normal term of type t.

    Alpha-equal readings arising from different parses or coercion
    choices are collapsed; every contributing provenance is kept."""
    formula_term: Term
    provenances: tuple[Provenance, ...]

    @property
    def parse(self) -> Parse:
        return self.provenances[0].parse

    @property
    def coercion_choices(self) -> tuple[tuple[MismatchSite, tuple[Coercion, ...]], ...]:
        return self.provenances[0].choices

    def coercions_used(self) -> tuple[Coercion, ...]:
        out: list[Coercion] = []
        for _, chain in self.coercion_choices:
            out.extend(chain)
        return tuple(out)


@dataclass(frozen=True)
class ComposeOptions:
    coercions_enabled: bool = True
    lambek_restriction: bool = True
    budget: int = 10 ** 6
    max_readings: int | None = None

    def prove_options(self) -> ProveOptions:
        return ProveOptions(lambek_restriction=self.lambek_restriction,
                            budget=self.budget)


NO_PARSE = "NO_PARSE"
PARSE_BUT_NO_SORTING = "PARSE_BUT_NO_SORTING"
OK = "OK"


@dataclass(frozen=True)
class SentenceAnalysis:
    words: tuple[str, ...]
    outcome: str
    readings: tuple[Reading, ...]
    parse_count: int


# ---------------------------------------------------------------------------
# hole resolution

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

    substituted = _open(parse.term, mapping, holes)
    try:
        _infer(substituted, holes)
    except UnificationError as exc:
        raise CompositionError(f"cannot compose: {exc}") from exc
    return _unfold_definitions(map_types(substituted, holes.ground), lexicon)


# ---------------------------------------------------------------------------
# mismatch detection and repair

def find_mismatches(term: Term, available: tuple[Coercion, ...] = ()
                    ) -> list[MismatchSite]:
    """All application sites whose argument type differs from the
    parameter type, in walk order.  Atomic clashes carry their repair
    candidates; anything else is fatal."""
    sites: list[MismatchSite] = []

    def walk(t: Term, env: dict[str, SemType],
             path: tuple[str, ...]) -> SemType:
        if isinstance(t, Var):
            return env.get(t.name, t.type)
        if isinstance(t, Const):
            return t.type
        if isinstance(t, PolyInst):
            return subst_type(t.schema, t.inst_map)
        if isinstance(t, Abs):
            body = walk(t.body, {**env, t.var: t.var_type}, path + ("body",))
            return Arrow(t.var_type, body)
        fn_ty = walk(t.fn, env, path + ("fn",))
        arg_ty = walk(t.arg, env, path + ("arg",))
        if not isinstance(fn_ty, Arrow):
            raise CompositionError(f"application of non-function type {fn_ty}")
        if fn_ty.domain != arg_ty:
            if isinstance(fn_ty.domain, SortAtom) and isinstance(arg_ty, SortAtom):
                sites.append(MismatchSite(
                    path + ("arg",), fn_ty.domain, arg_ty,
                    tuple((c,) for c in available
                          if c.source == arg_ty and c.target == fn_ty.domain)))
            else:
                sites.append(MismatchSite(path + ("arg",), fn_ty.domain,
                                          arg_ty, (), fatal=True))
        return fn_ty.codomain

    walk(term, {}, ())
    return sites


def _wrap(term: Term, location: tuple[str, ...],
          chain: tuple[Coercion, ...]) -> Term:
    if not location:
        out = term
        for c in chain:
            out = App(c.constant(), out)
        return out
    step, rest = location[0], location[1:]
    if step == "fn":
        return App(_wrap(term.fn, rest, chain), term.arg)
    if step == "arg":
        return App(term.fn, _wrap(term.arg, rest, chain))
    return Abs(term.var, term.var_type, _wrap(term.body, rest, chain))


def _rigidity_ok(chains: tuple[tuple[Coercion, ...], ...]) -> bool:
    used: dict[str, set[str]] = {}
    rigid: dict[str, set[str]] = {}
    for chain in chains:
        for c in chain:
            used.setdefault(c.owner, set()).add(c.name)
            if c.rigid:
                rigid.setdefault(c.owner, set()).add(c.name)
    for owner, names in rigid.items():
        if names and len(used[owner]) > 1:
            return False
    return True


def resolve_coercions(term: Term, available: tuple[Coercion, ...]
                      ) -> list[tuple[Term, tuple[tuple[MismatchSite, tuple[Coercion, ...]], ...]]]:
    """Every way of repairing the term's mismatch sites, one coercion
    chain per site, subject to the rigidity blocking rule."""
    sites = find_mismatches(term, available)
    if any(s.fatal or not s.candidates for s in sites):
        return []
    out = []
    for combo in itertools.product(*[s.candidates for s in sites]):
        if not _rigidity_ok(combo):
            continue
        repaired = term
        for site, chain in zip(sites, combo):
            repaired = _wrap(repaired, site.location, chain)
        out.append((repaired, tuple(zip(sites, combo))))
    return out


# ---------------------------------------------------------------------------
# full pipeline

def compute_readings(words: list[str] | tuple[str, ...], lexicon: Lexicon,
                     goal: Category | str = "S",
                     options: ComposeOptions | None = None) -> list[Reading]:
    return list(analyze(words, lexicon, goal, options).readings)


def analyze(words: list[str] | tuple[str, ...], lexicon: Lexicon,
            goal: Category | str = "S",
            options: ComposeOptions | None = None) -> SentenceAnalysis:
    """Run the whole pipeline on one sentence and classify the outcome."""
    options = options or ComposeOptions()
    goal_cat = parse_category(goal, lexicon.bases) if isinstance(goal, str) else goal
    if sem_type(goal_cat, lexicon.bases) != T:
        raise CompositionError("goal category must denote a proposition")
    parses = enumerate_parses(lexicon, words, goal_cat, options.prove_options())
    available = phrase_coercions(lexicon, words) if options.coercions_enabled else ()

    grouped: dict[str, tuple[Term, list[Provenance]]] = {}
    for parse in parses:
        substituted = substitute_lexical(parse, lexicon)
        for repaired, choices in resolve_coercions(substituted, available):
            formula_term = normalize(repaired, BETA)
            if free_vars(formula_term):
                raise CompositionError("reading is not closed")
            if type_of(formula_term, {}) != T:
                raise CompositionError("reading is not of type t")
            key = canonical_key(canonicalize(normalize(formula_term, BETA_ETA_LONG)))
            if key not in grouped:
                grouped[key] = (formula_term, [])
            grouped[key][1].append(Provenance(parse, choices))

    readings = [Reading(term, tuple(provs))
                for _, (term, provs) in sorted(grouped.items())]
    if options.max_readings is not None:
        readings = readings[:options.max_readings]

    if readings:
        outcome = OK
    elif parses:
        outcome = PARSE_BUT_NO_SORTING
    else:
        outcome = NO_PARSE
    return SentenceAnalysis(tuple(words), outcome, tuple(readings), len(parses))
