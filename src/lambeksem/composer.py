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

Substitution is one bottom-up pass over the parse's proof, and the
parses of a sentence share it: their proofs come from one prover table,
so they share proof nodes.  A word leaf is freshened and typed, an
elimination is one `Unifier.apply` on its premises' types, and a
discharged hypothesis gets a fresh hole for each e in its type.  A node
is keyed by its proof node and the leaves it spans, which are word
senses and discharged hypotheses, never positions, so a repeated word
shares too.  A node is shared, its term grounded (every open hole sent
to e) and its definitions unfolded, once neither its type nor the types
of its discharged hypotheses have an open hole: nothing outside it can
then bind a hole inside it.  Until then, as for a determiner whose noun
has not fixed its sort, it is rebuilt with fresh holes for each use.
The table lives for one `analyze` call.

Mismatch sites are located on the unreduced substituted term, before
beta reduction.  Each repaired term, a candidate, is evaluated once
(`terms.evaluate`) and read back once (`terms.read_back_keyed`).  That
one traversal gives its reading, the beta-normal form, and its key, the
text of the eta-long form, each with binders named b0, b1, ... in its
own traversal order; it also checks that the reading is closed, well
typed and of type t.  Which readings coincide is decided here and
nowhere else: the first candidate with a new key is kept, so a reading
does not depend on what was analyzed before it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .categories import Category, parse_category, sem_type
from .lexicon import Coercion, Lexicon, phrase_coercions
from .prover import (AXIOM, OVER_I, UNDER_E, UNDER_I, Parse, Proof, ProveOptions,
                     enumerate_parses)
from .terms import (Abs, App, Arrow, Const, E, PolyInst, SemType, SortAtom, T,
                    Term, TypeVar, UnificationError, Unifier, Var, evaluate,
                    free_vars, is_hole, map_types, read_back, read_back_keyed,
                    subst_type, type_of)
# Not called here; kept as attributes for bench/tracing.py, which wraps
# them by name.
from .terms import canonical_key, canonicalize, normalize  # noqa: F401


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
    """One meaning of a sentence: a closed beta-normal term of type t,
    its binders named b0, b1, ... in traversal order (`canonicalize`).

    Candidates whose eta-long forms are alpha-equal, from different
    parses or coercion choices, are one reading; every contributing
    provenance is kept, in parse order."""
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
# lexical substitution, shared across the parses of a sentence

def _infer(term: Term, holes: Unifier) -> SemType:
    """Type of a lexical term, binding holes at every application inside
    it; sort clashes are left for `find_mismatches`."""
    if isinstance(term, (Var, Const, PolyInst)):
        return term.type
    if isinstance(term, Abs):
        return Arrow(term.var_type, _infer(term.body, holes))
    return holes.apply(_infer(term.fn, holes), _infer(term.arg, holes))[0]


class _Substitutions:
    """Substituted terms of proof nodes, shared by the parses of one
    sentence (see the module docstring).

    A node's key is its proof node and the leaves it spans, each a word
    sense (an int standing for (word, sense index)) or a discharged
    hypothesis (its binder's name).  `nodes` and `words` hold the shared
    terms and `done` their ids, so that finishing a term stops at them.
    `holes` and `slots` belong to the parse being built: its hole
    bindings, and the type of each discharged hypothesis, which its
    introduction reads."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon
        self.leaf_ids: dict[tuple[str, int], int] = {}
        self.senses: list[Term] = []
        self.words: dict[int, tuple[SemType, Term]] = {}
        # The proof node in each value keeps its id from being reused.
        self.nodes: dict[tuple[int, tuple], tuple] = {}
        self.binders: dict[int, tuple[Proof, str]] = {}
        self.done: set[int] = set()
        self.holes = Unifier()
        self.slots: dict[str, SemType] = {}

    def substitute(self, parse: Parse) -> Term:
        env = tuple(self._leaf_id(word, idx)
                    for word, idx in zip(parse.words, parse.sense_indices))
        self.holes, self.slots = Unifier(), {}
        try:
            _, term = self._build(parse.proof, env)
        except UnificationError as exc:
            raise CompositionError(f"cannot compose: {exc}") from exc
        return self._finish(term)

    def _leaf_id(self, word: str, idx: int) -> int:
        leaf = self.leaf_ids.get((word, idx))
        if leaf is None:
            entry = self.lexicon.entry(word)
            if entry is None:
                raise MissingSense(f"no entry for {word}")
            if idx >= len(entry.senses):
                raise MissingSense(f"{word} has no sense #{idx}")
            leaf = self.leaf_ids[word, idx] = len(self.senses)
            self.senses.append(entry.senses[idx].term)
        return leaf

    def _build(self, proof: Proof, env: tuple) -> tuple[SemType, Term]:
        if proof.rule == AXIOM:
            return self._leaf(proof, env[0])
        key = (id(proof), env)
        hit = self.nodes.get(key)
        if hit is not None:
            _, ty, term, slots = hit
            self.slots.update(slots)
            return ty, term
        if proof.rule in (UNDER_I, OVER_I):
            name = self._binder(proof)
            inner = (name,) + env if proof.rule == UNDER_I else env + (name,)
            body_ty, body = self._build(proof.premises[0], inner)
            var_ty = self.slots.pop(name)
            ty, term = Arrow(var_ty, body_ty), Abs(name, var_ty, body)
        else:
            if proof.rule == UNDER_E:
                arg, fn = proof.premises
                fn_env, arg_env = env[arg.width:], env[:arg.width]
            else:
                fn, arg = proof.premises
                fn_env, arg_env = env[:fn.width], env[fn.width:]
            fn_ty, fn_term = self._build(fn, fn_env)
            arg_ty, arg_term = self._build(arg, arg_env)
            ty, term = self.holes.apply(fn_ty, arg_ty)[0], App(fn_term, arg_term)
        # Nothing outside the node can bind a hole inside it once its type
        # and its discharged hypotheses' types have none left open.
        closed = self._closed(ty)
        slots = tuple((s, self._closed(self.slots[s])) for s in env
                      if isinstance(s, str))
        if closed is not None and all(t is not None for _, t in slots):
            term = self._share(term)
            self.nodes[key] = (proof, closed, term, slots)
        return ty, term

    def _leaf(self, proof: Proof, leaf) -> tuple[SemType, Term]:
        if isinstance(leaf, str):
            ty = self._opened(sem_type(proof.goal, self.lexicon.bases))
            self.slots[leaf] = ty
            return ty, Var(leaf, ty)
        hit = self.words.get(leaf)
        if hit is not None:
            return hit
        # Senses are typed without schema variables, so the only type
        # variables in one are the identity instantiations of its
        # polymorphic constants; each occurrence gets its own holes.
        term = map_types(self.senses[leaf], lambda ty: self.holes.fresh()
                         if isinstance(ty, TypeVar) else ty)
        ty = _infer(term, self.holes)
        closed = self._closed(ty)
        if closed is None:
            return ty, term
        hit = self.words[leaf] = (closed, self._share(term))
        return hit

    def _closed(self, ty: SemType) -> SemType | None:
        """The type with its bound holes resolved, or None while it has
        an open one."""
        while isinstance(ty, TypeVar) and ty.name in self.holes.binding:
            ty = self.holes.binding[ty.name]
        if isinstance(ty, Arrow):
            domain = self._closed(ty.domain)
            codomain = None if domain is None else self._closed(ty.codomain)
            if codomain is None:
                return None
            if domain is ty.domain and codomain is ty.codomain:
                return ty
            return Arrow(domain, codomain)
        return None if is_hole(ty) else ty

    def _opened(self, ty: SemType) -> SemType:
        """A discharged hypothesis's type, every e in it a fresh hole."""
        if ty == E:
            return self.holes.fresh()
        if isinstance(ty, Arrow):
            return Arrow(self._opened(ty.domain), self._opened(ty.codomain))
        return ty

    def _binder(self, proof: Proof) -> str:
        """One name per introduction node: two binders in scope at once
        belong to different nodes, so they never share a name."""
        found = self.binders.get(id(proof))
        if found is None:
            found = self.binders[id(proof)] = (proof, f"k{len(self.binders)}")
        return found[1]

    def _share(self, term: Term) -> Term:
        term = self._finish(term)
        self.done.add(id(term))
        return term

    def _finish(self, term: Term) -> Term:
        """Ground every hole, an open one to e, and unfold definitions,
        except inside shared terms, which are finished already."""
        if id(term) in self.done:
            return term
        ground = self.holes.ground
        if isinstance(term, App):
            fn, arg = self._finish(term.fn), self._finish(term.arg)
            return term if fn is term.fn and arg is term.arg else App(fn, arg)
        if isinstance(term, Abs):
            return Abs(term.var, ground(term.var_type), self._finish(term.body))
        if isinstance(term, Var):
            return Var(term.name, ground(term.type))
        if isinstance(term, Const):
            return Const(term.name, ground(term.type))
        inst = {n: ground(ty) for n, ty in term.inst}
        poly = self.lexicon.poly(term.name)
        if poly is None or poly.definition is None:
            return term.with_inst(inst)
        return self._finish(map_types(poly.definition,
                                      lambda ty: subst_type(ty, inst)))


def substitute_lexical(parse: Parse, lexicon: Lexicon, *,
                       _table: _Substitutions | None = None) -> Term:
    """Plug each word's lexical term into the derivational term.

    The result is fully sorted (derivational binder holes filled by
    unification, polymorphic constants instantiated, definitions
    unfolded) but possibly ill-typed at sort-clashing application
    sites, and still unreduced.  `_table` lets `analyze` share one table
    across a sentence's parses; it must have been made for `lexicon`.
    """
    return (_table or _Substitutions(lexicon)).substitute(parse)


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
        if isinstance(t, (Const, PolyInst)):
            return t.type
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

def _reading_and_key(candidate: Term) -> tuple[Term, str]:
    """The candidate's reading and key, from one read-back.  One that
    read-back refuses, which no loaded lexicon gives, raises what checks
    of its reading raise: open or not of type t is a CompositionError,
    ill-typed is strict `type_of`'s TypeMismatch."""
    value = evaluate(candidate)
    read = read_back_keyed(value, T)
    if read is not None:
        return read
    reading = read_back(value, free_vars(candidate))
    if free_vars(reading):
        raise CompositionError("reading is not closed")
    type_of(reading, {})
    raise CompositionError("reading is not of type t")


def compute_readings(words: list[str] | tuple[str, ...], lexicon: Lexicon,
                     goal: Category | str = "S",
                     options: ComposeOptions | None = None) -> list[Reading]:
    return list(analyze(words, lexicon, goal, options).readings)


def analyze(words: list[str] | tuple[str, ...], lexicon: Lexicon,
            goal: Category | str = "S",
            options: ComposeOptions | None = None) -> SentenceAnalysis:
    """Run the whole pipeline on one sentence and classify the outcome.

    Every parse and every repair of it is a candidate; candidates are
    grouped by the key of their eta-long normal form, and readings come
    out sorted by that key."""
    options = options or ComposeOptions()
    goal_cat = parse_category(goal, lexicon.bases) if isinstance(goal, str) else goal
    if sem_type(goal_cat, lexicon.bases) != T:
        raise CompositionError("goal category must denote a proposition")
    parses = enumerate_parses(lexicon, words, goal_cat, options.prove_options())
    available = phrase_coercions(lexicon, words) if options.coercions_enabled else ()

    grouped: dict[str, tuple[Term, list[Provenance]]] = {}
    # One table per sentence; `substitute_lexical` is still called once
    # per parse, through the module attribute.
    table = _Substitutions(lexicon)
    for parse in parses:
        substituted = substitute_lexical(parse, lexicon, _table=table)
        for repaired, choices in resolve_coercions(substituted, available):
            formula_term, key = _reading_and_key(repaired)
            grouped.setdefault(key, (formula_term, []))[1].append(
                Provenance(parse, choices))

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
