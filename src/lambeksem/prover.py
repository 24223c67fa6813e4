"""Derivation search for the directional sequents of the grammar.

Proofs are natural-deduction trees in long normal form, found by a
two-phase search: while the goal is complex, apply an introduction rule
(the fresh hypothesis lands at the left end for an under goal, at the
right end for an over goal); once the goal is atomic, pick a head
hypothesis and build an elimination spine, consuming the rest of the
antecedent as contiguous segments adjacent to the head.  Arguments of
the head are stripped outermost-first, so under arguments eat leftward
from the head and over arguments eat rightward.  Every beta-eta class
of derivations is produced exactly once, and the search terminates
because each subproblem is strictly smaller (counting atoms).

Proofs are position-relative: a node names no hypothesis.  An axiom is
position 0 of its span, the premises of an elimination split their
conclusion's span left to right, and an introduction's binder sits at
the left end (under) or the right end (over) of its premise's span.  A
proof of some categories at a goal therefore fits every span holding
those categories, so the search is tabled, in the manner of Hepple's
compilation chart: each (categories, goal) subproblem and each
(head, left context, right context, goal) spine is expanded once per
table.  One table serves one top-level `prove` call, or one
`enumerate_parses` call across all of the sentence's sense
assignments; nothing is kept from one sentence to the next.  Categories
are interned to small ints once per process, so table keys hash cheaply.

The budget bounds the work of one table, so of a whole sentence: it is
charged one state per subproblem or spine expanded and one per proof
node built.

By default sequents with empty antecedents are not derivable; switch
`lambek_restriction` off to allow them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .categories import (Atom, Category, SortMap, Under, DEFAULT_SORT_MAP,
                         parse_category, sem_type)
from .lexicon import UnknownWord
from .terms import Abs, App, Term, Var
# Unused here; bench/tracing.py patches them by name (ROADMAP item 1).
from .terms import canonical_key, normalize  # noqa: F401

AXIOM = "AXIOM"
UNDER_E = "UNDER_E"
UNDER_I = "UNDER_I"
OVER_E = "OVER_E"
OVER_I = "OVER_I"


class SearchLimitExceeded(Exception):
    pass


@dataclass(frozen=True)
class Proof:
    """A derivation of `width` consecutive hypotheses at `goal`.

    Hypotheses are positions, not names: see the module docstring.  An
    axiom's goal is its hypothesis's category; an under elimination's
    premises are (argument, function), an over elimination's are
    (function, argument)."""
    rule: str
    goal: Category
    width: int
    premises: tuple["Proof", ...] = ()


@dataclass(frozen=True)
class ProveOptions:
    """`budget` caps the search states of a sentence, summed over every
    sense assignment that `enumerate_parses` tries, or of one `prove`
    call made on its own.  A state is a subproblem or spine expanded, or
    a proof node built."""
    lambek_restriction: bool = True
    budget: int = 10 ** 6


class _Info(NamedTuple):
    """An interned category: its kind, the ids of its argument and result
    (-1 for an atom), its count vector, and the id of the atom it finally
    yields."""
    kind: int
    argument: int
    result: int
    vector: int
    target: int


# Category interning: an id indexes `_CATS` and `_INFO`.  The van Benthem
# count vector, val(a) = unit a and val(A\B) = val(B/A) = val(B) - val(A),
# is packed into one int with a signed 32-bit digit per atom, so vectors
# add as ints and a sum is zero only when every atom count is.
_ATOM, _UNDER, _OVER = range(3)
_DIGIT_BITS = 32
_IDS: dict[Category, int] = {}
_CATS: list[Category] = []
_INFO: list[_Info] = []
_ATOM_DIGITS = itertools.count()


def _intern(cat: Category) -> int:
    cid = _IDS.get(cat)
    if cid is None:
        if isinstance(cat, Atom):
            info = _Info(_ATOM, -1, -1,
                         1 << (_DIGIT_BITS * next(_ATOM_DIGITS)), len(_CATS))
        else:
            arg, res = _intern(cat.argument), _intern(cat.result)
            info = _Info(_UNDER if isinstance(cat, Under) else _OVER, arg, res,
                         _INFO[res].vector - _INFO[arg].vector,
                         _INFO[res].target)
        cid = len(_CATS)
        _CATS.append(cat)
        _INFO.append(info)
        _IDS[cat] = cid
    return cid


class _Table:
    """Proofs of subproblems and spines, keyed by interned ids."""

    def __init__(self, options: ProveOptions):
        self.restricted = options.lambek_restriction
        self.budget = options.budget
        self.states = 0
        self.proofs: dict[tuple[tuple[int, ...], int], list[Proof]] = {}
        self.spines: dict[tuple, list[tuple[Proof, ...]]] = {}

    def charge(self, states: int) -> None:
        self.states += states
        if self.states > self.budget:
            raise SearchLimitExceeded(
                f"gave up after {self.budget} search states")

    def prove(self, ids: tuple[int, ...], goal: int) -> list[Proof]:
        key = (ids, goal)
        found = self.proofs.get(key)
        if found is None:
            found = self.proofs[key] = self._expand(ids, goal)
        return found

    def _expand(self, ids: tuple[int, ...], goal: int) -> list[Proof]:
        self.charge(1)
        if self.restricted and not ids:
            return []
        # Every rule preserves the count vector, so a sequent whose
        # antecedent and goal disagree on any atom has no derivation.
        if sum(_INFO[i].vector for i in ids) != _INFO[goal].vector:
            return []
        kind, arg, res, _, _ = _INFO[goal]
        if kind == _ATOM:
            return self._eliminate(ids, goal)
        if kind == _UNDER:
            rule, premises = UNDER_I, self.prove((arg,) + ids, res)
        else:
            rule, premises = OVER_I, self.prove(ids + (arg,), res)
        self.charge(len(premises))
        return [Proof(rule, _CATS[goal], len(ids), (p,)) for p in premises]

    def _eliminate(self, ids: tuple[int, ...], goal: int) -> list[Proof]:
        out: list[Proof] = []
        for i, head in enumerate(ids):
            # A spine ends in the atom its head finally yields.
            if _INFO[head].target != goal:
                continue
            for args in self.spine(head, ids[:i], ids[i + 1:], goal):
                self.charge(len(args) + 1)
                node = Proof(AXIOM, _CATS[head], 1)
                cid = head
                for arg in args:
                    kind, _, cid, _, _ = _INFO[cid]
                    width = node.width + arg.width
                    if kind == _UNDER:
                        node = Proof(UNDER_E, _CATS[cid], width, (arg, node))
                    else:
                        node = Proof(OVER_E, _CATS[cid], width, (node, arg))
                out.append(node)
        return out

    def spine(self, head: int, left: tuple[int, ...], right: tuple[int, ...],
              goal: int) -> list[tuple[Proof, ...]]:
        """The argument proofs, innermost first, of every elimination
        spine that takes `head`, between `left` and `right`, to the atom
        `goal`."""
        key = (head, left, right, goal)
        found = self.spines.get(key)
        if found is None:
            found = self.spines[key] = self._spine(head, left, right, goal)
        return found

    def _spine(self, head: int, left: tuple[int, ...], right: tuple[int, ...],
               goal: int) -> list[tuple[Proof, ...]]:
        self.charge(1)
        kind, arg, res, _, _ = _INFO[head]
        if kind == _ATOM:
            return [()] if head == goal and not left and not right else []
        # Each split is (segment, left rest, right rest).  An empty
        # segment proves nothing under the Lambek restriction.
        empty = 0 if self.restricted else 1
        if kind == _UNDER:
            splits = [(left[k:], left[:k], right)
                      for k in range(len(left) + empty)]
        else:
            splits = [(right[:k], left, right[k:])
                      for k in range(1 - empty, len(right) + 1)]
        out: list[tuple[Proof, ...]] = []
        for segment, rest_left, rest_right in splits:
            args = self.prove(segment, arg)
            if args:
                rests = self.spine(res, rest_left, rest_right, goal)
                out.extend((a,) + rest for a in args for rest in rests)
        return out


def _fold(proof: Proof, axiom, apply, bind):
    """Fold a proof from its leaves, naming word hypotheses h0..h{n-1}
    by position and discharged hypotheses k0, k1, ... in walk order; an
    elimination walks its function premise before its argument."""
    counter = itertools.count()

    def walk(p: Proof, env: tuple[str, ...]):
        if p.rule == AXIOM:
            return axiom(p, env[0])
        if p.rule == UNDER_E:
            arg, fn = p.premises
            w = arg.width
            return apply(walk(fn, env[w:]), walk(arg, env[:w]))
        if p.rule == OVER_E:
            fn, arg = p.premises
            w = fn.width
            return apply(walk(fn, env[:w]), walk(arg, env[w:]))
        name = f"k{next(counter)}"
        inner = (name,) + env if p.rule == UNDER_I else env + (name,)
        return bind(p, name, walk(p.premises[0], inner))

    return walk(proof, tuple(f"h{i}" for i in range(proof.width)))


def proof_key(proof: Proof) -> str:
    """Untyped application skeleton of the proof, used for a stable order."""
    return _fold(proof, lambda p, name: name,
                 lambda fn, arg: f"({fn} {arg})",
                 lambda p, name, body: f"(\\{name}.{body})")


def prove(antecedent: list[Category] | tuple[Category, ...], goal: Category,
          options: ProveOptions | None = None, *,
          _table: _Table | None = None) -> list[Proof]:
    """All non-equivalent derivations of the sequent, stably ordered.

    `_table` lets `enumerate_parses` share one table, and so one budget,
    across a sentence's sense assignments; it overrides `options`."""
    table = _table or _Table(options or ProveOptions())
    proofs = table.prove(tuple(map(_intern, antecedent)), _intern(goal))
    return sorted(proofs, key=proof_key)


def extract_term(proof: Proof, bases: SortMap = DEFAULT_SORT_MAP) -> Term:
    """Curry-Howard image of a proof.

    Word hypotheses become free variables h0..h{n-1} in antecedent
    order; discharged hypotheses bind k0, k1, ... in walk order.  Under
    elimination applies the right premise to the left one, over
    elimination the left premise to the right one.
    """
    return _fold(proof, lambda p, name: Var(name, sem_type(p.goal, bases)), App,
                 lambda p, name, body: Abs(name, sem_type(p.goal.argument, bases),
                                           body))


@dataclass(frozen=True)
class Parse:
    """One derivation of a sentence under one choice of word senses."""
    words: tuple[str, ...]
    sense_indices: tuple[int, ...]
    categories: tuple[Category, ...]
    proof: Proof


def enumerate_parses(lexicon, words: list[str] | tuple[str, ...],
                     goal: Category | str = "S",
                     options: ProveOptions | None = None) -> list[Parse]:
    """All parses of the word sequence: every sense assignment, in
    product order, crossed with every derivation of its category
    sequence.  Two assignments may share a derivational term and still
    mean different things, so none is dropped here; the composer decides
    which readings coincide.  The assignments share one search table,
    and so one budget."""
    options = options or ProveOptions()
    goal_cat = parse_category(goal, lexicon.bases) if isinstance(goal, str) else goal
    entries = []
    for w in words:
        e = lexicon.entry(w)
        if e is None:
            raise UnknownWord(w)
        entries.append(e)
    out: list[Parse] = []
    table = _Table(options)
    for combo in itertools.product(*[range(len(e.senses)) for e in entries]):
        cats = tuple(entries[i].senses[s].category for i, s in enumerate(combo))
        out.extend(Parse(tuple(words), combo, cats, proof)
                   for proof in prove(cats, goal_cat, options, _table=table))
    return out
