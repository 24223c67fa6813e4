"""Brute-force reading enumerator used as a reference for the prover.

The search here is an exhaustive cut-free sequent calculus with atomic
axioms, deliberately unoptimized and structured nothing like the
package's focused search: every left-rule position and every contiguous
argument segment is tried, and the resulting flood of derivations is
collapsed to one representative per eta-long beta-normal alpha class.
Terms are built over positional hypothesis variables p0..p{n-1} so a
memo entry can be replayed at any call site by substitution.
"""

from __future__ import annotations

import itertools

from lambeksem.categories import Atom, Category, Over, SortMap, Under, sem_type
from lambeksem.terms import BETA_ETA_LONG, Abs, App, Term, Var, canonical_key, normalize

_fresh_counter = itertools.count()


def fresh_name(prefix: str) -> str:
    return f"{prefix}{next(_fresh_counter)}"


def _plug(term: Term, mapping: dict[str, Term]) -> Term:
    # Binders in stored skeletons are globally fresh, so a parallel
    # walk cannot capture anything.
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, App):
        return App(_plug(term.fn, mapping), _plug(term.arg, mapping))
    if isinstance(term, Abs):
        return Abs(term.var, term.var_type, _plug(term.body, mapping))
    return term


def _count_vector(cat: Category, acc: dict[str, int], sign: int) -> None:
    # van Benthem count: val(atom a) = unit_a, val(A\B) = val(B/A) =
    # val(B) - val(A).  A derivable sequent has val(goal) = sum of
    # antecedent vals, so an unbalanced sequent can be pruned.
    if isinstance(cat, Atom):
        acc[cat.name] = acc.get(cat.name, 0) + sign
        return
    if isinstance(cat, Under):
        _count_vector(cat.argument, acc, -sign)
        _count_vector(cat.result, acc, sign)
        return
    _count_vector(cat.result, acc, sign)
    _count_vector(cat.argument, acc, -sign)


def balanced(cats: tuple[Category, ...], goal: Category) -> bool:
    acc: dict[str, int] = {}
    _count_vector(goal, acc, 1)
    for c in cats:
        _count_vector(c, acc, -1)
    return all(v == 0 for v in acc.values())


class SequentOracle:
    def __init__(self, bases: SortMap, lambek_restriction: bool = True) -> None:
        self.bases = bases
        self.lambek_restriction = lambek_restriction
        self.memo: dict[tuple[tuple[Category, ...], Category], list[Term]] = {}

    def _positional(self, cats: tuple[Category, ...]) -> list[Term]:
        return [Var(f"p{i}", sem_type(c, self.bases)) for i, c in enumerate(cats)]

    def prove(self, cats: tuple[Category, ...], goal: Category) -> list[Term]:
        """One skeleton term per reading of the sequent, over p0..pn-1."""
        key = (cats, goal)
        if key in self.memo:
            return self.memo[key]
        if not balanced(cats, goal):
            self.memo[key] = []
            return []
        found: list[Term] = []

        if len(cats) == 1 and isinstance(goal, Atom) and cats[0] == goal:
            found.append(Var("p0", sem_type(goal, self.bases)))

        if isinstance(goal, Under):
            inner = (goal.argument,) + cats
            for body in self.prove(inner, goal.result):
                shifted = {f"p{i}": Var(f"p{i - 1}", sem_type(c, self.bases))
                           for i, c in enumerate(inner) if i > 0}
                v = fresh_name("osk")
                vt = sem_type(goal.argument, self.bases)
                shifted["p0"] = Var(v, vt)
                found.append(Abs(v, vt, _plug(body, shifted)))
        if isinstance(goal, Over):
            inner = cats + (goal.argument,)
            for body in self.prove(inner, goal.result):
                v = fresh_name("osk")
                vt = sem_type(goal.argument, self.bases)
                found.append(Abs(v, vt, _plug(body, {f"p{len(cats)}": Var(v, vt)})))

        for i, cat in enumerate(cats):
            if isinstance(cat, Under):
                for j in range(i + 1):
                    segment = cats[j:i]
                    if self.lambek_restriction and not segment:
                        continue
                    found.extend(self._left(cats, goal, i, j, i, segment,
                                            cat.argument, cat.result))
            if isinstance(cat, Over):
                for m in range(i + 1, len(cats) + 1):
                    segment = cats[i + 1:m]
                    if self.lambek_restriction and not segment:
                        continue
                    found.extend(self._left(cats, goal, i, i + 1, m, segment,
                                            cat.argument, cat.result))

        unique: dict[str, Term] = {}
        for t in found:
            unique.setdefault(canonical_key(normalize(t, BETA_ETA_LONG)), t)
        result = [unique[k] for k in sorted(unique)]
        self.memo[key] = result
        return result

    def _left(self, cats: tuple[Category, ...], goal: Category, i: int,
              lo: int, hi: int, segment: tuple[Category, ...],
              arg_cat: Category, result_cat: Category) -> list[Term]:
        """Apply hypothesis i to the segment cats[lo:hi] proved at arg_cat."""
        outer = self._positional(cats)
        out: list[Term] = []
        rest = cats[:min(lo, i)] + (result_cat,) + cats[max(hi, i + 1):]
        # positions of `rest` in terms of the outer sequent
        rest_positions = (list(range(min(lo, i))) + [i]
                          + list(range(max(hi, i + 1), len(cats))))
        for arg_skel in self.prove(segment, arg_cat):
            arg = _plug(arg_skel, {f"p{k}": outer[lo + k] for k in range(len(segment))})
            applied = App(outer[i], arg)
            plug = {}
            for new_idx, old_idx in enumerate(rest_positions):
                plug[f"p{new_idx}"] = applied if old_idx == i else outer[old_idx]
            for rest_skel in self.prove(rest, goal):
                out.append(_plug(rest_skel, plug))
        return out


def reading_keys(cats: tuple[Category, ...], goal: Category, bases: SortMap,
                 lambek_restriction: bool = True,
                 oracle: SequentOracle | None = None) -> set[str]:
    """Canonical keys of the sequent's readings, for set comparison.

    Positional variables are renamed to the h0..h{n-1} scheme the
    package's term extraction uses, so keys compare directly.
    """
    if oracle is None:
        oracle = SequentOracle(bases, lambek_restriction)
    renaming = {f"p{i}": Var(f"h{i}", sem_type(c, bases))
                for i, c in enumerate(cats)}
    return {canonical_key(normalize(_plug(t, renaming), BETA_ETA_LONG))
            for t in oracle.prove(cats, goal)}
