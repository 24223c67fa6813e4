"""Lexicon loading: JSON documents with sorted lambda terms per word sense.

A lexicon document has four required fields.  `sorts` lists extra sort
names (e and t are always available), `base_categories` gives each base
category with its erased semantic type, `poly_constants` declares
polymorphic constants by schema (with an optional definition unfolded at
composition time), and `words` carries the entries.  Each sense pairs a
category with a lambda term; each word may also own coercions.

Term notation: `\\x:dog. (bark x)` with application left-associative and
parentheses allowed.  Constants are written bare when their type is
forced by the context, or annotated as `washington:city` when it is not.
The names forall, exists, and, or, implies are reserved for the logical
constants; quantifiers are sort-indexed families at (s -> t) -> t.

One recursive descent over one token stream reads term and type
notation.  A term is typed as it is parsed, so of several faults in a
text the first in reading order is reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .categories import (Category, CategorySyntaxError, DEFAULT_SORT_MAP, SortMap, UnknownAtom,
                         parse_category, category_to_text, sem_type)
from .terms import (Abs, App, Arrow, Const, E, SemType, SortAtom, T, Term,
                    TypeVar, UnificationError, Unifier, Var, erase_type, map_types,
                    poly_inst, subst_type, term_to_text, type_of, type_vars,
                    classify_occurrences, OccurrenceClass)

LOGICAL_CONNECTIVES = {"and": "and", "or": "or", "implies": "implies"}
QUANTIFIERS = ("forall", "exists")
RESERVED = set(LOGICAL_CONNECTIVES) | set(QUANTIFIERS)

CONNECTIVE_TYPE = Arrow(T, Arrow(T, T))


class LexiconError(Exception):
    def __init__(self, message: str, diagnostics: tuple["Diagnostic", ...] = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


class UnknownWord(Exception):
    def __init__(self, word: str):
        super().__init__(f"word not in lexicon: {word}")
        self.word = word


class SchemaError(LexiconError):
    pass


class SortUndeclared(LexiconError):
    pass


class TypeErasureMismatch(LexiconError):
    pass


class TermNotationError(LexiconError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    where: str
    message: str


@dataclass(frozen=True)
class Coercion:
    name: str
    source: SortAtom
    target: SortAtom
    rigid: bool
    owner: str

    @property
    def type(self) -> Arrow:
        return Arrow(self.source, self.target)

    def constant(self) -> Const:
        return Const(self.name, self.type)


@dataclass(frozen=True)
class Sense:
    category: Category
    term: Term
    quantifier: bool = False


@dataclass(frozen=True)
class LexEntry:
    word: str
    senses: tuple[Sense, ...]
    coercions: tuple[Coercion, ...] = ()


@dataclass(frozen=True)
class PolyConstant:
    name: str
    schema: SemType
    definition: Term | None = None


@dataclass(frozen=True)
class Lexicon:
    sorts: tuple[str, ...]
    bases: SortMap
    poly_constants: tuple[PolyConstant, ...]
    entries: tuple[LexEntry, ...]

    def entry(self, word: str) -> LexEntry | None:
        for e in self.entries:
            if e.word == word:
                return e
        return None

    def poly(self, name: str) -> PolyConstant | None:
        for p in self.poly_constants:
            if p.name == name:
                return p
        return None


# ---------------------------------------------------------------------------
# type and term notation


def _tokenize_term(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "\\.():":
            tokens.append((c, c, i))
            i += 1
        elif text.startswith("->", i):
            tokens.append(("arrow", "->", i))
            i += 2
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            raise TermNotationError(f"unexpected character {c!r}", i)
    return tokens


class _Tokens:
    """A cursor over the `_tokenize_term` tokens of `text`; errors point
    at the source position of the token that is wrong."""

    def __init__(self, text: str):
        self.text = text
        self.items = _tokenize_term(text)
        self.pos = 0

    def peek(self, *kinds: str) -> bool:
        return self.pos < len(self.items) and self.items[self.pos][0] in kinds

    def at(self) -> int:
        return self.items[self.pos][2] if self.pos < len(self.items) else len(self.text)

    def take(self, kind: str, what: str) -> tuple[str, int]:
        if not self.peek(kind):
            raise TermNotationError(f"expected {what}", self.at())
        _, value, at = self.items[self.pos]
        self.pos += 1
        return value, at

    def finish(self, what: str) -> None:
        if self.pos != len(self.items):
            raise TermNotationError(f"trailing {what} {self.items[self.pos][1]!r}",
                                    self.at())


def _type_operand(tokens: _Tokens, sorts: tuple[str, ...],
                  tyvars: tuple[str, ...]) -> SemType:
    """A name or a parenthesized type, as binders and annotations take."""
    if tokens.peek("("):
        tokens.take("(", "'('")
        inner = _type(tokens, sorts, tyvars)
        tokens.take(")", "')' in type")
        return inner
    name, _ = tokens.take("ident", "type")
    if name in tyvars:
        return TypeVar(name)
    if name in sorts:
        return SortAtom(name)
    raise SortUndeclared(f"sort not declared: {name}")


def _type(tokens: _Tokens, sorts: tuple[str, ...],
          tyvars: tuple[str, ...]) -> SemType:
    left = _type_operand(tokens, sorts, tyvars)
    if tokens.peek("arrow"):
        tokens.take("arrow", "'->'")
        return Arrow(left, _type(tokens, sorts, tyvars))
    return left


def parse_sem_type(text: str, sorts: tuple[str, ...],
                   tyvars: tuple[str, ...] = ()) -> SemType:
    """Parse `e -> (dog -> t)` style type notation.

    Names in `tyvars` become schema variables; every other name must be a
    declared sort.
    """
    tokens = _Tokens(text)
    try:
        out = _type(tokens, sorts, tyvars)
    except RecursionError as exc:
        raise TermNotationError(str(exc), tokens.at()) from None
    tokens.finish("type input")
    return out


def parse_term(text: str, *, sorts: tuple[str, ...],
               poly: Mapping[str, SemType] | None = None,
               coercion_types: Mapping[str, SemType] | None = None,
               constant_types: Mapping[str, SemType] | None = None,
               schema_vars: tuple[str, ...] = (),
               expected_erasure: SemType | None = None,
               where: str = "term") -> tuple[Term, dict[str, SemType]]:
    """Parse and type a lexical term.

    Returns the typed term plus the types discovered for previously
    unseen constants.  Constant types are taken from annotations, from
    `constant_types`, or reconstructed when the context forces them.
    `expected_erasure` pins the undetermined t-positions: t is not
    refinable by sorts, so wherever the category's translation says t,
    the term's type is made t.  A constant whose sort the context never
    forces is an error; entity constants such as proper names need an
    annotation.
    """
    poly = dict(poly or {})
    coercion_types = dict(coercion_types or {})
    known = dict(constant_types or {})
    holes = Unifier()
    new_constants: dict[str, SemType] = {}
    quantifier_types: set[SemType] = set()
    tokens = _Tokens(text)

    def term(env: dict[str, SemType]) -> tuple[Term, SemType]:
        if tokens.peek("\\"):
            _, at = tokens.take("\\", "lambda")
            var, _ = tokens.take("ident", "binder name")
            if var in RESERVED:
                raise TermNotationError(f"reserved name {var!r} cannot bind", at)
            tokens.take(":", "':' after binder")
            vt = _type_operand(tokens, sorts, schema_vars)
            tokens.take(".", "'.' after binder type")
            body, body_ty = term({**env, var: vt})
            return Abs(var, vt, body), Arrow(vt, body_ty)
        out, ty = atom(env)
        while tokens.peek("ident", "(", "\\"):
            arg, arg_ty = atom(env)
            ty, clashes = holes.apply(ty, arg_ty)
            reject_sort_clashes(clashes)
            out = App(out, arg)
        return out, ty

    def atom(env: dict[str, SemType]) -> tuple[Term, SemType]:
        if tokens.peek("("):
            tokens.take("(", "'('")
            inner = term(env)
            tokens.take(")", "')'")
            return inner
        if tokens.peek("\\"):
            return term(env)
        name, at = tokens.take("ident", "a term")
        annotation = None
        if tokens.peek(":"):
            tokens.take(":", "':'")
            annotation = _type_operand(tokens, sorts, schema_vars)
        if name in env:
            if annotation is not None:
                raise TermNotationError(f"bound variable {name!r} cannot be annotated", at)
            return Var(name, env[name]), env[name]
        if name in LOGICAL_CONNECTIVES:
            return Const(name, CONNECTIVE_TYPE), CONNECTIVE_TYPE
        if name in QUANTIFIERS:
            ty = Arrow(Arrow(holes.fresh(), T), T)
            quantifier_types.add(ty)
            return Const(name, ty), ty
        if name in poly:
            node = poly_inst(name, poly[name])
            return node, node.type
        if name in coercion_types:
            ty = coercion_types[name]
            return Const(name, ty), ty
        if annotation is not None:
            prior = known.get(name) or new_constants.get(name)
            if prior is not None and prior != annotation:
                raise TypeErasureMismatch(
                    f"constant {name} annotated {annotation} but already has type {prior}")
            new_constants.setdefault(name, annotation)
            known.setdefault(name, annotation)
            return Const(name, annotation), annotation
        if name in known:
            return Const(name, known[name]), known[name]
        hole = holes.fresh()
        new_constants[name] = hole
        known[name] = hole
        return Const(name, hole), hole

    def reject_sort_clashes(clashes: list[tuple[SemType, SemType]]) -> None:
        # Schema variables are never bound: a definition may apply a
        # (b -> t) predicate to a c argument, and that clash is repaired
        # at use sites, so a disagreement involving one is tolerated.
        for a, b in clashes:
            if isinstance(a, SortAtom) and isinstance(b, SortAtom):
                raise TypeErasureMismatch(f"cannot reconcile {a} with {b} in {where}")

    def pin(actual: SemType, expected: SemType) -> None:
        # Positions the category translation types at t are not
        # refinable by sorts, so force them; e positions stay open.
        actual = holes.resolve(actual)
        if expected == T:
            reject_sort_clashes(holes.unify(actual, T))
            return
        if isinstance(expected, Arrow) and isinstance(actual, Arrow):
            pin(actual.domain, expected.domain)
            pin(actual.codomain, expected.codomain)

    def ground(ty: SemType) -> SemType:
        grounded = holes.ground(ty)
        if ty not in quantifier_types:
            return grounded
        # A quantifier ranges over e unless its sort was forced.  A schema
        # variable that reached it belongs to a polymorphic constant's own
        # instantiation, so it does not count as forcing.
        stray = type_vars(grounded) - set(schema_vars)
        return subst_type(grounded, dict.fromkeys(stray, E))

    try:
        out, top_type = term({})
        tokens.finish("input")
        if expected_erasure is not None:
            pin(top_type, expected_erasure)
        out = map_types(out, ground)
    except UnificationError as exc:
        raise TypeErasureMismatch(f"{exc} in {where}") from exc
    except RecursionError as exc:
        # Nested deeper than parsing or typing it can recurse.
        raise TermNotationError(str(exc), 0) from None

    resolved_constants: dict[str, SemType] = {}
    for name, ty in new_constants.items():
        ty = holes.resolve(ty)
        leftover = type_vars(ty) - set(schema_vars)
        if leftover:
            raise TypeErasureMismatch(
                f"type of constant {name} is underdetermined in {where}; annotate it as name:type")
        resolved_constants[name] = ty
    return out, resolved_constants


# ---------------------------------------------------------------------------
# loading


def _require(doc: Mapping, key: str, kind: type, where: str):
    if not isinstance(doc, Mapping):
        raise SchemaError(f"expected a JSON object in {where}")
    if key not in doc:
        raise SchemaError(f"missing field {key!r} in {where}")
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"field {key!r} in {where} must be {kind.__name__}")
    return value


def _optional(doc: Mapping, key: str, kind: type, where: str, default):
    return _require(doc, key, kind, where) if key in doc else default


def load_lexicon(document: str | Mapping) -> tuple[Lexicon, list[Diagnostic]]:
    """Validate and load a lexicon document (JSON text or parsed mapping).

    Returns the lexicon plus diagnostics; any error-severity problem is
    raised as the matching exception with the full diagnostic list
    attached.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, Mapping):
        raise SchemaError("lexicon document must be a JSON object")

    diagnostics: list[Diagnostic] = []

    declared = _require(doc, "sorts", list, "lexicon")
    sorts: list[str] = []
    for s in declared:
        if not isinstance(s, str) or not s:
            raise SchemaError("sorts must be non-empty strings")
        if s not in sorts:
            sorts.append(s)
    for builtin in ("e", "t"):
        if builtin not in sorts:
            sorts.insert(0, builtin)
    sorts_t = tuple(sorts)

    base_docs = _require(doc, "base_categories", list, "lexicon")
    bases: list[tuple[str, SemType]] = []
    for b in base_docs:
        name = _require(b, "name", str, "base_categories")
        ty_text = _require(b, "sem_type", str, f"base category {name}")
        ty = parse_sem_type(ty_text, ("e", "t"))
        if erase_type(ty) != ty:
            raise SchemaError(f"base category {name} must use only e and t")
        if any(n == name for n, _ in bases):
            raise SchemaError(f"base category {name} declared twice")
        bases.append((name, ty))
    # np, n and S are always available.
    for name, ty in DEFAULT_SORT_MAP.bases:
        if not any(n == name for n, _ in bases):
            bases.append((name, ty))
    sort_map = SortMap(tuple(bases))

    poly_docs = _require(doc, "poly_constants", list, "lexicon")
    poly_list: list[PolyConstant] = []
    poly_schemas: dict[str, SemType] = {}
    for p in poly_docs:
        name = _require(p, "name", str, "poly_constants")
        if name in RESERVED:
            raise SchemaError(f"poly constant name {name!r} is reserved")
        schema_text = _require(p, "schema", str, f"poly constant {name}")
        var_names = tuple(sorted(
            value for kind, value, _ in _tokenize_term(schema_text)
            if kind == "ident" and value not in sorts_t))
        schema = parse_sem_type(schema_text, sorts_t, var_names)
        if not type_vars(schema):
            diagnostics.append(Diagnostic(
                "warning", "poly-without-vars", name,
                "schema has no type variables; a plain constant would do"))
        definition = None
        if "definition" in p and p["definition"] is not None:
            def_text = _require(p, "definition", str, f"poly constant {name}")
            definition, extra = parse_term(
                def_text, sorts=sorts_t, poly=poly_schemas,
                schema_vars=tuple(type_vars(schema)),
                where=f"definition of {name}")
            if extra:
                raise SchemaError(
                    f"definition of {name} introduces constants {sorted(extra)}; "
                    "definitions may use only logical constants and variables")
            def_ty = type_of(definition, strict=False)
            if def_ty != schema:
                raise TypeErasureMismatch(
                    f"definition of {name} has type {def_ty}, schema says {schema}")
        poly_list.append(PolyConstant(name, schema, definition))
        poly_schemas[name] = schema

    word_docs = _require(doc, "words", list, "lexicon")
    entries: list[LexEntry] = []
    constant_table: dict[str, SemType] = {}
    coercion_table: dict[str, Arrow] = {}
    seen_words: set[str] = set()

    def load_coercion(cdoc: Mapping, owner: str) -> Coercion:
        name = _require(cdoc, "name", str, f"coercion of {owner}")
        source = _require(cdoc, "source", str, f"coercion {name}")
        target = _require(cdoc, "target", str, f"coercion {name}")
        rigid = _optional(cdoc, "rigid", bool, f"coercion {name}", False)
        for s in (source, target):
            if s not in sorts_t:
                raise SortUndeclared(f"coercion {name} uses undeclared sort {s}")
        if source == target:
            raise SchemaError(f"coercion {name} must change sort")
        ty = Arrow(SortAtom(source), SortAtom(target))
        prior = coercion_table.get(name)
        if prior is not None and prior != ty:
            raise SchemaError(f"coercion name {name} reused at a different type")
        if name in constant_table and constant_table[name] != ty:
            raise SchemaError(f"coercion {name} clashes with a constant of another type")
        coercion_table[name] = ty
        return Coercion(name, SortAtom(source), SortAtom(target), rigid, owner)

    # Coercion constants must be visible while typing terms, so gather
    # them in a first pass.
    for w in word_docs:
        word = _require(w, "word", str, "words")
        for cdoc in _optional(w, "coercions", list, f"word {word}", []):
            load_coercion(cdoc, word)

    coercion_types = dict(coercion_table)

    for w in word_docs:
        word = _require(w, "word", str, "words")
        if word in seen_words:
            raise SchemaError(f"duplicate word entry: {word}")
        seen_words.add(word)
        sense_docs = _require(w, "senses", list, f"word {word}")
        if not sense_docs:
            raise SchemaError(f"word {word} has no senses")
        senses: list[Sense] = []
        seen_cats: set[Category] = set()
        for sdoc in sense_docs:
            cat_text = _require(sdoc, "category", str, f"word {word}")
            try:
                cat = parse_category(cat_text, sort_map)
            except UnknownAtom as exc:
                raise UnknownAtom(exc.name) from exc
            if cat in seen_cats:
                raise SchemaError(f"word {word} has two senses at category {cat}")
            seen_cats.add(cat)
            term_text = _require(sdoc, "term", str, f"word {word}")
            expected = sem_type(cat, sort_map)
            term, new_consts = parse_term(
                term_text, sorts=sorts_t, poly=poly_schemas,
                coercion_types=coercion_types, constant_types=constant_table,
                expected_erasure=expected,
                where=f"{word} at {cat}")
            for cname, cty in new_consts.items():
                if cname in coercion_types and coercion_types[cname] != cty:
                    raise SchemaError(
                        f"constant {cname} in {word} clashes with a coercion type")
                prior = constant_table.get(cname)
                if prior is not None and prior != cty:
                    raise SchemaError(
                        f"constant {cname} used at {cty} in {word} but at {prior} elsewhere")
                constant_table[cname] = cty
            term_ty = type_of(term, strict=False)
            if erase_type(term_ty) != expected:
                raise TypeErasureMismatch(
                    f"term of {word} at {cat} erases to {erase_type(term_ty)}, "
                    f"category says {expected}")
            for sname in _sorts_in_type(term_ty):
                if sname not in sorts_t:
                    raise SortUndeclared(f"term of {word} uses undeclared sort {sname}")
            klass = classify_occurrences(term)
            if klass in (OccurrenceClass.AFFINE, OccurrenceClass.UNRESTRICTED):
                diagnostics.append(Diagnostic(
                    "warning", "vacuous-binder", word,
                    f"lexical term is {klass.value}; a binder goes unused"))
            quantifier = _optional(sdoc, "quantifier", bool, f"word {word}", False)
            senses.append(Sense(cat, term, quantifier))
        coercions = tuple(load_coercion(c, word)
                          for c in _optional(w, "coercions", list, f"word {word}", []))
        entries.append(LexEntry(word, tuple(senses), coercions))

    lexicon = Lexicon(
        sorts=sorts_t,
        bases=sort_map,
        poly_constants=tuple(poly_list),
        entries=tuple(entries),
    )
    return lexicon, diagnostics


def _sorts_in_type(ty: SemType) -> set[str]:
    if isinstance(ty, SortAtom):
        return {ty.name}
    if isinstance(ty, Arrow):
        return _sorts_in_type(ty.domain) | _sorts_in_type(ty.codomain)
    return set()


def load_lexicon_file(path: str) -> tuple[Lexicon, list[Diagnostic]]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_lexicon(fh.read())


# ---------------------------------------------------------------------------
# serialization and phrase-level views


def lexicon_to_document(lexicon: Lexicon) -> dict:
    """Inverse of load_lexicon: loading the result yields an equal lexicon."""
    doc: dict = {
        "sorts": [s for s in lexicon.sorts if s not in ("e", "t")],
        "base_categories": [{"name": n, "sem_type": str(ty)}
                            for n, ty in lexicon.bases.bases],
        "poly_constants": [],
        "words": [],
    }
    for p in lexicon.poly_constants:
        pdoc: dict = {"name": p.name, "schema": str(p.schema)}
        if p.definition is not None:
            pdoc["definition"] = term_to_text(p.definition, annotate_constants=False)
        doc["poly_constants"].append(pdoc)
    for entry in lexicon.entries:
        wdoc: dict = {"word": entry.word, "senses": []}
        for s in entry.senses:
            sdoc = {"category": category_to_text(s.category),
                    "term": term_to_text(s.term, annotate_constants=True)}
            if s.quantifier:
                sdoc["quantifier"] = True
            wdoc["senses"].append(sdoc)
        if entry.coercions:
            wdoc["coercions"] = [{"name": c.name, "source": c.source.name,
                                  "target": c.target.name, "rigid": c.rigid}
                                 for c in entry.coercions]
        doc["words"].append(wdoc)
    return doc


def phrase_coercions(lexicon: Lexicon, words: list[str] | tuple[str, ...]
                     ) -> tuple[Coercion, ...]:
    """Coercions available to a phrase: those owned by its words, each
    tagged with its owner."""
    seen: list[str] = []
    out: list[Coercion] = []
    for w in words:
        if w in seen:
            continue
        seen.append(w)
        entry = lexicon.entry(w)
        if entry is None:
            raise UnknownWord(w)
        out.extend(entry.coercions)
    return tuple(out)
