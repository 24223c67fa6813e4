"""Syntactic categories: atoms and the two directed implications.

Notation is fully parenthesized.  `A\\B` looks for an A to its left and
yields a B; `B/A` looks for an A to its right.  Compound operands must be
wrapped in parentheses, so `np\\S/np` is a syntax error while `(np\\S)/np`
parses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Arrow, E, SemType, T


class CategorySyntaxError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtom(Exception):
    def __init__(self, name: str):
        super().__init__(f"unknown base category: {name}")
        self.name = name


@dataclass(frozen=True)
class Category:
    def __str__(self) -> str:
        return category_to_text(self)


@dataclass(frozen=True)
class Atom(Category):
    name: str


@dataclass(frozen=True)
class Under(Category):
    """A\\B: argument A expected on the left, result B."""

    argument: Category
    result: Category


@dataclass(frozen=True)
class Over(Category):
    """B/A: result B, argument A expected on the right."""

    result: Category
    argument: Category


DEFAULT_BASES: tuple[tuple[str, SemType], ...] = (
    ("np", E),
    ("n", Arrow(E, T)),
    ("S", T),
)


@dataclass(frozen=True)
class SortMap:
    """Maps base category names to semantic types."""

    bases: tuple[tuple[str, SemType], ...] = DEFAULT_BASES

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.bases)

    def __getitem__(self, name: str) -> SemType:
        for n, ty in self.bases:
            if n == name:
                return ty
        raise UnknownAtom(name)


DEFAULT_SORT_MAP = SortMap()


# ---------------------------------------------------------------------------
# parsing and printing


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "\\/()":
            tokens.append((c, c, i))
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            raise CategorySyntaxError(f"unexpected character {c!r}", i)
    return tokens


def parse_category(text: str, bases: SortMap | None = None) -> Category:
    """Parse fully parenthesized category notation.

    Raises CategorySyntaxError with a position on malformed input,
    including input nested too deep to parse, and UnknownAtom when a base
    name is not declared.
    """
    bases = bases if bases is not None else DEFAULT_SORT_MAP
    tokens = _tokenize(text)
    pos = 0

    def operand() -> Category:
        nonlocal pos
        if pos >= len(tokens):
            raise CategorySyntaxError("unexpected end of input", len(text))
        kind, value, at = tokens[pos]
        if kind == "ident":
            pos += 1
            if value not in bases:
                raise UnknownAtom(value)
            return Atom(value)
        if kind == "(":
            pos += 1
            inner = binary()
            if pos >= len(tokens) or tokens[pos][0] != ")":
                raise CategorySyntaxError("expected ')'", at)
            pos += 1
            return inner
        raise CategorySyntaxError(f"unexpected token {value!r}", at)

    def binary() -> Category:
        nonlocal pos
        left = operand()
        if pos < len(tokens) and tokens[pos][0] in "\\/":
            op, _, at = tokens[pos]
            pos += 1
            right = operand()
            if pos < len(tokens) and tokens[pos][0] in "\\/":
                raise CategorySyntaxError(
                    "compound operands must be parenthesized", tokens[pos][2])
            return Under(left, right) if op == "\\" else Over(left, right)
        return left

    try:
        out = binary()
    except RecursionError as exc:
        # Nested deeper than the parser's recursion can follow.
        at = tokens[pos][2] if pos < len(tokens) else len(text)
        raise CategorySyntaxError(str(exc), at) from None
    if pos != len(tokens):
        raise CategorySyntaxError(f"trailing input {tokens[pos][1]!r}", tokens[pos][2])
    return out


def category_to_text(cat: Category) -> str:
    def wrap(c: Category) -> str:
        return c.name if isinstance(c, Atom) else f"({top(c)})"

    def top(c: Category) -> str:
        if isinstance(c, Atom):
            return c.name
        if isinstance(c, Under):
            return f"{wrap(c.argument)}\\{wrap(c.result)}"
        return f"{wrap(c.result)}/{wrap(c.argument)}"

    return top(cat)


# ---------------------------------------------------------------------------
# measures and translation


def order(cat: Category) -> int:
    """Nesting depth of arguments: atoms are 0, A\\B and B/A take
    max(order(B), order(A) + 1)."""
    if isinstance(cat, Atom):
        return 0
    return max(order(cat.result), order(cat.argument) + 1)


def count_atoms(cat: Category) -> int:
    if isinstance(cat, Atom):
        return 1
    return count_atoms(cat.result) + count_atoms(cat.argument)


def sem_type(cat: Category, bases: SortMap | None = None) -> SemType:
    """Directionality-forgetting translation into semantic types."""
    bases = bases if bases is not None else DEFAULT_SORT_MAP
    if isinstance(cat, Atom):
        return bases[cat.name]
    return Arrow(sem_type(cat.argument, bases), sem_type(cat.result, bases))
