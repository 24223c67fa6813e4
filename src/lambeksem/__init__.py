"""Categorial-grammar semantic compiler.

Maps a sentence plus a sorted lexicon to its non-equivalent logical
readings: derivations are enumerated in a product-free Lambek calculus,
lambda terms extracted from the proofs, lexical senses substituted in,
sort clashes repaired by declared coercions, and the surviving terms
rendered as closed higher-order formulas.
"""

from .categories import (Atom, Category, CategorySyntaxError, DEFAULT_SORT_MAP,
                         Over, SortMap, Under, UnknownAtom, category_to_text,
                         count_atoms, order, parse_category, sem_type)
from .composer import (CompositionError, ComposeOptions, MismatchSite,
                       MissingSense, NO_PARSE, OK, PARSE_BUT_NO_SORTING,
                       Provenance, Reading, SentenceAnalysis, analyze,
                       compute_readings, find_mismatches, resolve_coercions,
                       substitute_lexical)
from .hol import (ASCII, Conn, NonLogicalHead, NotAProposition, Pred, Quant,
                  UNICODE, formula_to_term, formula_tree, render, to_formula)
from .lexicon import (Coercion, LexEntry, Lexicon, LexiconError, Sense,
                      UnknownWord, load_lexicon, load_lexicon_file,
                      lexicon_to_document, phrase_coercions)
from .metrics import (GrammarStats, ReadingReport, catalan, grammar_order,
                      grammar_stats, quantifier_count, reading_report)
from .prover import (Parse, ProveOptions, SearchLimitExceeded,
                     enumerate_parses, extract_term, prove)
from .terms import (Abs, App, Arrow, BETA, BETA_ETA_LONG, Const, E,
                    OccurrenceClass, PolyInst, SemType, SortAtom, T, Term,
                    TypeMismatch, TypeVar, UnboundVariable, Var, alpha_eq,
                    canonical_key, classify_occurrences, normalize,
                    substitute, term_to_text, type_of)

__all__ = [
    "Abs", "App", "Arrow", "ASCII", "Atom", "BETA", "BETA_ETA_LONG",
    "Category", "CategorySyntaxError", "Coercion",
    "ComposeOptions", "CompositionError", "Conn", "Const", "DEFAULT_SORT_MAP",
    "E", "GrammarStats", "LexEntry", "Lexicon",
    "LexiconError", "MismatchSite", "MissingSense", "NO_PARSE",
    "NonLogicalHead", "NotAProposition", "OK", "OccurrenceClass", "Over",
    "PARSE_BUT_NO_SORTING", "Parse", "PolyInst", "Pred", "Provenance",
    "ProveOptions", "Quant", "Reading", "ReadingReport",
    "SearchLimitExceeded", "SemType", "Sense", "SentenceAnalysis", "SortAtom",
    "SortMap", "T", "Term", "TypeMismatch", "TypeVar", "UNICODE",
    "UnboundVariable", "Under", "UnknownAtom", "UnknownWord", "Var",
    "alpha_eq", "analyze", "canonical_key", "catalan", "category_to_text",
    "classify_occurrences", "compute_readings", "count_atoms",
    "enumerate_parses", "extract_term", "find_mismatches",
    "formula_to_term", "formula_tree", "grammar_order", "grammar_stats",
    "lexicon_to_document", "load_lexicon", "load_lexicon_file", "normalize",
    "order", "parse_category", "phrase_coercions", "prove",
    "quantifier_count", "reading_report", "render", "resolve_coercions",
    "sem_type", "substitute", "substitute_lexical", "term_to_text",
    "to_formula", "type_of",
]
