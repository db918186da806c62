"""Regex utilities: structural deconstruction and the count_all matcher."""

from repro.regexlib.nfa import (
    CharSet,
    NfaMatcher,
    Node,
    UnsupportedPatternError,
    parse_pattern,
)
from repro.regexlib.ops import (
    CompileCacheStats,
    PatternError,
    compile_cache_clear,
    compile_cache_stats,
    compile_pattern,
    count_all,
    matches,
    validate,
)
from repro.regexlib.redos import RedosReport, lint_pattern, lint_ruleset
from repro.regexlib.parser import (
    RegexSyntaxError,
    Token,
    deconstruct,
    literal_text,
    split_alternation,
    tokenize,
    top_level_groups,
)

__all__ = [
    "Token",
    "RegexSyntaxError",
    "tokenize",
    "split_alternation",
    "top_level_groups",
    "deconstruct",
    "literal_text",
    "PatternError",
    "CompileCacheStats",
    "compile_cache_clear",
    "compile_cache_stats",
    "compile_pattern",
    "count_all",
    "matches",
    "validate",
    "NfaMatcher",
    "Node",
    "parse_pattern",
    "CharSet",
    "UnsupportedPatternError",
    "lint_pattern",
    "lint_ruleset",
    "RedosReport",
]
