"""Pattern classification for the fused matching engine.

Every catalog feature is assigned a :class:`PatternPlan` that decides how
the fused engine (:mod:`repro.match.engine`) obtains its exact
``count_all`` value from the payload case-folded once:

``literal``
    The pattern spells a plain (case-insensitive) literal string;
    ``str.count`` on the folded text is its exact non-overlapping count.
``word``
    ``\\b<literal>\\b`` — the reserved-word shape that dominates the
    catalog.  Every match contains the word, so the regex runs only when
    the word is in the folded text.
``factored``
    A real regex with *required literal factors*: every match must
    contain at least one of the factor strings.  Factor absence proves a
    count of zero without running the regex; ``findall`` runs only when
    a factor is present.
``direct``
    Everything else: always counted with the compiled regex.

Classification is deliberately conservative.  A factor is emitted only
when it is a *necessary* condition on the case-folded text, so skipping
``findall`` can never change a count; anything ambiguous degrades to
``direct``, which is merely slower, never wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.regexlib.nfa import (
    CharSet,
    Node,
    UnsupportedPatternError,
    parse_pattern,
)
from repro.regexlib.parser import (
    RegexSyntaxError,
    Token,
    split_alternation,
    tokenize,
)

KIND_LITERAL = "literal"
KIND_WORD = "word"
KIND_FACTORED = "factored"
KIND_DIRECT = "direct"

# A factor set larger than this gates nothing in practice; degrade.
_MAX_FACTORS = 8

# Escapes denoting one literal character with the same meaning ``re``
# gives them (shared with Python string escapes).
_ESCAPE_CHARS = {
    "n": "\n", "t": "\t", "r": "\r", "f": "\f", "v": "\v", "0": "\0",
}


@dataclass(frozen=True)
class PatternPlan:
    """How the fused engine evaluates one catalog pattern.

    Attributes:
        pattern: the original regex source.
        kind: one of the module's ``KIND_*`` constants.
        literal: the lowercased literal text (``literal``/``word`` kinds).
        factors: lowercased required-literal alternatives (``factored``
            kind); every match contains at least one of them.
    """

    pattern: str
    kind: str
    literal: str = ""
    factors: tuple[str, ...] = ()


def _token_char(token: Token) -> str | None:
    """The literal character *token* denotes, or None for regex syntax."""
    if token.kind == "literal":
        text = token.text
        return None if text == "." else text
    if token.kind == "escape":
        escaped = token.text[1]
        if escaped in _ESCAPE_CHARS:
            return _ESCAPE_CHARS[escaped]
        if escaped.isalnum():
            # Character classes (\d, \w, …), anchors, backreferences,
            # \xNN — none denote a fixed single character here.
            return None
        return escaped
    return None


def literal_of(pattern: str) -> str | None:
    """The lowercased literal *pattern* spells, or None for a real regex.

    Only ASCII literals qualify: the engine counts on ``str.lower()``
    folded text, which agrees with ``re.IGNORECASE`` on ASCII alone.
    """
    try:
        tokens = tokenize(pattern)
    except RegexSyntaxError:
        return None
    chars = [_token_char(t) for t in tokens]
    if not chars or any(c is None for c in chars):
        return None
    literal = "".join(chars).lower()
    return literal if literal.isascii() else None


def word_literal_of(pattern: str) -> str | None:
    """The literal inside a ``\\b<literal>\\b`` pattern, or None."""
    try:
        tokens = tokenize(pattern)
    except RegexSyntaxError:
        return None
    if len(tokens) < 3:
        return None
    head, tail = tokens[0], tokens[-1]
    if head.kind != "escape" or head.text != r"\b":
        return None
    if tail.kind != "escape" or tail.text != r"\b":
        return None
    chars = [_token_char(t) for t in tokens[1:-1]]
    if not chars or any(c is None for c in chars):
        return None
    literal = "".join(chars).lower()
    return literal if literal.isascii() else None


def _charset_char(charset: CharSet) -> str | None:
    """The single lowercased character *charset* can yield, if exactly one.

    Case variants collapse (``re.IGNORECASE`` matching means the folded
    text always carries the lowercase form), so ``{'a', 'A'}`` is the
    single character ``'a'``.
    """
    if charset.negated or charset.ranges:
        return None
    folded = {c.lower() for c in charset.chars}
    if len(folded) != 1:
        return None
    return next(iter(folded))


def _single_char(node: Node) -> str | None:
    if node.kind != "char":
        return None
    return _charset_char(node.charset)


def _tree_factors(node: Node) -> frozenset[str] | None:
    """Required-literal factors of a syntax tree, or None when unknown.

    A returned set means: every string matching *node* contains at least
    one member (compared on case-folded text).  Concatenations merge runs
    of adjacent single-character nodes into longer factors and keep the
    most selective candidate; alternations union their branches.
    """
    kind = node.kind
    if kind == "char":
        ch = _single_char(node)
        return frozenset((ch,)) if ch is not None else None
    if kind in ("empty", "boundary"):
        return None
    if kind == "alt":
        union: set[str] = set()
        for child in node.children:
            factors = _tree_factors(child)
            if factors is None:
                return None
            union |= factors
            if len(union) > _MAX_FACTORS:
                return None
        return frozenset(union)
    if kind == "repeat":
        if node.low >= 1:
            return _tree_factors(node.children[0])
        return None
    if kind == "concat":
        candidates: list[frozenset[str]] = []
        run: list[str] = []

        def flush() -> None:
            if run:
                candidates.append(frozenset(("".join(run),)))
                run.clear()

        for child in node.children:
            ch = _single_char(child)
            if ch is not None:
                run.append(ch)
                continue
            if child.kind == "repeat" and child.low >= 1:
                inner = _single_char(child.children[0])
                if inner is not None:
                    # `ab+c`: the first repetition extends the run, the
                    # tail may repeat, so the run must close here.
                    run.append(inner)
                    flush()
                    continue
            flush()
            factors = _tree_factors(child)
            if factors is not None:
                candidates.append(factors)
        flush()
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda fs: (min(len(f) for f in fs), -len(fs)),
        )
    raise AssertionError(kind)


def _quantifier_min(text: str) -> int:
    """Minimum repetitions a quantifier token demands."""
    body = text[:-1] if text.endswith("?") and len(text) > 1 else text
    if body == "+":
        return 1
    if body in ("*", "?"):
        return 0
    if body.startswith("{") and body.endswith("}"):
        low = body[1:-1].split(",")[0]
        try:
            return int(low) if low else 0
        except ValueError:
            return 0
    return 0


def _required_run(branch: str) -> str | None:
    """Longest top-level mandatory literal run of one alternation branch.

    Only depth-0 literal characters count — anything inside a group may
    be optional or alternated away — and a character carrying a
    quantifier contributes once when the quantifier's minimum is ≥ 1 and
    closes the run either way.
    """
    try:
        tokens = tokenize(branch)
    except RegexSyntaxError:
        return None
    best = ""
    run: list[str] = []
    depth = 0

    def flush() -> None:
        nonlocal best
        text = "".join(run)
        if len(text) > len(best):
            best = text
        run.clear()

    for index, token in enumerate(tokens):
        if token.kind == "group_open":
            depth += 1
            flush()
            continue
        if token.kind == "group_close":
            depth -= 1
            continue
        if depth != 0:
            continue
        if token.kind in ("literal", "escape"):
            ch = _token_char(token)
            if ch is None:
                flush()
                continue
            nxt = tokens[index + 1] if index + 1 < len(tokens) else None
            if nxt is not None and nxt.kind == "quantifier":
                if _quantifier_min(nxt.text) >= 1:
                    run.append(ch)
                flush()
            else:
                run.append(ch)
            continue
        flush()
    flush()
    best = best.lower()
    return best if best and best.isascii() else None


def _fallback_factors(pattern: str) -> frozenset[str] | None:
    """Token-level factor extraction for patterns the NFA cannot parse.

    Anchored patterns like ``--\\s*-?\\s*$`` fall outside the NFA subset
    but still carry mandatory literal runs at alternation depth 0; one
    run per top-level branch is required, or no factor exists.
    """
    try:
        branches = split_alternation(pattern)
    except RegexSyntaxError:
        return None
    factors: set[str] = set()
    for branch in branches:
        run = _required_run(branch)
        if run is None:
            return None
        factors.add(run)
        if len(factors) > _MAX_FACTORS:
            return None
    return frozenset(factors)


def pattern_factors(pattern: str) -> tuple[str, ...]:
    """Required-literal factor alternatives of *pattern* (possibly empty).

    Every match of *pattern* (under ``re.IGNORECASE``) contains at least
    one of the returned lowercased strings; an empty tuple means no
    usable factor was found.
    """
    try:
        tree = parse_pattern(pattern)
    except (UnsupportedPatternError, RegexSyntaxError):
        factors = _fallback_factors(pattern)
    else:
        factors = _tree_factors(tree)
    if not factors or any(not f.isascii() for f in factors):
        return ()
    return tuple(sorted(factors))


def classify_pattern(pattern: str) -> PatternPlan:
    """Build the :class:`PatternPlan` for one catalog pattern."""
    literal = literal_of(pattern)
    if literal:
        return PatternPlan(pattern, KIND_LITERAL, literal=literal)
    word = word_literal_of(pattern)
    if word:
        return PatternPlan(pattern, KIND_WORD, literal=word)
    factors = pattern_factors(pattern)
    if factors:
        return PatternPlan(pattern, KIND_FACTORED, factors=factors)
    return PatternPlan(pattern, KIND_DIRECT)
