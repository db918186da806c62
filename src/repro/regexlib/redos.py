"""ReDoS linting for signature rulesets.

A signature-based IDS evaluates its regexes against attacker-controlled
input, so a pattern with catastrophic backtracking potential is itself a
vulnerability: one crafted request can pin the sensor's CPU (regular
expression denial of service).  This linter statically analyzes the
patterns of a ruleset for the classic blowup shapes:

* **star height ≥ 2** — an unbounded quantifier nested inside another
  (``(a+)+``, ``(\\s*x)*``): the canonical exponential backtracker;
* **overlapping alternation under repetition** — ``(a|ab)+`` style
  branches whose first-character sets intersect, giving the backtracker
  two ways to consume the same prefix;
* **adjacent overlapping unbounded quantifiers** — ``\\s*\\s*`` /
  ``a*a*``: ambiguous splits of a single run;
* **unanchored class run** — an unanchored pattern that can begin with an
  unbounded run of a character class, one literal character included,
  whose continuation can fail on a character of that class
  (``[^a-z&]+=``, ``([^a-z&]+)?&``, ``a+b``): ``findall``
  starts a match at every character of such a run, and each start
  re-scans the rest of the run before the continuation fails, so a run of
  n characters costs O(n²).

The analysis runs on the :mod:`repro.regexlib.nfa` syntax tree, so every
finding is also *actionable*: any pattern the NFA subset accepts can be
executed backtrack-free via :class:`~repro.regexlib.nfa.NfaMatcher`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.regexlib.nfa import (
    CharSet,
    Node,
    UnsupportedPatternError,
    _Parser,
)
from repro.regexlib.parser import RegexSyntaxError, tokenize


@dataclass
class RedosReport:
    """Lint outcome for one pattern.

    Attributes:
        pattern: the analyzed pattern.
        analyzable: false when the pattern uses syntax outside the
            analyzer's subset (reported, never guessed about).
        findings: human-readable descriptions of blowup shapes found.
    """

    pattern: str
    analyzable: bool = True
    findings: list[str] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        """True when analyzable with no findings."""
        return self.analyzable and not self.findings


def _strip_anchors(pattern: str) -> str:
    """Remove top-level anchors (irrelevant to backtracking shape)."""
    out = []
    for token in tokenize(pattern):
        if token.kind == "anchor":
            continue
        out.append(token.text)
    return "".join(out)


def _first_set(node: Node) -> tuple[set[str], bool]:
    """Approximate first-character set; returns ``(chars, is_broad)``.

    ``is_broad`` marks nodes whose first set is effectively unbounded
    (negated classes, ``.``, escape sets) — any two broad sets are treated
    as overlapping.
    """
    if node.kind == "char":
        charset = node.charset
        assert charset is not None
        if charset.negated or charset.ranges:
            return set(), True
        if not charset.fold:
            broad = len(charset.chars) > 20
            return set(charset.chars), broad
        folded = set()
        for ch in charset.chars:
            folded |= {ch.lower(), ch.upper()}
        return folded, False
    if node.kind == "concat":
        for child in node.children:
            chars, broad = _first_set(child)
            if chars or broad:
                return chars, broad
        return set(), False
    if node.kind == "alt":
        union: set[str] = set()
        any_broad = False
        for child in node.children:
            chars, broad = _first_set(child)
            union |= chars
            any_broad = any_broad or broad
        return union, any_broad
    if node.kind == "repeat":
        return _first_set(node.children[0])
    return set(), False


def _overlap(a: Node, b: Node) -> bool:
    chars_a, broad_a = _first_set(a)
    chars_b, broad_b = _first_set(b)
    if broad_a or broad_b:
        # Conservative: a broad first set (negated class, range, dot) is
        # assumed to intersect anything.
        return True
    return bool(chars_a & chars_b)


def _unbounded(node: Node) -> bool:
    return node.kind == "repeat" and node.high is None


def _walk(node: Node, findings: list[str], inside_unbounded: bool) -> None:
    if node.kind == "repeat":
        if _unbounded(node):
            if inside_unbounded:
                findings.append(
                    "nested unbounded repetition (star height >= 2)"
                )
            child = node.children[0]
            if child.kind == "alt":
                branches = child.children
                for i in range(len(branches)):
                    for j in range(i + 1, len(branches)):
                        if _overlap(branches[i], branches[j]):
                            findings.append(
                                "overlapping alternation under "
                                "unbounded repetition"
                            )
                            break
                    else:
                        continue
                    break
            _walk(child, findings, inside_unbounded=True)
        else:
            _walk(node.children[0], findings, inside_unbounded)
        return
    if node.kind == "concat":
        children = node.children
        for left, right in zip(children, children[1:]):
            if _unbounded(left) and _unbounded(right) and _overlap(
                left.children[0], right.children[0]
            ):
                findings.append(
                    "adjacent overlapping unbounded quantifiers"
                )
        for child in children:
            _walk(child, findings, inside_unbounded)
        return
    if node.kind == "alt":
        for child in node.children:
            _walk(child, findings, inside_unbounded)


#: Characters tried when deciding whether a continuation can fail on a
#: member of a run's class.
_PROBE_ALPHABET = tuple(chr(code) for code in range(128))


def _nullable(node: Node) -> bool:
    """True when *node* can match the empty string."""
    if node.kind == "char":
        return False
    if node.kind == "concat":
        return all(_nullable(child) for child in node.children)
    if node.kind == "alt":
        return any(_nullable(child) for child in node.children)
    if node.kind == "repeat":
        return node.low == 0 or _nullable(node.children[0])
    return True  # empty, boundary


def _first_charsets(nodes) -> list[CharSet]:
    """Character sets that can begin a non-empty match of *nodes* in turn."""
    sets: list[CharSet] = []
    for node in nodes:
        if node.kind == "char":
            assert node.charset is not None
            sets.append(node.charset)
        elif node.kind in ("concat", "repeat"):
            sets.extend(_first_charsets(node.children))
        elif node.kind == "alt":
            for child in node.children:
                sets.extend(_first_charsets((child,)))
        if not _nullable(node):
            break
    return sets


def _leading_runs(node: Node, tail: tuple, findings: list[str]) -> None:
    """Check every unbounded class run that can begin a match of *node*.

    *tail* holds the nodes that follow *node* up to the pattern's end: the
    run's continuation.
    """
    if node.kind == "concat":
        children = node.children
        for index, child in enumerate(children):
            _leading_runs(child, children[index + 1:] + tail, findings)
            if not _nullable(child):
                return
        return
    if node.kind == "alt":
        for child in node.children:
            _leading_runs(child, tail, findings)
        return
    if node.kind != "repeat":
        return
    child = node.children[0]
    if not (_unbounded(node) and child.kind == "char"):
        _leading_runs(child, tail, findings)
        return
    run = child.charset
    assert run is not None
    if all(_nullable(after) for after in tail):
        return
    continuation = _first_charsets(tail)
    for ch in _PROBE_ALPHABET:
        if run.matches(ch) and not any(c.matches(ch) for c in continuation):
            findings.append(
                "unanchored class run whose continuation can fail inside "
                "the class (quadratic under findall)"
            )
            return


def lint_pattern(pattern: str) -> RedosReport:
    """Analyze one pattern for catastrophic-backtracking shapes."""
    try:
        stripped = _strip_anchors(pattern)
        tree = _Parser(stripped).parse()
    except (UnsupportedPatternError, RegexSyntaxError):
        return RedosReport(pattern=pattern, analyzable=False)
    findings: list[str] = []
    _walk(tree, findings, inside_unbounded=False)
    if not pattern.startswith("^"):
        _leading_runs(tree, (), findings)
    # Deduplicate while keeping order.
    unique = list(dict.fromkeys(findings))
    return RedosReport(pattern=pattern, findings=unique)


def lint_ruleset(rules) -> dict[str, RedosReport]:
    """Lint every enabled rule of a ruleset; keyed by rule sid."""
    reports: dict[str, RedosReport] = {}
    for rule in rules:
        if not rule.enabled:
            continue
        reports[str(rule.sid)] = lint_pattern(rule.pattern)
    return reports
