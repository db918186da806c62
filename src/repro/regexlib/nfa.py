"""A Thompson-construction NFA regex engine.

Production NIDS cannot run backtracking regex engines on attacker-
controlled input — a crafted payload can drive a backtracker exponential
(ReDoS) and take the sensor offline, which is why Bro/Zeek and Snort
compile signatures to automata with guaranteed linear-time matching.
This module provides that substrate for the reproduced rulesets: a parser
for the signature subset of regex syntax, Thompson construction to an
ε-NFA, and a lockstep subset simulation whose running time is
O(len(text) · states) regardless of the pattern.

Supported syntax (the subset the SQLi signatures use): literals, ``.``,
escapes (``\\s \\S \\d \\D \\w \\W`` and escaped punctuation), character
classes with ranges and negation, groups ``(...)``/``(?:...)``,
alternation, word boundaries ``\\b``/``\\B`` (as guarded ε-transitions),
and the quantifiers ``* + ? {m} {m,} {m,n}`` (greedy and lazy — laziness
does not change *whether* an occurrence exists, so the subset simulation
treats them alike).  Anchors and backreferences are not supported
(backreferences are fundamentally non-regular).

Used by tests as a differential oracle against :mod:`re` and by the
ReDoS linter as the safe execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.regexlib.parser import RegexSyntaxError


class UnsupportedPatternError(ValueError):
    """Raised for syntax outside the supported subset."""


class _BoundarySignal(Exception):
    """Internal: the escape scanner met \\b/\\B outside a class."""

    def __init__(self, guard: str) -> None:
        super().__init__(guard)
        self.guard = guard


# ---------------------------------------------------------------------------
# Character predicates
# ---------------------------------------------------------------------------

_WHITESPACE = frozenset(" \t\n\r\f\v")
_DIGITS = frozenset("0123456789")
_WORD = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


@dataclass(frozen=True)
class CharSet:
    """A set of characters, possibly negated.

    Attributes:
        chars: explicit members (case-folded when ``fold`` is set).
        ranges: inclusive ``(low, high)`` codepoint ranges.
        negated: match everything *not* in the set.
        fold: case-insensitive membership.
    """

    chars: frozenset[str] = frozenset()
    ranges: tuple[tuple[int, int], ...] = ()
    negated: bool = False
    fold: bool = True

    def matches(self, ch: str) -> bool:
        """Membership test for one character."""
        candidates = {ch}
        if self.fold:
            candidates |= {ch.lower(), ch.upper()}
        hit = any(c in self.chars for c in candidates) or any(
            low <= ord(c) <= high
            for c in candidates
            for low, high in self.ranges
        )
        return hit != self.negated


_DOT = CharSet(chars=frozenset("\n"), negated=True, fold=False)

_ESCAPE_SETS = {
    "s": CharSet(chars=frozenset(_WHITESPACE), fold=False),
    "S": CharSet(chars=frozenset(_WHITESPACE), negated=True, fold=False),
    "d": CharSet(chars=frozenset(_DIGITS), fold=False),
    "D": CharSet(chars=frozenset(_DIGITS), negated=True, fold=False),
    "w": CharSet(chars=frozenset(_WORD), fold=False),
    "W": CharSet(chars=frozenset(_WORD), negated=True, fold=False),
}

_ESCAPE_LITERALS = {
    "n": "\n", "t": "\t", "r": "\r", "f": "\f", "v": "\v", "0": "\0",
}


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    """AST node: ``kind`` ∈ {char, concat, alt, repeat, empty, boundary}."""

    kind: str
    charset: CharSet | None = None
    children: tuple["Node", ...] = ()
    low: int = 0
    high: int | None = None  # None = unbounded
    guard: str = ""  # boundary nodes: "b" or "B"


class _Parser:
    """Recursive-descent parser for the supported subset."""

    _MAX_COUNTED = 64  # {m,n} expansion bound

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.position = 0

    def parse(self) -> Node:
        node = self._alternation()
        if self.position != len(self.pattern):
            raise RegexSyntaxError(
                f"unexpected {self.pattern[self.position]!r} at "
                f"{self.position}"
            )
        return node

    # -- grammar -----------------------------------------------------------

    def _alternation(self) -> Node:
        branches = [self._concat()]
        while self._peek() == "|":
            self.position += 1
            branches.append(self._concat())
        if len(branches) == 1:
            return branches[0]
        return Node(kind="alt", children=tuple(branches))

    def _concat(self) -> Node:
        parts: list[Node] = []
        while True:
            ch = self._peek()
            if ch is None or ch in "|)":
                break
            parts.append(self._repeat())
        if not parts:
            return Node(kind="empty")
        if len(parts) == 1:
            return parts[0]
        return Node(kind="concat", children=tuple(parts))

    def _repeat(self) -> Node:
        atom = self._atom()
        while True:
            ch = self._peek()
            if ch == "*":
                self.position += 1
                self._skip_lazy()
                atom = Node(kind="repeat", children=(atom,), low=0,
                            high=None)
            elif ch == "+":
                self.position += 1
                self._skip_lazy()
                atom = Node(kind="repeat", children=(atom,), low=1,
                            high=None)
            elif ch == "?":
                self.position += 1
                self._skip_lazy()
                atom = Node(kind="repeat", children=(atom,), low=0, high=1)
            elif ch == "{":
                bounds = self._counted()
                if bounds is None:
                    break  # literal brace already consumed as atom? no:
                low, high = bounds
                atom = Node(kind="repeat", children=(atom,), low=low,
                            high=high)
            else:
                break
        return atom

    def _counted(self) -> tuple[int, int | None] | None:
        start = self.position
        assert self.pattern[self.position] == "{"
        end = self.pattern.find("}", self.position)
        if end == -1:
            raise UnsupportedPatternError("unterminated {…} quantifier")
        body = self.pattern[self.position + 1:end]
        parts = body.split(",")
        try:
            if len(parts) == 1:
                low = high = int(parts[0])
            elif len(parts) == 2:
                low = int(parts[0]) if parts[0] else 0
                high = int(parts[1]) if parts[1] else None
            else:
                raise ValueError
        except ValueError:
            raise UnsupportedPatternError(
                f"bad counted quantifier {{{body}}}"
            ) from None
        if high is not None and high < low:
            raise UnsupportedPatternError(f"{{{body}}}: max < min")
        if max(low, high or 0) > self._MAX_COUNTED:
            raise UnsupportedPatternError(
                f"counted repetition above {self._MAX_COUNTED} unsupported"
            )
        self.position = end + 1
        self._skip_lazy()
        del start
        return low, high

    def _atom(self) -> Node:
        ch = self._peek()
        if ch is None:
            return Node(kind="empty")
        if ch == "(":
            self.position += 1
            if self.pattern.startswith("?:", self.position):
                self.position += 2
            elif self._peek() == "?":
                # (?=…), (?!…), (?P<…>) etc. — outside the subset.
                raise UnsupportedPatternError(
                    f"unsupported group at {self.position - 1}"
                )
            inner = self._alternation()
            if self._peek() != ")":
                raise RegexSyntaxError("unbalanced '('")
            self.position += 1
            return inner
        if ch == "[":
            return Node(kind="char", charset=self._char_class())
        if ch == ".":
            self.position += 1
            return Node(kind="char", charset=_DOT)
        if ch == "\\":
            try:
                return Node(kind="char", charset=self._escape())
            except _BoundarySignal as signal:
                return Node(kind="boundary", guard=signal.guard)
        if ch in "*+?":
            raise RegexSyntaxError(f"dangling quantifier at {self.position}")
        if ch in "^$":
            raise UnsupportedPatternError("anchors unsupported")
        self.position += 1
        return Node(kind="char", charset=CharSet(chars=frozenset(ch)))

    def _escape(self) -> CharSet:
        assert self.pattern[self.position] == "\\"
        self.position += 1
        if self.position >= len(self.pattern):
            raise RegexSyntaxError("dangling backslash")
        ch = self.pattern[self.position]
        self.position += 1
        if ch in _ESCAPE_SETS:
            return _ESCAPE_SETS[ch]
        if ch in _ESCAPE_LITERALS:
            return CharSet(
                chars=frozenset(_ESCAPE_LITERALS[ch]), fold=False
            )
        if ch in "bB":
            # Signalled to _atom via sentinel; inside classes \b is a
            # backspace character.
            raise _BoundarySignal(ch)
        if ch == "x":
            digits = self.pattern[self.position:self.position + 2]
            if len(digits) != 2:
                raise RegexSyntaxError("bad \\x escape")
            self.position += 2
            return CharSet(chars=frozenset(chr(int(digits, 16))),
                           fold=False)
        if ch in "AZz" or ch.isdigit():
            raise UnsupportedPatternError(
                f"escape \\{ch} unsupported (anchor/backreference)"
            )
        return CharSet(chars=frozenset(ch))

    def _char_class(self) -> CharSet:
        assert self.pattern[self.position] == "["
        self.position += 1
        negated = False
        if self._peek() == "^":
            negated = True
            self.position += 1
        chars: set[str] = set()
        ranges: list[tuple[int, int]] = []
        first = True
        while True:
            ch = self._peek()
            if ch is None:
                raise RegexSyntaxError("unterminated character class")
            if ch == "]" and not first:
                self.position += 1
                break
            first = False
            if ch == "\\":
                try:
                    escaped = self._escape()
                except _BoundarySignal:
                    chars.add("\x08")  # \b inside a class is backspace
                    continue
                if escaped.ranges or escaped.negated:
                    raise UnsupportedPatternError(
                        "negated escape inside class unsupported"
                    )
                if len(escaped.chars) > 1:
                    chars |= set(escaped.chars)
                    continue
                low_char = next(iter(escaped.chars))
            else:
                low_char = ch
                self.position += 1
            if (
                self._peek() == "-"
                and self.position + 1 < len(self.pattern)
                and self.pattern[self.position + 1] != "]"
            ):
                self.position += 1
                high_char = self._peek()
                if high_char == "\\":
                    escaped = self._escape()
                    if len(escaped.chars) != 1:
                        raise UnsupportedPatternError(
                            "class range to escape-set unsupported"
                        )
                    high_char = next(iter(escaped.chars))
                else:
                    self.position += 1
                if ord(high_char) < ord(low_char):
                    raise RegexSyntaxError("reversed class range")
                ranges.append((ord(low_char), ord(high_char)))
            else:
                chars.add(low_char)
        return CharSet(
            chars=frozenset(chars), ranges=tuple(ranges), negated=negated
        )

    # -- helpers -----------------------------------------------------------

    def _peek(self) -> str | None:
        if self.position < len(self.pattern):
            return self.pattern[self.position]
        return None

    def _skip_lazy(self) -> None:
        if self._peek() == "?":
            self.position += 1


def parse_pattern(pattern: str) -> Node:
    """Parse *pattern* into its :class:`Node` syntax tree.

    The structural entry point for analyses that need the tree without a
    compiled matcher — ``repro.match`` classifies catalog patterns and
    extracts required literal factors from it.

    Raises:
        UnsupportedPatternError: for syntax outside the supported subset.
        RegexSyntaxError: for malformed patterns.
    """
    return _Parser(pattern).parse()


# ---------------------------------------------------------------------------
# Thompson construction
# ---------------------------------------------------------------------------

@dataclass
class _State:
    """One NFA state: ε-transitions (optionally boundary-guarded) plus at
    most one charset edge."""

    epsilon: list[int] = field(default_factory=list)
    guarded: list[tuple[int, str]] = field(default_factory=list)
    charset: CharSet | None = None
    target: int = -1


class NfaMatcher:
    """A compiled pattern with linear-time search and counting.

    Matching is *unanchored occurrence detection*, the semantics the IDS
    engines need: does the pattern occur anywhere in the input, and how
    many non-overlapping occurrences are there.
    """

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        tree = _Parser(pattern).parse()
        self._states: list[_State] = []
        self.start, self.accept = self._build(tree)
        if self._nullable(tree):
            raise UnsupportedPatternError(
                "pattern matches the empty string (useless as a feature)"
            )

    # -- construction -------------------------------------------------------

    def _new_state(self) -> int:
        self._states.append(_State())
        return len(self._states) - 1

    def _build(self, node: Node) -> tuple[int, int]:
        if node.kind == "empty":
            start = self._new_state()
            accept = self._new_state()
            self._states[start].epsilon.append(accept)
            return start, accept
        if node.kind == "char":
            start = self._new_state()
            accept = self._new_state()
            self._states[start].charset = node.charset
            self._states[start].target = accept
            return start, accept
        if node.kind == "boundary":
            start = self._new_state()
            accept = self._new_state()
            self._states[start].guarded.append((accept, node.guard))
            return start, accept
        if node.kind == "concat":
            start, tail = self._build(node.children[0])
            for child in node.children[1:]:
                next_start, next_tail = self._build(child)
                self._states[tail].epsilon.append(next_start)
                tail = next_tail
            return start, tail
        if node.kind == "alt":
            start = self._new_state()
            accept = self._new_state()
            for child in node.children:
                child_start, child_accept = self._build(child)
                self._states[start].epsilon.append(child_start)
                self._states[child_accept].epsilon.append(accept)
            return start, accept
        if node.kind == "repeat":
            return self._build_repeat(node)
        raise AssertionError(node.kind)

    def _build_repeat(self, node: Node) -> tuple[int, int]:
        child = node.children[0]
        start = self._new_state()
        current = start
        # Mandatory copies.
        for _ in range(node.low):
            child_start, child_accept = self._build(child)
            self._states[current].epsilon.append(child_start)
            current = child_accept
        accept = self._new_state()
        if node.high is None:
            # Kleene tail.
            loop_start, loop_accept = self._build(child)
            self._states[current].epsilon.append(loop_start)
            self._states[current].epsilon.append(accept)
            self._states[loop_accept].epsilon.append(loop_start)
            self._states[loop_accept].epsilon.append(accept)
        else:
            # Bounded optional copies.
            for _ in range(node.high - node.low):
                self._states[current].epsilon.append(accept)
                child_start, child_accept = self._build(child)
                self._states[current].epsilon.append(child_start)
                current = child_accept
            self._states[current].epsilon.append(accept)
        return start, accept

    def _nullable(self, node: Node) -> bool:
        if node.kind in ("empty", "boundary"):
            return True
        if node.kind == "char":
            return False
        if node.kind == "concat":
            return all(self._nullable(c) for c in node.children)
        if node.kind == "alt":
            return any(self._nullable(c) for c in node.children)
        if node.kind == "repeat":
            return node.low == 0 or self._nullable(node.children[0])
        raise AssertionError(node.kind)

    @property
    def state_count(self) -> int:
        """Number of NFA states (matching cost is O(text · states))."""
        return len(self._states)

    # -- simulation -----------------------------------------------------------

    @staticmethod
    def _is_word(ch: str | None) -> bool:
        return ch is not None and (ch.isalnum() or ch == "_")

    def _closure(
        self,
        states: set[int],
        prev: str | None = None,
        upcoming: str | None = None,
    ) -> set[int]:
        at_boundary = self._is_word(prev) != self._is_word(upcoming)
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for nxt in self._states[state].epsilon:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            for nxt, guard in self._states[state].guarded:
                passes = at_boundary if guard == "b" else not at_boundary
                if passes and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def search(self, text: str) -> bool:
        """True when the pattern occurs anywhere in *text* (linear time)."""
        first = text[0] if text else None
        current = self._closure({self.start}, None, first)
        for index, ch in enumerate(text):
            if self.accept in current:
                return True
            upcoming = text[index + 1] if index + 1 < len(text) else None
            next_states = {self.start}
            for state in current:
                node = self._states[state]
                if node.charset is not None and node.charset.matches(ch):
                    next_states.add(node.target)
            current = self._closure(next_states, ch, upcoming)
        return self.accept in current

    def count(self, text: str) -> int:
        """Non-overlapping occurrence count (leftmost restart semantics).

        After an accept, the simulation restarts from scratch at the next
        character — the counting discipline ``count_all`` needs.
        """
        occurrences = 0
        first = text[0] if text else None
        current = self._closure({self.start}, None, first)
        for index, ch in enumerate(text):
            upcoming = text[index + 1] if index + 1 < len(text) else None
            next_states = {self.start}
            for state in current:
                node = self._states[state]
                if node.charset is not None and node.charset.matches(ch):
                    next_states.add(node.target)
            current = self._closure(next_states, ch, upcoming)
            if self.accept in current:
                occurrences += 1
                current = self._closure({self.start}, ch, upcoming)
        return occurrences
