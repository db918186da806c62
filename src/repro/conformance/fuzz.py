"""Seeded grammar-based fuzzer for the conformance oracle.

The corpus a conformance run drives through every path has to earn its
keep: uniform random bytes would exercise nothing the detectors care
about.  This fuzzer composes the corpus from the repo's own generators —
the SQLi grammar (:mod:`repro.corpus.grammar`), the evasion mutators
(:mod:`repro.corpus.mutators`), the benign traffic generator — plus a
hand-built adversarial section aimed at the seams between paths:

- **Unicode evasions**: payloads rewritten through the *inverse* of the
  normalizer's fold table (fullwidth forms, smart quotes, ideographic
  spaces), plus unmapped non-ASCII the normalizer must drop.
- **Encoding tricks**: single/double percent-encoding, truncated and
  invalid ``%`` escapes, mixed-case hex digits.
- **Wire-ambiguous cases**: the ``+``-versus-space and literal-``%``
  payloads that historically differed between argv, stdin, and socket
  delivery.
- **Framing edges**: the empty payload, bare ``param=``, repeated
  parameters, and a long tail payload.

Everything is deterministic from the seed, and every payload is
wire-safe (no raw CR/LF — the line protocol frames on newlines, and a
real query string never contains one), so the same corpus drives the
offline paths and the gateway byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.benign import BenignTrafficGenerator
from repro.corpus.grammar import CorpusGenerator
from repro.corpus.mutators import MUTATORS
from repro.normalize.unicode_map import FOLD_TABLE

__all__ = ["BUDGETS", "FuzzBudget", "generate_corpus"]


@dataclass(frozen=True)
class FuzzBudget:
    """Corpus sizing for one conformance run.

    Attributes:
        name: budget label (``small`` / ``medium`` / ``large``).
        attacks: grammar-rendered SQLi samples.
        benign: benign requests mixed in.
        mutated: extra adversarial variants derived per mutator.
    """

    name: str
    attacks: int
    benign: int
    mutated: int


#: Named budgets: ``small`` fits a CI step, ``large`` a nightly soak.
BUDGETS: dict[str, FuzzBudget] = {
    "small": FuzzBudget(name="small", attacks=96, benign=64, mutated=4),
    "medium": FuzzBudget(name="medium", attacks=512, benign=256, mutated=12),
    "large": FuzzBudget(name="large", attacks=2048, benign=1024, mutated=32),
}

#: Attack shapes the adversarial sections derive variants from.
_ADVERSARIAL_BASES = (
    "id=1' union select 1,2,database()-- -",
    "cat=2 and 1=1",
    "q=x' or 'a'='a",
    "item=5; drop table users--",
    "page=1 union select username,password from users",
)

#: Fixed edge cases every budget includes verbatim.
_STATIC_EDGES = (
    "",                                  # empty line = empty payload
    "id=",                               # bare parameter
    "id=1&id=2&id=3",                    # repeated parameter
    "q=a+b",                             # '+' as literal-vs-space
    "q=c++ programming",                 # benign '+' text
    "q=50%+off+sale",                    # '%' adjacent to '+'
    "discount=100%",                     # trailing bare '%'
    "q=%zz%",                            # invalid percent escape
    "q=%2527%2520union",                 # double-encoded quote+space
    "q=%27%20or%20%271%27=%271",         # fully percent-encoded attack
    "q=%2B1%2B1",                        # encoded '+' itself
    "note=it's 100% fine & safe",        # benign with '%', '&', quote
    "search=union+square+hotels",        # benign SQL-ish vocabulary
)

#: ASCII → Unicode confusable substitutions: the inverse image of the
#: normalizer's fold table, so every substitution here is one the
#: normalizer claims to undo.
_UNFOLD: dict[str, tuple[str, ...]] = {}
for _folded_char, _ascii_char in FOLD_TABLE.items():
    _UNFOLD.setdefault(_ascii_char, ())
    _UNFOLD[_ascii_char] = _UNFOLD[_ascii_char] + (_folded_char,)


def _wire_safe(payload: str) -> str:
    """Replace raw CR/LF with their percent-encoded wire forms.

    The data plane frames payloads on newlines; a query string with a
    raw newline cannot exist on the wire, so the corpus encodes them the
    way a client would have to.
    """
    return payload.replace("\r", "%0d").replace("\n", "%0a")


def _unicode_variant(payload: str, rng: np.random.Generator) -> str:
    """Swap foldable ASCII for confusables; sprinkle droppable junk."""
    out = []
    for ch in payload:
        options = _UNFOLD.get(ch)
        if options and rng.random() < 0.4:
            out.append(options[int(rng.integers(len(options)))])
        else:
            out.append(ch)
    if rng.random() < 0.5:
        # Unmapped non-ASCII the normalizer drops entirely.
        position = int(rng.integers(len(out) + 1))
        out.insert(position, "α​")  # alpha + zero-width space
    return "".join(out)


def generate_corpus(
    *, seed: int = 2012, budget: FuzzBudget | str = "small"
) -> list[str]:
    """The deterministic conformance corpus for one (seed, budget).

    Returns a de-duplicated, wire-safe payload list: grammar attacks,
    benign traffic, per-mutator adversarial variants, unicode-evasion
    variants, and the fixed edge cases, in a stable order.
    """
    if isinstance(budget, str):
        try:
            budget = BUDGETS[budget]
        except KeyError:
            raise ValueError(
                f"unknown budget {budget!r}; "
                f"choose from {sorted(BUDGETS)}"
            ) from None
    rng = np.random.default_rng(seed)
    payloads: list[str] = []

    attacks = CorpusGenerator(seed=seed).generate(budget.attacks)
    payloads.extend(sample.payload for sample in attacks)

    benign = BenignTrafficGenerator(seed=seed + 1).trace(
        budget.benign, name="conform-benign"
    )
    payloads.extend(benign.payloads())

    # Per-mutator adversarial variants of the base attacks: each mutator
    # gets its own derivations so a normalization bug against one trick
    # cannot hide behind another.
    for mutator in MUTATORS:
        for _ in range(budget.mutated):
            base = _ADVERSARIAL_BASES[
                int(rng.integers(len(_ADVERSARIAL_BASES)))
            ]
            payloads.append(mutator(base, rng))

    for base in _ADVERSARIAL_BASES:
        payloads.append(_unicode_variant(base, rng))
        payloads.append(base.upper())

    payloads.extend(_STATIC_EDGES)
    payloads.append("id=" + "A" * 2048 + "'--")

    seen: set[str] = set()
    unique: list[str] = []
    for payload in payloads:
        safe = _wire_safe(payload)
        if safe not in seen:
            seen.add(safe)
            unique.append(safe)
    return unique
