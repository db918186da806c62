"""Template renderer and corpus generator for SQLi attack samples.

This stands in for the paper's webcrawled corpus (Section II-A): ~30,000
SQLi samples collected from public portals.  The generator draws a family,
renders one of its templates with randomized slot values, applies evasion
mutations (:mod:`repro.corpus.mutators`), and wraps the payload into an
HTTP query string — the same representation the paper extracts from crawled
HTTP request payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus.draws import DrawStream, RandomSource
from repro.corpus.families import FAMILIES, Family
from repro.corpus.mutators import MUTATORS, Mutator

#: Table/column/path vocabularies used to fill template slots.
TABLE_NAMES = (
    "users", "members", "admin", "accounts", "products", "orders",
    "customers", "articles", "news", "sessions", "login", "user_data",
)
COLUMN_NAMES = (
    "id", "username", "password", "email", "name", "title", "user_id",
    "login", "pass", "credit_card", "secret",
)
PARAM_NAMES = (
    "id", "cat", "page", "item", "pid", "uid", "view", "article", "prod",
    "category", "news_id", "search", "q", "name", "file",
)
FILE_PATHS = (
    "/etc/passwd", "/etc/hosts", "c:/boot.ini", "/var/www/html/config.php",
    "/etc/mysql/my.cnf",
)
DB_FUNCS = (
    "database()", "version()", "user()", "current_user()", "@@version",
    "@@datadir", "@@hostname", "system_user()", "schema()",
)
JUNK_TOKENS = (
    "zzxxccvv", "aaabbb", "test123", "qwerty", "foo bar", "0000", "xyz",
    "%ff%fe", "~!@", "....", "abcdefgh",
)


@dataclass(frozen=True)
class AttackSample:
    """One SQLi attack sample as the pipeline consumes it.

    Attributes:
        sample_id: stable unique id within a corpus.
        payload: the full query-string payload (``param=value&...``).
        family: generating family name (ground truth for cluster analysis;
            never shown to the detectors).
        portal: which simulated portal published it (filled by the crawler).
    """

    sample_id: str
    payload: str
    family: str
    portal: str = ""


class TemplateRenderer:
    """Fills ``{slot}`` placeholders in family templates.

    All randomness flows through one random source (the corpus
    generator's :class:`~repro.corpus.draws.DrawStream`, or a numpy
    ``Generator``), making corpus generation fully reproducible from a
    seed.
    """

    def __init__(self, rng: RandomSource) -> None:
        self._rng = rng

    # -- slot fillers ------------------------------------------------------

    def _pick(self, options: tuple[str, ...]) -> str:
        return options[int(self._rng.integers(len(options)))]

    def _int(self, low: int, high: int) -> int:
        return int(self._rng.integers(low, high + 1))

    def _cols(self) -> str:
        count = self._int(1, 12)
        style = self._int(0, 2)
        if style == 0:
            return ",".join(str(i + 1) for i in range(count))
        if style == 1:
            return ",".join("null" for _ in range(count))
        return ",".join(
            self._pick(("1", "null", "'a'", "0x61")) for _ in range(count)
        )

    def _cols_concat(self) -> str:
        count = self._int(2, 10)
        position = self._int(0, count - 1)
        parts = [str(i + 1) for i in range(count)]
        inner = ",".join(
            self._pick(DB_FUNCS) for _ in range(self._int(1, 3))
        ).replace(",", ",char(58),")
        parts[position] = f"concat({inner})"
        return ",".join(parts)

    def _charlist(self) -> str:
        word = self._pick(("admin", "root", "user", "pass", "true", "ok"))
        return ",".join(str(ord(ch)) for ch in word)

    def _hex(self, text: str) -> str:
        return text.encode("ascii").hex()

    def _subquery(self) -> str:
        table = self._pick(TABLE_NAMES)
        column = self._pick(COLUMN_NAMES)
        kind = self._int(0, 2)
        if kind == 0:
            return f"select {column} from {table} limit 1"
        if kind == 1:
            return f"select {self._pick(DB_FUNCS)}"
        return (
            "select table_name from information_schema.tables "
            f"limit {self._int(0, 20)},1"
        )

    def render(self, template: str) -> str:
        """Render one template into a concrete payload value."""
        quote = self._pick(("'", "'", "'", '"'))
        slots = {
            "base": str(self._int(1, 9999)),
            "q": quote,
            "qq": '"',
            "n": str(self._int(1, 20)),
            "m": str(self._int(21, 99)),
            "bign": str(self._int(100, 10000)),
            "bigN": str(self._int(1000000, 50000000)),
            "byte": str(self._int(32, 126)),
            "sleep": str(self._int(1, 10)),
            "cols": self._cols(),
            "cols_concat": self._cols_concat(),
            "table": self._pick(TABLE_NAMES),
            "col": self._pick(COLUMN_NAMES),
            "dbfunc": self._pick(DB_FUNCS),
            "subq": self._subquery(),
            "cmt": self._pick(("-- -", "--+", "-- ", "#", ";--", "")),
            "ch": self._pick("abcdefr0123"),
            "charlist": self._charlist(),
            "hexstr": self._hex(self._pick(("admin", "root", "version"))),
            "hextable": self._hex(self._pick(TABLE_NAMES)),
            "hexpath": self._hex(self._pick(FILE_PATHS)),
            "path": self._pick(FILE_PATHS),
            "junk": self._pick(JUNK_TOKENS),
        }
        out = template
        for name, value in slots.items():
            out = out.replace("{" + name + "}", value)
        if "{" in out and "}" in out:
            # `{{...}}` style literals in fuzz templates are intentional.
            out = out.replace("{{", "{").replace("}}", "}")
        return out


class CorpusGenerator:
    """Generates a labelled SQLi corpus of any size from a seed.

    Args:
        seed: RNG seed; two generators with the same seed produce the same
            corpus.
        families: attack families to draw from (defaults to all eleven).
        mutators: evasion mutations applied post-render.
        mutation_rate: probability that a rendered payload receives at least
            one mutation pass.
    """

    def __init__(
        self,
        seed: int = 2012,
        families: tuple[Family, ...] = FAMILIES,
        mutators: tuple[Mutator, ...] = MUTATORS,
        mutation_rate: float = 0.45,
    ) -> None:
        if not families:
            raise ValueError("at least one family is required")
        self._rng = DrawStream(seed)
        self._families = families
        self._mutators = mutators
        self._mutation_rate = mutation_rate
        self._renderer = TemplateRenderer(self._rng)
        weights = np.array([f.weight for f in families], dtype=float)
        self._probs = weights / weights.sum()

    def sample(self, sample_id: str = "s0") -> AttackSample:
        """Generate a single attack sample."""
        family = self._families[
            self._rng.choice(len(self._families), p=self._probs)
        ]
        template = self._rng.choice(family.templates)
        value = self._renderer.render(template)
        if self._rng.random() < self._mutation_rate:
            for _ in range(self._rng.integers(1, 3)):
                mutator = self._rng.choice(self._mutators)
                value = mutator(value, self._rng)
        param = self._rng.choice(PARAM_NAMES)
        payload = f"{param}={value}"
        if self._rng.random() < 0.3:
            extra = self._rng.choice(PARAM_NAMES)
            payload = f"{extra}={self._rng.integers(1, 100)}&{payload}"
        return AttackSample(sample_id=sample_id, payload=payload, family=family.name)

    def generate(self, count: int) -> list[AttackSample]:
        """Generate *count* samples (paper default: 30,000)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.sample(f"atk-{i:06d}") for i in range(count)]
