"""Simulated public cybersecurity portals.

Section II-A crawls portals like SecurityFocus, the Exploit Database,
PacketStorm Security, and OSVDB — "OSVDB also provides its own search API".
With no network available, this module *is* the web: each
:class:`Portal` deterministically serves an index, advisory pages with
embedded SQLi proof-of-concept payloads, a ``robots.txt``, and (for the
OSVDB stand-in) a JSON search API.  The payloads come from a shared
:class:`~repro.corpus.grammar.CorpusGenerator` corpus, distributed across
portals with deliberate overlap so that cross-portal deduplication has real
work to do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.corpus.draws import DrawStream
from repro.corpus.grammar import AttackSample, CorpusGenerator

PORTAL_NAMES: tuple[str, ...] = (
    "exploitdb.test", "packetstorm.test", "osvdb.test", "securityfocus.test",
)

_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"))


def html_escape(text: str) -> str:
    """Escape &, <, > for embedding payloads in advisory HTML."""
    out = text
    for raw, escaped in _ESCAPES:
        out = out.replace(raw, escaped)
    return out


def html_unescape(text: str) -> str:
    """Inverse of :func:`html_escape` (applied in reverse order)."""
    out = text
    for raw, escaped in reversed(_ESCAPES):
        out = out.replace(escaped, raw)
    return out


@dataclass(frozen=True)
class Page:
    """One servable resource."""

    status: int
    content_type: str
    body: str


class Portal:
    """One simulated portal: a small static site full of advisories.

    Args:
        host: portal hostname.
        samples: the attack samples this portal publishes.
        seed: layout randomization seed.
        api: when true, the portal also exposes ``/api/search?page=N``
            returning JSON (the OSVDB-style "search API" of Section II-A).
        per_page: advisories per index page.
    """

    def __init__(
        self,
        host: str,
        samples: list[AttackSample],
        *,
        seed: int = 0,
        api: bool = False,
        per_page: int = 25,
    ) -> None:
        self.host = host
        self.api = api
        self._samples = samples
        self._rng = DrawStream(seed)
        self._pages: dict[str, Page] = {}
        self._build(per_page)

    # -- site construction -------------------------------------------------

    def _build(self, per_page: int) -> None:
        advisories: list[str] = []
        for number, sample in enumerate(self._samples):
            path = f"/advisory/{number:05d}.html"
            advisories.append(path)
            self._pages[path] = self._advisory_page(number, sample)
        index_count = max(1, (len(advisories) + per_page - 1) // per_page)
        for page_number in range(index_count):
            chunk = advisories[page_number * per_page:(page_number + 1) * per_page]
            self._pages[self._index_path(page_number)] = self._index_page(
                page_number, index_count, chunk
            )
        self._pages["/robots.txt"] = Page(
            200, "text/plain", self._robots_body()
        )
        self._pages["/about.html"] = Page(
            200, "text/html",
            f"<html><h1>About {self.host}</h1><p>A public repository of "
            "computer security tools, exploits, and security advisories."
            "</p></html>",
        )
        self._pages["/private/internal.html"] = Page(
            200, "text/html", "<html>crawler-disallowed area</html>"
        )
        if self.api:
            pages = max(1, (len(self._samples) + 99) // 100)
            for api_page in range(pages):
                chunk_samples = self._samples[api_page * 100:(api_page + 1) * 100]
                body = json.dumps({
                    "page": api_page,
                    "pages": pages,
                    "results": [
                        {"id": s.sample_id, "payload": s.payload}
                        for s in chunk_samples
                    ],
                })
                self._pages[f"/api/search?page={api_page}"] = Page(
                    200, "application/json", body
                )

    @staticmethod
    def _index_path(page_number: int) -> str:
        return "/index.html" if page_number == 0 else f"/index_{page_number}.html"

    def _index_page(
        self, page_number: int, index_count: int, advisory_paths: list[str]
    ) -> Page:
        links = [f'<a href="{path}">advisory</a>' for path in advisory_paths]
        if page_number + 1 < index_count:
            links.append(
                f'<a href="{self._index_path(page_number + 1)}">next</a>'
            )
        links.append('<a href="/about.html">about</a>')
        links.append('<a href="/private/internal.html">internal</a>')
        body = "<html><body>" + "\n".join(links) + "</body></html>"
        return Page(200, "text/html", body)

    def _advisory_page(self, number: int, sample: AttackSample) -> Page:
        victim = f"http://victim{self._rng.integers(1, 99)}.example"
        page = self._rng.choice(
            ("/products.php", "/view.php", "/article.php", "/item.jsp")
        )
        poc = f"{victim}{page}?{sample.payload}"
        style = self._rng.integers(3)
        if style == 0:
            embed = f"<code>{html_escape(poc)}</code>"
        elif style == 1:
            embed = f"<pre>GET {page}?{html_escape(sample.payload)} HTTP/1.1</pre>"
        else:
            embed = f"<pre>{html_escape(poc)}</pre>"
        body = (
            "<html><body>"
            f"<h1>SQL injection advisory #{number}</h1>"
            "<p>The vendor has been notified. Proof of concept:</p>"
            f"{embed}"
            '<p><a href="/index.html">back</a></p>'
            "</body></html>"
        )
        return Page(200, "text/html", body)

    def _robots_body(self) -> str:
        return (
            "User-agent: *\n"
            "Disallow: /private/\n"
            "Crawl-delay: 1\n"
        )

    # -- serving -----------------------------------------------------------

    def get(self, path_and_query: str) -> Page:
        """Serve one resource; unknown paths get a 404 page."""
        page = self._pages.get(path_and_query)
        if page is None:
            return Page(404, "text/html", "<html>404</html>")
        return page

    @property
    def sample_count(self) -> int:
        """Number of attack samples this portal publishes."""
        return len(self._samples)


class SimulatedWeb:
    """The network: hostname → portal, with a fetch entry point.

    Args:
        corpus_size: total number of *distinct* attack samples published
            across the portals.
        seed: corpus + layout seed.
        overlap: fraction of samples published on more than one portal
            (makes cross-portal dedup meaningful).
    """

    def __init__(
        self,
        corpus_size: int = 2000,
        *,
        seed: int = 2012,
        overlap: float = 0.15,
    ) -> None:
        generator = CorpusGenerator(seed=seed)
        samples = generator.generate(corpus_size)
        rng = DrawStream(seed + 1)
        assignment: dict[str, list[AttackSample]] = {
            name: [] for name in PORTAL_NAMES
        }
        for sample in samples:
            primary = rng.choice(PORTAL_NAMES)
            assignment[primary].append(sample)
            if rng.random() < overlap:
                secondary = rng.choice(PORTAL_NAMES)
                if secondary != primary:
                    assignment[secondary].append(sample)
        self.portals: dict[str, Portal] = {}
        for index, name in enumerate(PORTAL_NAMES):
            self.portals[name] = Portal(
                name,
                assignment[name],
                seed=seed + 10 + index,
                api=(name == "osvdb.test"),
            )
        self._distinct = len(samples)

    @property
    def distinct_samples(self) -> int:
        """Number of distinct samples published web-wide."""
        return self._distinct

    def get(self, host: str, path_and_query: str) -> Page:
        """Fetch from a portal; unknown hosts act as connection errors."""
        portal = self.portals.get(host)
        if portal is None:
            return Page(0, "", "")  # connection error
        return portal.get(path_and_query)

    def seeds(self) -> list[str]:
        """Crawl seed URLs, one per portal."""
        return [f"http://{name}/index.html" for name in PORTAL_NAMES]
