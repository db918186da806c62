"""A simulated vulnerable web application (WAVSEP stand-in).

Section III-B: the SQLmap test set was generated "against a vulnerable web
application [WAVSEP] running Apache Tomcat and MySQL database ... which
contained 136 vulnerabilities".  This module provides that substrate: an
application with 136 injection points, each typed by injection context and
detection behaviour (error-reflecting, boolean-differential, or
time-differential), plus a response simulator rich enough for the scanner
simulators to drive their detection loops against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.corpus.draws import DrawStream

#: Response behaviours an injection point can exhibit.
BEHAVIOR_ERROR = "error"        # reflects a MySQL error message
BEHAVIOR_BOOLEAN = "boolean"    # page content differs on true/false
BEHAVIOR_TIME = "time"          # response delayed by injected sleep()
BEHAVIORS = (BEHAVIOR_ERROR, BEHAVIOR_BOOLEAN, BEHAVIOR_TIME)

_CONTEXTS = ("numeric", "string", "order-by")


@dataclass(frozen=True)
class InjectionPoint:
    """One vulnerable parameter of the application.

    Attributes:
        path: URL path of the vulnerable page.
        parameter: name of the injectable parameter.
        context: ``numeric`` / ``string`` / ``order-by``.
        behavior: observable side channel (:data:`BEHAVIORS`).
    """

    path: str
    parameter: str
    context: str
    behavior: str


@dataclass(frozen=True)
class Response:
    """Simulated HTTP response.

    Attributes:
        status: HTTP status code.
        body: page body (may contain a reflected SQL error).
        delay: simulated server-side processing time in seconds.
    """

    status: int
    body: str
    delay: float


_MYSQL_ERROR = (
    "You have an error in your SQL syntax; check the manual that corresponds "
    "to your MySQL server version for the right syntax to use near '{frag}' "
    "at line 1"
)

_SLEEP_RE = re.compile(r"(?:sleep|benchmark)\s*\(\s*(\d+)", re.IGNORECASE)
_QUOTE_BREAK_RE = re.compile(r"['\"]|%27|%22")
_TAUTOLOGY_RE = re.compile(
    r"(?:or|and)\s+(\d+)\s*=\s*(\d+)|or\s+'?1'?\s*=\s*'?1", re.IGNORECASE
)
_UNION_RE = re.compile(r"union\s+(?:all\s+)?select", re.IGNORECASE)
_ORDER_RE = re.compile(r"order\s+by\s+(\d+)", re.IGNORECASE)


class VulnerableWebApp:
    """The 136-injection-point application the scanners attack.

    Args:
        seed: seeds the layout of paths/parameters so every run sees the
            same application.
        n_vulnerabilities: number of injection points (paper: 136).
    """

    def __init__(self, seed: int = 7, n_vulnerabilities: int = 136) -> None:
        rng = DrawStream(seed)
        pages = (
            "/case/product", "/case/article", "/case/user", "/case/search",
            "/case/login", "/case/report", "/case/gallery", "/case/forum",
        )
        self.points: list[InjectionPoint] = []
        for index in range(n_vulnerabilities):
            path = f"{pages[index % len(pages)]}{index:03d}.jsp"
            parameter = ("id", "msg", "username", "target", "orderby",
                         "item", "q")[index % 7]
            context = rng.choice(_CONTEXTS)
            behavior = rng.choice(BEHAVIORS)
            self.points.append(
                InjectionPoint(path, parameter, context, behavior)
            )
        self._by_path = {p.path: p for p in self.points}
        #: number of columns the hidden query selects (union probing target)
        self._columns = {p.path: rng.integers(2, 9) for p in self.points}

    def __len__(self) -> int:
        return len(self.points)

    def union_column_count(self, path: str) -> int:
        """Ground-truth column count (what ORDER BY probing converges to)."""
        return self._columns[path]

    def handle(self, path: str, parameter: str, value: str) -> Response:
        """Simulate the application's response to one request.

        The behaviour model follows how MySQL-backed pages actually fail:
        a quote break in an ``error`` page reflects a syntax error; boolean
        pages change content with predicate truth; time pages stall on
        ``sleep``; a correct ``UNION`` column count renders extra content.
        """
        point = self._by_path.get(path)
        if point is None:
            return Response(status=404, body="not found", delay=0.001)
        if parameter != point.parameter:
            return Response(status=200, body="<html>static page</html>",
                            delay=0.002)

        delay = 0.002
        sleep_match = _SLEEP_RE.search(value)
        if sleep_match and point.behavior == BEHAVIOR_TIME:
            delay += min(int(sleep_match.group(1)), 30)

        broke_syntax = bool(_QUOTE_BREAK_RE.search(value))
        order_match = _ORDER_RE.search(value)
        if order_match:
            n = int(order_match.group(1))
            if n > self._columns[path]:
                broke_syntax = True

        if broke_syntax and point.behavior == BEHAVIOR_ERROR:
            fragment = value[:24].replace("\n", " ")
            return Response(status=200,
                            body=_MYSQL_ERROR.format(frag=fragment),
                            delay=delay)
        if broke_syntax:
            return Response(status=500, body="internal error", delay=delay)

        tautology = _TAUTOLOGY_RE.search(value)
        truth = True
        if tautology and tautology.group(1) is not None:
            truth = tautology.group(1) == tautology.group(2)
        body = "<html>row: widget-1</html>"
        if point.behavior == BEHAVIOR_BOOLEAN and tautology and not truth:
            body = "<html>no results</html>"
        if _UNION_RE.search(value):
            commas = value.count(",")
            if commas + 1 == self._columns[path]:
                body = "<html>row: widget-1 row: 1 2 3 extra</html>"
        return Response(status=200, body=body, delay=delay)
