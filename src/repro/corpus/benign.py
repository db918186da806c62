"""Benign web-traffic generator (the FPR test substrate).

Section III-B: the FPR dataset is "a 1-week network trace at a university
institution ... including the institutional web servers, the registration
and payment servers, and the web interface for the mailing servers",
over 1.4 million GET requests with no attacks.

The generator reproduces the *adversarial* property of that trace: benign
requests whose parameters contain SQL-looking vocabulary — a search for
"union square hotels", a course named "SELECT TOPICS IN ML", an address on
"Ord Street", free-text feedback with apostrophes — which is exactly what
drives false positives in keyword-matching rulesets (the paper's
``.+UNION\\s+SELECT`` discussion in Section I).
"""

from __future__ import annotations

from repro.corpus.draws import DrawStream
from repro.http import HttpRequest, LABEL_BENIGN, Trace
from repro.http.url import quote

_HOSTS = (
    "www.university.edu", "registrar.university.edu", "pay.university.edu",
    "mail.university.edu", "courses.university.edu", "library.university.edu",
)

_STATIC_PATHS = (
    "/index.html", "/about/", "/admissions/", "/img/logo.png",
    "/css/main.css", "/js/app.js", "/news/2012/07/", "/calendar/",
    "/people/faculty.html", "/research/", "/favicon.ico", "/robots.txt",
)

#: Mundane searches: the overwhelming bulk of real queries (~90%).
_MUNDANE_PHRASES = (
    "where is the registrar office", "joining the chess club",
    "how to update my address", "grant application deadline",
    "table tennis club", "c++ programming tutorial",
    "what is a database index", "create account help",
    "delete my account", "char broil recipes", "physics 101 final",
    "parking permit renewal", "wifi setup guide", "cafeteria menu monday",
    "thesis template latex", "gym membership", "null hypothesis testing",
    "keys lost and found", "exists philosophy essay",
    "like new textbooks for sale", "drop a class deadline",
    "insert coin arcade museum", "course selection deadline",
    "campus shuttle schedule", "final exam locations",
    "library opening hours", "housing application status",
    "student health center", "career fair employers", "tuition payment plan",
)

#: Benign English that *contains* SQL vocabulary or apostrophes — the
#: soft overlap the paper's Section I discusses (``UNION`` and ``SELECT``
#: "are also commonly found in benign database queries from web
#: applications"); roughly a tenth of searches.
_SQLISH_PHRASES = (
    "student union hours", "union square directions", "credit union atm",
    "select topics in machine learning", "group by assignment calculus",
    "o'brien hall directions", "int'l student services",
)

#: Rare "hot" phrases: the handful of benign strings that actually trip
#: keyword rulesets, each with its own occurrence rate *within searches*.
#: These rates are the lever that positions the baselines' FPRs.
_HOT_PHRASES = (
    ("1=1 boolean logic homework", 0.0020),
    ("tickets order by 10 june", 0.0020),
    ("schedule -- fall semester", 0.0015),
    ("select suggested readings from the syllabus", 0.0015),
    ("men's and women's soccer", 0.0010),
    ("rock 'n' roll history course", 0.0008),
)
_HOT_TOTAL = sum(rate for _, rate in _HOT_PHRASES)

_COURSE_CODES = ("cs101", "ee201", "math250", "bio110", "chem301", "phys172")
_FIRST_NAMES = ("alice", "bob", "carol", "dave", "erin", "frank", "grace")
_LAST_NAMES = ("smith", "o'connor", "lee", "d'angelo", "garcia", "chen")


class BenignTrafficGenerator:
    """Seeded generator of realistic benign HTTP requests.

    The mix: ~55% static-asset and page fetches (no parameters at all),
    ~20% searches, ~15% registration/course/catalog queries with numeric
    and string parameters, ~10% webmail/payment navigation.
    """

    def __init__(self, seed: int = 1406) -> None:
        self._rng = DrawStream(seed)

    def request(self) -> HttpRequest:
        """Generate one benign request."""
        roll = self._rng.random()
        if roll < 0.55:
            return self._static()
        if roll < 0.75:
            return self._search()
        if roll < 0.90:
            return self._registration()
        return self._mail_or_payment()

    def _static(self) -> HttpRequest:
        return HttpRequest(
            host=self._rng.choice(_HOSTS),
            path=self._rng.choice(_STATIC_PATHS),
            label=LABEL_BENIGN,
        )

    def _search_phrase(self) -> str:
        roll = self._rng.random()
        if roll < _HOT_TOTAL:
            cursor = 0.0
            for phrase, rate in _HOT_PHRASES:
                cursor += rate
                if roll < cursor:
                    return phrase
        if roll < 0.10:
            return self._rng.choice(_SQLISH_PHRASES)
        return self._rng.choice(_MUNDANE_PHRASES)

    def _search(self) -> HttpRequest:
        phrase = self._search_phrase()
        page = self._rng.integers(1, 5)
        query = f"q={quote(phrase)}&page={page}"
        if self._rng.random() < 0.3:
            sort = self._rng.choice(("date", "relevance", "title"))
            query += f"&sort={sort}"
        return HttpRequest(
            host=self._rng.choice(_HOSTS), path="/search", query=query,
            label=LABEL_BENIGN,
        )

    def _registration(self) -> HttpRequest:
        kind = self._rng.random()
        if kind < 0.4:
            query = (
                f"course={self._rng.choice(_COURSE_CODES)}"
                f"&term=fall2012&section={self._rng.integers(1, 9)}"
            )
            path = "/register/enroll"
        elif kind < 0.7:
            first = self._rng.choice(_FIRST_NAMES)
            name = f"{first} {self._rng.choice(_LAST_NAMES)}"
            query = f"name={quote(name)}&id={self._rng.integers(10000, 99999)}"
            path = "/directory/lookup"
        else:
            query = (
                f"isbn=97{self._rng.integers(10 ** 10, 10 ** 11)}"
                f"&format={self._rng.choice(('pdf', 'print', 'ebook'))}"
            )
            path = "/library/catalog"
        return HttpRequest(
            host="registrar.university.edu", path=path, query=query,
            label=LABEL_BENIGN,
        )

    def _mail_or_payment(self) -> HttpRequest:
        if self._rng.random() < 0.5:
            folder = self._rng.choice(("inbox", "sent", "archive", "trash"))
            query = f"folder={folder}&msg={self._rng.integers(1, 5000)}"
            return HttpRequest(
                host="mail.university.edu", path="/webmail/view", query=query,
                label=LABEL_BENIGN,
            )
        query = (
            f"invoice={self._rng.integers(100000, 999999)}"
            f"&amount={self._rng.integers(10, 2000)}.00&currency=usd"
        )
        return HttpRequest(
            host="pay.university.edu", path="/billing/status", query=query,
            label=LABEL_BENIGN,
        )

    def trace(self, count: int, name: str = "benign-week") -> Trace:
        """A benign trace of *count* requests (paper: ~1.4M over a week)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        trace = Trace(name=name)
        for _ in range(count):
            trace.append(self.request())
        return trace
