"""Common scanner machinery.

Section III-B builds two TPR test sets by running real scanners (SQLmap;
Arachni and Vega) against a vulnerable application.  "The use of three
different tools ... with their different methods for generation of attack
samples, was important to our evaluation strategy to assess the generality
of pSigene."  Each simulator here implements a distinct generation
strategy and drives the simulated application's feedback loop (errors,
boolean differences, timing) the way its real counterpart does.
"""

from __future__ import annotations

from repro.corpus.draws import DrawStream
from repro.corpus.webapp import VulnerableWebApp
from repro.http.request import HttpRequest
from repro.http.traffic import LABEL_ATTACK, Trace
from repro.http.url import quote


class ScannerBase:
    """Shared request plumbing for the scanner simulators.

    Args:
        app: the target application.
        seed: randomization seed (payload ordering, random markers).
        post_fraction: fraction of probes delivered as POST form bodies
            instead of query strings — real scanners attack forms too
            (the paper's threat model is form input reaching SQL), and
            the detectors must inspect the form-encoded body path.
    """

    name = "scanner"

    def __init__(
        self,
        app: VulnerableWebApp,
        seed: int = 0,
        post_fraction: float = 0.15,
    ) -> None:
        if not 0.0 <= post_fraction <= 1.0:
            raise ValueError("post_fraction must be in [0, 1]")
        self.app = app
        self.rng = DrawStream(seed)
        self.post_fraction = post_fraction
        self._trace = Trace(name=f"{self.name}-test")

    # -- plumbing -----------------------------------------------------------

    def encode_value(self, value: str) -> str:
        """Wire encoding of a payload value; scanners differ here and the
        difference is detector-visible (single-decode engines miss ``+``
        and double encodes)."""
        return quote(value)

    def send(self, path: str, parameter: str, value: str):
        """Issue one probe; records the request and returns the response."""
        encoded = self.encode_value(value)
        if self.rng.random() < self.post_fraction:
            request = HttpRequest(
                method="POST",
                host="victim.test",
                path=path,
                headers={
                    "content-type": "application/x-www-form-urlencoded"
                },
                body=f"{parameter}={encoded}",
                label=LABEL_ATTACK,
            )
        else:
            request = HttpRequest(
                host="victim.test",
                path=path,
                query=f"{parameter}={encoded}",
                label=LABEL_ATTACK,
            )
        self._trace.append(request)
        return self.app.handle(path, parameter, value)

    def random_int(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] from the scanner's RNG."""
        return self.rng.integers(low, high + 1)

    def trace(self) -> Trace:
        """All probes issued so far, in order."""
        return self._trace

    # -- strategy hook --------------------------------------------------------

    def scan(self) -> Trace:
        """Run the full scan and return the attack trace."""
        raise NotImplementedError
