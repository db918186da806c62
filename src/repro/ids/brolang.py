"""A miniature Bro signature language and policy layer.

Section III-C: "we implemented the signatures generated by pSigene into
the Bro IDS ... we coded a function ``count_all()`` ... pSigene is invoked
by Bro from its upper policy layer, which is analogous to where Bro's own
signatures reside."

This module reproduces that runtime: a parser for Bro's ``.sig`` signature
files (the subset the SQLi signatures use — ``signature`` blocks with
``http-request`` regex conditions and ``event`` actions), an exporter that
writes any of our deterministic rulesets in that format, and a policy
layer that hosts pSigene's probabilistic signatures beside the native
deterministic ones, exactly as the paper's deployment did.

Grammar (subset)::

    signature <id> {
        http-request /<regex>/
        event "<message>"
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.signature import SignatureSet
from repro.ids.rules import Detection, DeterministicRuleSet, Rule


class SigParseError(ValueError):
    """Raised on malformed .sig content (with a line number)."""


@dataclass(frozen=True)
class BroSignature:
    """One parsed ``signature`` block.

    Attributes:
        sig_id: the identifier after the ``signature`` keyword.
        pattern: the ``http-request`` regular expression.
        event: the alert message of the ``event`` action.
    """

    sig_id: str
    pattern: str
    event: str


def _read_regex(text: str, start: int, line_number: int) -> tuple[str, int]:
    """Read a ``/.../``-delimited regex honoring escaped slashes."""
    if start >= len(text) or text[start] != "/":
        raise SigParseError(
            f"line {line_number}: expected '/' to open a regex"
        )
    out = []
    position = start + 1
    while position < len(text):
        ch = text[position]
        if ch == "\\" and position + 1 < len(text):
            out.append(text[position:position + 2])
            position += 2
            continue
        if ch == "/":
            return "".join(out), position + 1
        out.append(ch)
        position += 1
    raise SigParseError(f"line {line_number}: unterminated regex")


def parse_sig_file(text: str) -> list[BroSignature]:
    """Parse the ``signature`` blocks of a .sig file.

    Tolerates blank lines and full-line ``#`` comments (inline comments
    are not stripped — ``#`` is a legitimate regex character in SQLi
    signatures); raises :class:`SigParseError` with a line number on
    structural errors.
    """
    signatures: list[BroSignature] = []
    sig_id: str | None = None
    pattern: str | None = None
    event: str | None = None
    depth = 0
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("signature "):
            if depth:
                raise SigParseError(
                    f"line {line_number}: nested signature block"
                )
            rest = line[len("signature "):].strip()
            if not rest.endswith("{"):
                raise SigParseError(
                    f"line {line_number}: expected '{{' after signature id"
                )
            sig_id = rest[:-1].strip()
            if not sig_id:
                raise SigParseError(f"line {line_number}: empty signature id")
            pattern = None
            event = None
            depth = 1
        elif line.startswith("http-request"):
            if not depth:
                raise SigParseError(
                    f"line {line_number}: http-request outside a block"
                )
            rest = line[len("http-request"):].strip()
            pattern, _ = _read_regex(rest, 0, line_number)
        elif line.startswith("event"):
            if not depth:
                raise SigParseError(
                    f"line {line_number}: event outside a block"
                )
            rest = line[len("event"):].strip()
            if not (rest.startswith('"') and rest.endswith('"')):
                raise SigParseError(
                    f"line {line_number}: event message must be quoted"
                )
            event = rest[1:-1]
        elif line == "}":
            if not depth:
                raise SigParseError(f"line {line_number}: stray '}}'")
            if sig_id is None or pattern is None:
                raise SigParseError(
                    f"line {line_number}: block missing http-request"
                )
            signatures.append(BroSignature(
                sig_id=sig_id,
                pattern=pattern,
                event=event or sig_id,
            ))
            depth = 0
        else:
            raise SigParseError(
                f"line {line_number}: unrecognized statement {line!r}"
            )
    if depth:
        raise SigParseError("unterminated signature block at end of file")
    return signatures


def render_sig_file(rules: list[Rule], *, prefix: str = "sqli") -> str:
    """Write deterministic rules as a Bro .sig file.

    Regex slashes are escaped; disabled rules are emitted commented out,
    mirroring how shipped rulesets carry their disabled majority.
    """
    blocks: list[str] = []
    for rule in rules:
        escaped = rule.pattern.replace("/", r"\/")
        body = (
            f"signature {prefix}-{rule.sid} {{\n"
            f"    http-request /{escaped}/\n"
            f"    event \"{rule.name}\"\n"
            f"}}\n"
        )
        if not rule.enabled:
            body = "".join(f"# {line}\n" for line in body.splitlines())
        blocks.append(body)
    return "\n".join(blocks)


def ruleset_from_sig_file(
    text: str, name: str = "bro-sig", **ruleset_kwargs
) -> DeterministicRuleSet:
    """Load a .sig file straight into a runnable deterministic ruleset."""
    parsed = parse_sig_file(text)
    rules = [
        Rule(
            sid=index + 1,
            name=signature.event,
            pattern=signature.pattern,
        )
        for index, signature in enumerate(parsed)
    ]
    return DeterministicRuleSet(name, rules, **ruleset_kwargs)


@dataclass
class PolicyAlert:
    """One alert raised through the policy layer.

    Attributes:
        origin: ``"signature"`` (native .sig match) or ``"psigene"``.
        identifier: sig id or bicluster number.
        message: event message / signature description.
        score: 1.0 for deterministic matches, the probability for pSigene.
    """

    origin: str
    identifier: str
    message: str
    score: float


@dataclass
class BroPolicyLayer:
    """Bro's upper policy layer hosting both signature engines.

    Native ``.sig`` signatures run first (the low-level matcher); the
    pSigene set runs beside them via ``count_all`` exactly as the paper's
    deployment wired it.  Either source can raise alerts for a request.

    Attributes:
        native: deterministic signatures from a .sig file (may be empty).
        psigene: the generalized signature set (may be ``None``).
    """

    native: DeterministicRuleSet | None = None
    psigene: SignatureSet | None = None
    alerts: list[PolicyAlert] = field(default_factory=list)

    def process(self, payload: str) -> list[PolicyAlert]:
        """Inspect one payload; returns (and records) raised alerts."""
        raised: list[PolicyAlert] = []
        if self.native is not None:
            detection: Detection = self.native.inspect(payload)
            by_sid = {rule.sid: rule for rule in self.native.rules}
            for sid in detection.matched_sids:
                rule = by_sid[sid]
                raised.append(PolicyAlert(
                    origin="signature",
                    identifier=str(sid),
                    message=rule.name,
                    score=1.0,
                ))
        if self.psigene is not None:
            for signature, probability in zip(
                self.psigene, self.psigene.probabilities(payload).tolist()
            ):
                if probability >= signature.threshold:
                    raised.append(PolicyAlert(
                        origin="psigene",
                        identifier=f"b{signature.bicluster_index}",
                        message=(
                            f"pSigene generalized signature "
                            f"{signature.bicluster_index}"
                        ),
                        score=probability,
                    ))
        self.alerts.extend(raised)
        return raised
