"""Versioned signature store with atomic hot-swap and two-phase staging.

Agarwal & Hussain (arXiv:1805.10848) observe that signature *deployment*
flaws — stale rulesets with no update path — dominate real-world IDS
failures.  The store is the update path: a mounted detector can be
replaced from a signature JSON file (the deployable artifact of
``core/serialize.py``) or from an inline JSON body without restarting
the gateway or dropping in-flight requests.

The swap protocol is copy-on-write: the replacement detector is built
completely off to the side (parse, validate, compile, **warm**), then
published with one attribute assignment.  Readers that captured the
previous :class:`StoreVersion` keep answering with it; readers that
arrive after the assignment see the new one.  A candidate that fails
anywhere before publication — a bad parse *or* a fused plan that blows
up while warming — raises :class:`StoreError` with a machine-readable
``reason``, increments ``reload_rejected``, and leaves the current
version untouched.

For fleet deployments the store also speaks a two-phase protocol:
:meth:`SignatureStore.stage_json` builds and warms a candidate under an
explicit generation number without publishing it, and
:meth:`SignatureStore.commit_staged` flips to it atomically.  The fleet
supervisor stages on every shard, waits for unanimous success, then
commits everywhere — so no shard ever publishes a generation a sibling
rejected.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.core.serialize import signature_set_from_json
from repro.core.signature import SignatureSet
from repro.ids.engine import Detector, PSigeneDetector
from repro.serve.telemetry import Telemetry

__all__ = ["SignatureStore", "StoreError", "StoreVersion"]


class StoreError(ValueError):
    """Raised when a swap cannot be performed; the old version survives.

    Attributes:
        reason: machine-readable rejection class — ``"parse"`` (invalid
            signature JSON), ``"warm"`` (candidate's fused plan failed
            to compile), ``"io"`` (unreadable file), ``"config"`` (no
            reload path configured), or ``"stage"`` (two-phase protocol
            misuse).
    """

    def __init__(self, message: str, *, reason: str = "parse") -> None:
        super().__init__(message)
        self.reason = reason


def _warm_detector(detector: Detector) -> None:
    """Eagerly build the fused fast path for *detector*, if it has one."""
    signature_set = getattr(detector, "signature_set", None)
    warm = getattr(signature_set, "warm", None)
    if callable(warm):
        warm()


@dataclass(frozen=True)
class StoreVersion:
    """One immutable published generation of the mounted detector.

    Attributes:
        version: monotonically increasing generation number (1 = initial).
        detector: the detector answering requests for this generation.
        source: provenance string (``file:<path>``, ``inline``, ``static``).
    """

    version: int
    detector: Detector
    source: str


class SignatureStore:
    """Holds the current :class:`StoreVersion`; swaps are atomic.

    Args:
        detector: initially mounted detector.
        path: signature JSON file a body-less reload reads.
        detector_factory: builds a detector from a loaded
            :class:`SignatureSet`; defaults to :class:`PSigeneDetector`
            keeping the currently mounted detector's name.
        telemetry: sink for the ``reloads`` / ``reload_failures`` /
            ``reload_rejected`` counters.
        source: provenance of the initial version.
        initial_version: generation number of the initial version — a
            respawned fleet shard mounts the fleet's *current*
            generation, not 1, so its responses carry the right version.
    """

    def __init__(
        self,
        detector: Detector,
        *,
        path: str | None = None,
        detector_factory: Callable[[SignatureSet], Detector] | None = None,
        telemetry: Telemetry | None = None,
        source: str = "static",
        initial_version: int = 1,
    ) -> None:
        self.path = path
        self.telemetry = telemetry
        self._factory = detector_factory
        self._swap_lock = threading.Lock()
        self._staged: dict[int, StoreVersion] = {}
        _warm_detector(detector)
        self._current = StoreVersion(
            version=initial_version, detector=detector, source=source
        )

    @classmethod
    def from_file(
        cls,
        path: str,
        *,
        detector_factory: Callable[[SignatureSet], Detector] | None = None,
        telemetry: Telemetry | None = None,
    ) -> "SignatureStore":
        """Mount a pSigene signature JSON file as version 1."""
        with open(path) as handle:
            signature_set = signature_set_from_json(handle.read())
        factory = detector_factory or PSigeneDetector
        return cls(
            factory(signature_set),
            path=path,
            detector_factory=detector_factory,
            telemetry=telemetry,
            source=f"file:{path}",
        )

    def current(self) -> StoreVersion:
        """The live generation.  Callers snapshot it once per request so a
        concurrent swap never changes the detector mid-inspection."""
        return self._current

    @property
    def version(self) -> int:
        """Generation number of the live version."""
        return self._current.version

    def _build(self, signature_set: SignatureSet) -> Detector:
        if self._factory is not None:
            return self._factory(signature_set)
        return PSigeneDetector(
            signature_set, name=self._current.detector.name
        )

    def _reject(self, message: str, *, reason: str = "parse") -> StoreError:
        if self.telemetry is not None:
            self.telemetry.increment("reload_failures")
            self.telemetry.increment("reload_rejected")
        return StoreError(message, reason=reason)

    def _warm_candidate(self, detector: Detector) -> None:
        """Warm ``detector`` or reject it; a candidate whose fused plan
        cannot compile must never be published."""
        try:
            _warm_detector(detector)
        except Exception as exc:
            raise self._reject(
                f"rejected signature swap: candidate failed to warm: {exc}",
                reason="warm",
            ) from exc

    # -- one-shot swap (single-process gateway) ------------------------

    def swap_detector(self, detector: Detector, *, source: str) -> StoreVersion:
        """Publish ``detector`` as the next generation.

        The detector's fused matching plan is compiled *before* the
        version pointer moves, so the first request against the new
        generation never pays compile cost (copy-on-write includes the
        fast path, not just the parse).  A warm failure rejects the
        candidate and the old version keeps serving.
        """
        self._warm_candidate(detector)
        with self._swap_lock:
            published = StoreVersion(
                version=self._current.version + 1,
                detector=detector,
                source=source,
            )
            self._current = published
        if self.telemetry is not None:
            self.telemetry.increment("reloads")
        return published

    def swap_json(self, text: str, *, source: str = "inline") -> StoreVersion:
        """Parse signature JSON and publish it; on failure the current
        version keeps serving.

        Raises:
            StoreError: when ``text`` is not a valid signature set or
                the candidate fails to warm.
        """
        try:
            signature_set = signature_set_from_json(text)
        except Exception as exc:
            # Untrusted input: malformed documents fail in arbitrary
            # ways (wrong JSON, wrong shape, wrong types) and none of
            # them may take down the serving store.
            raise self._reject(f"rejected signature swap: {exc}") from exc
        return self.swap_detector(self._build(signature_set), source=source)

    def reload_text(self, body: str) -> tuple[str, str]:
        """The signature JSON a ``POST /reload`` names, and its source.

        A body that is not blank is the document itself (``inline``); a
        blank one names the configured file (``file:<path>``).

        Raises:
            StoreError: a blank body with no path configured
                (``config``) or a file that cannot be read (``io``);
                both count as rejected reloads.
        """
        if body.strip():
            return body, "inline"
        if self.path is None:
            raise self._reject(
                "no signature path configured; POST a signature JSON "
                "body",
                reason="config",
            )
        try:
            with open(self.path) as handle:
                return handle.read(), f"file:{self.path}"
        except OSError as exc:
            raise self._reject(
                f"cannot read {self.path}: {exc}", reason="io"
            ) from exc

    # -- two-phase staging (fleet reload protocol) ---------------------

    def stage_detector(
        self, detector: Detector, *, generation: int, source: str
    ) -> None:
        """Build-and-warm ``detector`` as candidate ``generation``
        without publishing it.

        Raises:
            StoreError: generation not ahead of the live version, or the
                candidate failed to warm.
        """
        if generation <= self._current.version:
            raise self._reject(
                f"stage generation {generation} is not ahead of live "
                f"version {self._current.version}",
                reason="stage",
            )
        self._warm_candidate(detector)
        with self._swap_lock:
            self._staged[generation] = StoreVersion(
                version=generation, detector=detector, source=source
            )

    def stage_json(
        self, text: str, *, generation: int, source: str = "inline"
    ) -> None:
        """Parse, build, and warm candidate ``generation`` from JSON.

        Raises:
            StoreError: invalid JSON, warm failure, or a stale
                generation number; nothing is staged on failure.
        """
        try:
            signature_set = signature_set_from_json(text)
        except Exception as exc:
            raise self._reject(
                f"rejected signature stage: {exc}"
            ) from exc
        self.stage_detector(
            self._build(signature_set), generation=generation, source=source
        )

    def get_staged(self, generation: int) -> StoreVersion | None:
        """The staged (warmed, unpublished) candidate for ``generation``,
        or None.  The canary loop mirrors shadow traffic to this
        detector while the published version keeps answering."""
        with self._swap_lock:
            return self._staged.get(generation)

    def staged_generations(self) -> tuple[int, ...]:
        """Generation numbers currently staged, ascending."""
        with self._swap_lock:
            return tuple(sorted(self._staged))

    def commit_staged(self, generation: int) -> StoreVersion:
        """Atomically publish the previously staged ``generation``.

        Raises:
            StoreError: no such staged candidate (stage first).
        """
        with self._swap_lock:
            staged = self._staged.pop(generation, None)
            if staged is None:
                raise StoreError(
                    f"no staged candidate for generation {generation}",
                    reason="stage",
                )
            self._current = staged
        if self.telemetry is not None:
            self.telemetry.increment("reloads")
        return staged

    def abort_staged(self, generation: int | None = None) -> None:
        """Drop a staged candidate (or all of them); the live version is
        untouched.  Aborting a generation that was never staged is a
        no-op — the supervisor aborts broadly on any shard failure."""
        with self._swap_lock:
            if generation is None:
                self._staged.clear()
            else:
                self._staged.pop(generation, None)
