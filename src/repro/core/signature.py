"""Generalized signatures: the paper's final artifact.

Section II-D: "a signature Sig_bj is a logistic regression model built to
predict whether an SQL query is an attack similar to the samples in cluster
b_j" — the bicluster's features are the variables of the hypothesis
function ``h_θ(F) = g(θᵀF)``, and the signature fires when the probability
crosses a threshold.  Operationally each feature value is a ``count_all``
over the normalized request payload (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.features.definitions import FeatureCatalog
from repro.learn.logistic import LogisticModel, logit, sigmoid
from repro.match import FusedSetEvaluator
from repro.normalize import Normalizer
from repro.regexlib import compile_pattern

if TYPE_CHECKING:
    import numpy as np

# Sentinel cached when a set takes the per-signature loop (pinned, empty,
# or its features defeat the fused compiler); evaluations then skip the
# fused engine without retrying the build.
_UNFUSABLE = object()


@dataclass
class GeneralizedSignature:
    """One per-bicluster probabilistic signature.

    Attributes:
        bicluster_index: the paper-style 1-based bicluster number.
        features: the signature's feature subset (post logistic pruning).
        model: trained logistic model; ``model.theta`` is the paper's Θ
            (intercept first, then one coefficient per feature, aligned
            with ``features``).
        threshold: probability above which the signature alerts.
        bicluster_feature_count: size of the bicluster's feature set before
            logistic pruning (Table VI column 3).
        training_samples: bicluster sample count (Table VI column 2).
    """

    bicluster_index: int
    features: FeatureCatalog
    model: LogisticModel
    threshold: float = 0.5
    bicluster_feature_count: int = 0
    training_samples: int = 0
    _compiled: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if len(self.model.coefficients) != len(self.features):
            raise ValueError(
                "model coefficients must align with the feature subset"
            )
        self._compiled = [compile_pattern(d.pattern) for d in self.features]

    @property
    def n_features(self) -> int:
        """Signature size (Table VI column 4)."""
        return len(self.features)

    def feature_vector(self, normalized_payload: str) -> list[int]:
        """Per-feature ``count_all`` values for one normalized payload."""
        return [
            sum(1 for _ in compiled.finditer(normalized_payload))
            for compiled in self._compiled
        ]

    def probability(self, normalized_payload: str) -> float:
        """``h_θ``: probability the payload belongs to this attack class."""
        z = logit(
            self.model.intercept,
            enumerate(self.model.coefficients),
            self.feature_vector(normalized_payload),
        )
        return sigmoid(z)

    def matches(self, normalized_payload: str) -> bool:
        """Deterministic verdict: probability at or above the threshold."""
        return self.probability(normalized_payload) >= self.threshold

    def describe(self) -> str:
        """Θ in the paper's Section II-D print style."""
        terms = [f"{self.model.intercept:+.6f}"]
        for definition, coefficient in zip(
            self.features, self.model.coefficients
        ):
            terms.append(f"{coefficient:+.6f}·f[{definition.label}]")
        body = " ".join(terms)
        return f"Sig_b{self.bicluster_index}: g({body})"


class SignatureSet:
    """An ordered collection of generalized signatures with one normalizer.

    The set alerts when *any* member signature's probability crosses its
    threshold — pSigene's operational semantics inside Bro.
    """

    def __init__(
        self,
        signatures: list[GeneralizedSignature],
        normalizer: Normalizer | None = None,
    ) -> None:
        self.signatures = list(signatures)
        self.normalizer = normalizer if normalizer is not None else Normalizer()
        self._fused = None
        self._reference = False

    def _fused_evaluator(self):
        """The set's fused evaluator, built lazily; ``_UNFUSABLE`` when
        the set is pinned to the reference loop (:meth:`reference`), is
        empty, or its feature union defeats the fused compiler (the
        per-signature loop runs instead — slower, never different)."""
        if self._fused is None:
            if self._reference or not self.signatures:
                self._fused = _UNFUSABLE
            else:
                try:
                    self._fused = FusedSetEvaluator(self.signatures)
                except Exception:
                    self._fused = _UNFUSABLE
        return self._fused

    def warm(self) -> bool:
        """Build the fused evaluator eagerly (the gateway publish path
        calls this so the first request never pays compile cost).

        Returns True when the set will take the fused fast path.
        """
        return self._fused_evaluator() is not _UNFUSABLE

    def reference(self) -> "SignatureSet":
        """This set pinned to the per-signature reference loop.

        Every evaluation of the returned set calls each signature's
        :meth:`GeneralizedSignature.probability`, never the fused
        engine.  The pin survives pickling, :meth:`subset` and
        :meth:`with_threshold`.  The conformance ``serial-legacy`` path
        and the engine benchmarks drive it against the same signatures
        the fused engine scores.
        """
        pinned = self._derived(self.signatures)
        pinned._reference = True
        return pinned

    def _derived(
        self, signatures: list[GeneralizedSignature]
    ) -> "SignatureSet":
        """A set over *signatures* with this set's normalizer and pin."""
        derived = SignatureSet(signatures, normalizer=self.normalizer)
        derived._reference = self._reference
        return derived

    def __getstate__(self) -> dict:
        """Pickle without the fused evaluator; workers rebuild it lazily
        from the process-wide matcher memo."""
        state = dict(self.__dict__)
        state["_fused"] = None
        return state

    def __len__(self) -> int:
        return len(self.signatures)

    def __iter__(self):
        return iter(self.signatures)

    def __getitem__(self, index: int) -> GeneralizedSignature:
        return self.signatures[index]

    def _probabilities(self, normalized_payload: str) -> list[float]:
        """Per-signature probabilities for a normalized payload."""
        evaluator = self._fused_evaluator()
        if evaluator is _UNFUSABLE:
            return [
                s.probability(normalized_payload) for s in self.signatures
            ]
        return evaluator.probabilities(normalized_payload)

    def probabilities(self, payload: str) -> np.ndarray:
        """Per-signature probabilities for a raw payload."""
        import numpy as np

        return np.array(self._probabilities(self.normalizer(payload)))

    def evaluate(self, payload: str) -> tuple[float, list[int]]:
        """One-pass verdict: ``(score, fired bicluster indices)``.

        Normalizes the payload once and evaluates every signature once
        against the shared normalized form — the hot-path entry point.
        ``score`` is the max per-signature probability; ``fired`` holds the
        bicluster indices whose probability reached their threshold.
        """
        return self.evaluate_normalized(self.normalizer(payload))

    def evaluate_normalized(
        self, normalized_payload: str
    ) -> tuple[float, list[int]]:
        """:meth:`evaluate` for an already-normalized payload.

        Takes the fused single-pass engine (:mod:`repro.match`) unless
        the set is pinned to the reference loop or its features defeat
        the fused compiler.  Both engines score through the same
        :func:`~repro.learn.logistic.logit`, so scores and verdicts are
        bit-identical — the conformance oracle's ``serial-legacy`` path
        holds them to that.
        """
        score = 0.0
        fired: list[int] = []
        for signature, probability in zip(
            self.signatures, self._probabilities(normalized_payload)
        ):
            if probability > score:
                score = probability
            if probability >= signature.threshold:
                fired.append(signature.bicluster_index)
        return score, fired

    def matches(self, payload: str) -> bool:
        """True when any member signature fires on the raw payload."""
        return bool(self.evaluate(payload)[1])

    def subset(self, bicluster_indices: list[int]) -> "SignatureSet":
        """A new set restricted to the given bicluster numbers.

        Used for the paper's 7-signature versus 9-signature comparison.
        """
        wanted = set(bicluster_indices)
        return self._derived(
            [s for s in self.signatures if s.bicluster_index in wanted]
        )

    def with_threshold(self, threshold: float) -> "SignatureSet":
        """A new set with every signature's threshold replaced (ROC sweeps)."""
        swept = self._derived([
            GeneralizedSignature(
                bicluster_index=s.bicluster_index,
                features=s.features,
                model=s.model,
                threshold=threshold,
                bicluster_feature_count=s.bicluster_feature_count,
                training_samples=s.training_samples,
            )
            for s in self.signatures
        ])
        # Probabilities are independent of thresholds and the sweep keeps
        # features/models/order, so the fused evaluator carries over —
        # a 100-point ROC sweep compiles the catalog exactly once.
        swept._fused = self._fused
        return swept
