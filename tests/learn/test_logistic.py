"""Tests for logistic regression via Newton-PCG."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn import (
    LogisticModel,
    log_loss,
    logit,
    sigmoid,
    train_logistic,
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0)

    def test_extreme_values_stable(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)
        assert np.isfinite(sigmoid(np.array([-1e8, 1e8]))).all()

    def test_range(self):
        z = np.random.default_rng(0).normal(0, 10, 100)
        p = sigmoid(z)
        assert ((p > 0) & (p < 1)).all()


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestLogit:
    def test_intercept_plus_terms_in_order(self):
        terms = ((1, 2.0), (0, -1.0), (2, 0.25))
        assert logit(0.5, terms, [3, 4, 0]) == 0.5 + ((0.0 + 8.0) - 3.0)

    def test_reads_counts_by_index(self):
        # A signature's own vector and a shared, reordered one agree.
        weights = [0.1, -0.7, 2.5]
        own = [3.0, 0.0, 1.0]
        shared = [9, 1, 4, 0, 3]
        assert logit(-1.0, enumerate(weights), own) == logit(
            -1.0, zip((4, 3, 1), weights), shared
        )

    @settings(max_examples=300, deadline=None)
    @given(
        intercept=st.floats(allow_nan=False, allow_infinity=False),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3)
                | st.integers(min_value=0, max_value=10**6),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=40,
        ),
    )
    def test_skipping_zero_counts_changes_no_bit(self, intercept, rows):
        counts = [count for count, _ in rows]
        terms = [(index, weight) for index, (_, weight) in enumerate(rows)]
        total = 0.0
        for count, weight in rows:
            total += count * weight
        assert _bits(logit(intercept, terms, counts)) == _bits(
            intercept + total
        )


class TestLogLoss:
    def test_perfect_predictions(self):
        y = np.array([0.0, 1.0])
        assert log_loss(y, np.array([0.0, 1.0])) < 1e-10

    def test_coin_flip(self):
        y = np.array([0.0, 1.0])
        assert log_loss(y, np.array([0.5, 0.5])) == pytest.approx(
            np.log(2)
        )

    def test_confident_wrong_is_costly(self):
        y = np.array([1.0])
        assert log_loss(y, np.array([0.001])) > 5


@pytest.fixture(scope="module")
def separable():
    rng = np.random.default_rng(1)
    x = np.vstack([
        rng.normal(-2, 1, (200, 4)), rng.normal(2, 1, (200, 4))
    ])
    y = np.concatenate([np.zeros(200), np.ones(200)])
    return x, y


class TestTraining:
    def test_high_accuracy_on_separable(self, separable):
        x, y = separable
        model, report = train_logistic(x, y)
        assert report.converged
        assert (model.predict(x) == y).mean() > 0.95

    def test_probabilities_calibrated_direction(self, separable):
        x, y = separable
        model, _ = train_logistic(x, y)
        p = model.predict_proba(x)
        assert p[y == 1].mean() > 0.8
        assert p[y == 0].mean() < 0.2

    def test_intercept_first_theta_layout(self, separable):
        x, y = separable
        model, _ = train_logistic(x, y)
        assert model.theta.shape == (x.shape[1] + 1,)
        assert model.intercept == model.theta[0]
        assert (model.coefficients == model.theta[1:]).all()

    def test_regularization_shrinks_weights(self, separable):
        x, y = separable
        loose, _ = train_logistic(x, y, l2=0.01)
        tight, _ = train_logistic(x, y, l2=100.0)
        assert np.linalg.norm(tight.coefficients) < np.linalg.norm(
            loose.coefficients
        )

    def test_class_weighting_handles_imbalance(self):
        rng = np.random.default_rng(2)
        x = np.vstack([
            rng.normal(-1, 1, (950, 3)), rng.normal(1.2, 1, (50, 3))
        ])
        y = np.concatenate([np.zeros(950), np.ones(50)])
        weighted, _ = train_logistic(x, y, class_weighted=True)
        unweighted, _ = train_logistic(x, y, class_weighted=False)
        recall_weighted = weighted.predict(x)[y == 1].mean()
        recall_unweighted = unweighted.predict(x)[y == 1].mean()
        assert recall_weighted >= recall_unweighted

    def test_matches_closed_form_direction(self):
        # On 1-D data the decision boundary should sit between the means.
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0, 0.5, 300),
                            rng.normal(4, 0.5, 300)])[:, None]
        y = np.concatenate([np.zeros(300), np.ones(300)])
        model, _ = train_logistic(x, y, l2=1e-6)
        boundary = -model.intercept / model.coefficients[0]
        assert 1.0 < boundary < 3.0

    def test_deterministic(self, separable):
        x, y = separable
        first, _ = train_logistic(x, y)
        second, _ = train_logistic(x, y)
        assert np.allclose(first.theta, second.theta)

    def test_report_counts(self, separable):
        x, y = separable
        _, report = train_logistic(x, y)
        assert report.newton_iterations >= 1
        assert report.pcg_iterations >= report.newton_iterations
        assert report.final_loss > 0


class TestValidation:
    def test_single_class_rejected(self):
        x = np.ones((5, 2))
        with pytest.raises(ValueError):
            train_logistic(x, np.ones(5))

    def test_label_values_checked(self):
        x = np.ones((4, 2))
        with pytest.raises(ValueError):
            train_logistic(x, np.array([0, 1, 2, 1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.ones((4, 2)), np.array([0.0, 1.0]))

    def test_one_dim_features_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.ones(4), np.array([0.0, 1.0, 0, 1]))


class TestModel:
    def test_decision_is_linear(self):
        model = LogisticModel(np.array([1.0, 2.0, -1.0]))
        x = np.array([[1.0, 1.0]])
        assert model.decision(x)[0] == pytest.approx(1 + 2 - 1)

    def test_predict_threshold(self):
        model = LogisticModel(np.array([0.0, 1.0]))
        assert model.predict(np.array([[1.0]]), threshold=0.5)[0] == 1
        assert model.predict(np.array([[-1.0]]), threshold=0.5)[0] == 0

    def test_single_row_input(self):
        model = LogisticModel(np.array([0.0, 1.0, 1.0]))
        p = model.predict_proba(np.array([0.5, 0.5]))
        assert p.shape == (1,)
