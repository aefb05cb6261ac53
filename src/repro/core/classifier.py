"""A from-scratch logistic-regression shutdown classifier (§7).

The paper's future work proposes a classifier for rapid shutdown
identification.  This module implements one end-to-end on numpy: feature
extraction from curated records (the §5.3 fingerprints plus institutional
context), L2-regularized logistic regression trained by full-batch
gradient descent, and evaluation utilities.

The feature set mirrors the paper's findings:

- starts on the local hour / half hour,
- duration is a 30-minute multiple / one of the 4.5/5.5/8/10-hour spikes,
- started 00:00-06:00 local,
- started on a workday,
- all three signals dropped,
- recent event in the same country within 4 days (recurrence),
- liberal-democracy score and state-controlled address space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.countries.registry import CountryRegistry
from repro.errors import ConfigurationError
from repro.ioda.records import OutageRecord
from repro.timeutils.timezones import (
    local_hour_of_day,
    local_minute_of_hour,
    local_weekday,
)
from repro.topology.metrics import StateShare

__all__ = ["FeatureExtractor", "LogisticModel", "TrainResult",
           "train_classifier", "evaluate"]

FEATURE_NAMES: Tuple[str, ...] = (
    "on_local_hour",
    "on_local_half_hour",
    "duration_30min_multiple",
    "duration_round_spike",
    "night_start_00_06",
    "workday_start",
    "all_signals_dropped",
    "recent_event_within_4d",
    "autocracy_score",
    "state_controlled",
)

_ROUND_SPIKES_H = (4.5, 5.5, 8.0, 10.0)


class FeatureExtractor:
    """Maps curated records to feature vectors."""

    def __init__(self, registry: CountryRegistry,
                 libdem_by_country_year: Mapping[Tuple[str, int], float],
                 state_shares: Optional[Mapping[str, StateShare]] = None):
        self._registry = registry
        self._libdem = libdem_by_country_year
        self._state_shares = state_shares or {}

    def extract(self, records: Sequence[OutageRecord]) -> np.ndarray:
        """Feature matrix for a set of records (rows align with input).

        Recurrence features consider only records in the input set, so a
        deployment scoring a single fresh event should pass recent history
        alongside it.
        """
        starts_by_country: Dict[str, List[int]] = {}
        for record in records:
            starts_by_country.setdefault(
                record.country_iso2, []).append(record.span.start)
        for starts in starts_by_country.values():
            starts.sort()
        rows = [self._row(record, starts_by_country)
                for record in records]
        return np.array(rows, dtype=np.float64)

    def _row(self, record: OutageRecord,
             starts_by_country: Dict[str, List[int]]) -> List[float]:
        iso2 = record.country_iso2
        country = self._registry.get(iso2)
        offset = country.utc_offset
        start = record.span.start
        minute = local_minute_of_hour(start, offset)
        hour = local_hour_of_day(start, offset)
        weekday = local_weekday(start, offset)
        duration_h = record.duration_hours
        half_hours = duration_h * 2.0

        previous = [s for s in starts_by_country[iso2] if s < start]
        recent = bool(previous and start - previous[-1] <= 4 * 86400)

        year = time.gmtime(start).tm_year
        libdem = self._libdem.get((iso2, year), 0.5)
        share = self._state_shares.get(iso2)
        state_controlled = bool(share is not None and share.state_controlled)

        return [
            float(minute == 0),
            float(minute == 30),
            float(abs(half_hours - round(half_hours)) < 1e-6),
            float(any(abs(duration_h - r) < 1e-6
                      for r in _ROUND_SPIKES_H)),
            float(hour <= 6),
            float(country.workweek.is_workday(weekday)),
            float(record.visible_in_all_signals),
            float(recent),
            float(1.0 - libdem),
            float(state_controlled),
        ]


@dataclass
class LogisticModel:
    """Weights and intercept of a trained logistic regression."""

    weights: np.ndarray
    intercept: float
    feature_means: np.ndarray
    feature_scales: np.ndarray

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """P(shutdown) per row."""
        standardized = (features - self.feature_means) / self.feature_scales
        logits = standardized @ self.weights + self.intercept
        return 1.0 / (1.0 + np.exp(-logits))

    def predict(self, features: np.ndarray,
                threshold: float = 0.5) -> np.ndarray:
        """Boolean shutdown predictions."""
        return self.predict_proba(features) >= threshold

    def feature_importance(self) -> List[Tuple[str, float]]:
        """(name, weight) sorted by |weight| descending."""
        pairs = list(zip(FEATURE_NAMES, self.weights))
        return sorted(pairs, key=lambda p: abs(p[1]), reverse=True)

    def explain(self, features: np.ndarray) -> List[Tuple[str, float]]:
        """Per-feature logit contributions for one feature vector.

        The decision-provenance view of a prediction: each entry is
        ``(feature name, weight * standardized value)``, sorted by
        absolute contribution, so the intercept plus the sum of the
        second elements is exactly the logit behind
        :meth:`predict_proba`.
        """
        row = np.asarray(features, dtype=np.float64).reshape(-1)
        if row.shape[0] != len(FEATURE_NAMES):
            raise ConfigurationError(
                f"expected {len(FEATURE_NAMES)} features, "
                f"got {row.shape[0]}")
        standardized = (row - self.feature_means) / self.feature_scales
        contributions = standardized * self.weights
        pairs = [(name, float(c))
                 for name, c in zip(FEATURE_NAMES, contributions)]
        return sorted(pairs, key=lambda p: abs(p[1]), reverse=True)


@dataclass(frozen=True)
class TrainResult:
    """A trained model with its training diagnostics."""

    model: LogisticModel
    losses: Tuple[float, ...]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train_classifier(features: np.ndarray, labels: np.ndarray,
                     l2: float = 1e-3, learning_rate: float = 0.5,
                     n_iterations: int = 600) -> TrainResult:
    """Full-batch gradient descent on the regularized log-loss."""
    if features.ndim != 2 or len(features) != len(labels):
        raise ConfigurationError("features/labels shape mismatch")
    if len(np.unique(labels)) < 2:
        raise ConfigurationError("training needs both classes present")
    y = labels.astype(np.float64)
    means = features.mean(axis=0)
    scales = features.std(axis=0)
    scales[scales == 0] = 1.0
    x = (features - means) / scales
    n, d = x.shape
    weights = np.zeros(d)
    intercept = 0.0
    losses: List[float] = []
    for _ in range(n_iterations):
        logits = x @ weights + intercept
        probs = 1.0 / (1.0 + np.exp(-logits))
        eps = 1e-12
        loss = float(
            -np.mean(y * np.log(probs + eps)
                     + (1 - y) * np.log(1 - probs + eps))
            + 0.5 * l2 * float(weights @ weights))
        losses.append(loss)
        gradient_w = x.T @ (probs - y) / n + l2 * weights
        gradient_b = float(np.mean(probs - y))
        weights -= learning_rate * gradient_w
        intercept -= learning_rate * gradient_b
    model = LogisticModel(
        weights=weights, intercept=intercept,
        feature_means=means, feature_scales=scales)
    return TrainResult(model=model, losses=tuple(losses))


def evaluate(model: LogisticModel, features: np.ndarray,
             labels: np.ndarray,
             threshold: float = 0.5) -> Dict[str, float]:
    """Accuracy / precision / recall / F1 on a labeled set."""
    predictions = model.predict(features, threshold)
    actual = labels.astype(bool)
    tp = int(np.sum(predictions & actual))
    fp = int(np.sum(predictions & ~actual))
    fn = int(np.sum(~predictions & actual))
    tn = int(np.sum(~predictions & ~actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {
        "accuracy": (tp + tn) / len(labels),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "n": float(len(labels)),
    }
