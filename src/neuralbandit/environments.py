"""Bandit environments: synthetic reward functions and dataset-derived bandits.

Synthetic rounds draw K contexts uniformly from the unit ball and attach a
hidden reward function; dataset rounds embed one feature vector into K
block-sparse arm contexts (the disjoint model) with 0/1 reward for picking
the true class.  Policies that need it apply the duplicate-and-normalize
preprocessing, which maps any nonzero x to a unit vector whose two halves
coincide.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from neuralbandit.network import check_integer, check_real

__all__ = [
    "sample_unit_ball",
    "preprocess_batch",
    "SyntheticBandit",
    "DatasetBandit",
    "load_csv",
]

SYNTHETIC_KINDS = ("h1", "h2", "h3", "linear")


def sample_unit_ball(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the closed unit ball: Gaussian direction, U^(1/d) radius."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    while True:
        g = rng.standard_normal(d)
        norm = np.linalg.norm(g)
        if norm > 0:
            break
    return (rng.random() ** (1.0 / d) / norm) * g


def preprocess_batch(contexts) -> np.ndarray:
    """Normalize each row to unit length, then stack two copies scaled by 1/sqrt(2).

    Each output row is a unit vector with identical halves, so a
    block-symmetric network evaluates to exactly zero on it at initialization.
    """
    x = np.asarray(contexts, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"contexts must be 2-d, got shape {x.shape}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot preprocess a zero context row")
    unit = x / norms
    return np.concatenate([unit, unit], axis=1) / np.sqrt(2.0)


class SyntheticBandit:
    """K-armed bandit with unit-ball contexts and a hidden reward function.

    Kinds:
        h1      10 * (x . a)^2
        h2      x^T A^T A x
        h3      cos(3 * (x . a))
        linear  x . a

    The secret parameters (a on the unit ball, A with standard normal
    entries) come from `secret_rng` so repetitions can share one reward
    function while drawing independent contexts and noise from `rng`.
    """

    def __init__(self, kind: str, d: int, num_actions: int, noise_scale: float,
                 rng: np.random.Generator, secret_rng: np.random.Generator | None = None):
        if kind not in SYNTHETIC_KINDS:
            raise ValueError(f"unknown reward kind {kind!r}; choose from {SYNTHETIC_KINDS}")
        check_integer("d", d)
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        check_integer("num_actions", num_actions)
        if num_actions < 1:
            raise ValueError(f"num_actions must be >= 1, got {num_actions}")
        check_real("noise_scale", noise_scale)
        if noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
        self.kind = kind
        self.d = d
        self.num_actions = num_actions
        self.noise_scale = noise_scale
        self.rng = rng
        secret = secret_rng if secret_rng is not None else rng
        self.a = sample_unit_ball(d, secret)
        self.a_mat = secret.standard_normal((d, d)) if kind == "h2" else None

    def next_round(self) -> np.ndarray:
        return np.stack([sample_unit_ball(self.d, self.rng)
                         for _ in range(self.num_actions)])

    def mean_rewards(self, contexts) -> np.ndarray:
        x = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        if self.kind == "h1":
            return 10.0 * (x @ self.a) ** 2
        if self.kind == "h2":
            proj = x @ self.a_mat.T
            return np.sum(proj * proj, axis=1)
        if self.kind == "h3":
            return np.cos(3.0 * (x @ self.a))
        return x @ self.a

    def noisy_reward(self, mean: float) -> float:
        return float(mean + self.noise_scale * self.rng.standard_normal())


class DatasetBandit:
    """Classification rows turned into a K-armed bandit via the disjoint model.

    Row features are unit-normalized and placed in arm a's block of a
    length d*k context; choosing the true label pays 1, anything else 0.
    Rows are visited in an order drawn from rng, or in file order when rng is
    None, and the horizon cannot exceed the number of rows.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, num_classes: int,
                 rng: np.random.Generator | None = None):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            bad = int(np.argmax((labels < 0) | (labels >= num_classes)))
            raise ValueError(
                f"label {labels[bad]} at row {bad} is outside [0, {num_classes})"
            )
        norms = np.linalg.norm(features, axis=1)
        zero_rows = np.where(norms == 0.0)[0]
        if zero_rows.size:
            warnings.warn(
                f"{zero_rows.size} zero feature row(s) replaced by the canonical "
                f"unit vector e1 (first at row {int(zero_rows[0])})"
            )
            features = features.copy()
            features[zero_rows, 0] = 1.0
            norms[zero_rows] = 1.0
        self.features = features / norms[:, None]
        self.labels = labels.astype(int)
        self.num_classes = num_classes
        n = features.shape[0]
        self.order = np.arange(n) if rng is None else rng.permutation(n)
        self._cursor = 0

    @property
    def d(self) -> int:
        return self.features.shape[1] * self.num_classes

    @property
    def num_actions(self) -> int:
        return self.num_classes

    def next_round(self) -> np.ndarray:
        if self._cursor >= self.features.shape[0]:
            raise RuntimeError("dataset exhausted; horizon exceeds the number of rows")
        row = self.order[self._cursor]
        self._cursor += 1
        self._current_label = int(self.labels[row])
        x = self.features[row]
        d = x.size
        contexts = np.zeros((self.num_classes, d * self.num_classes))
        for a in range(self.num_classes):
            contexts[a, a * d : (a + 1) * d] = x
        return contexts

    def mean_rewards(self, contexts) -> np.ndarray:
        means = np.zeros(self.num_classes)
        means[self._current_label] = 1.0
        return means

    def noisy_reward(self, mean: float) -> float:
        return float(mean)


@dataclass
class CsvDataset:
    """Parsed classification CSV: numeric features, contiguous class ids."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    label_names: list = field(default_factory=list)


def load_csv(path, label_column: str) -> CsvDataset:
    """Read a header-ed CSV with one label column and numeric features.

    Labels map to contiguous class ids in first-appearance order, and the
    class count is the number observed.  A header with no feature column is
    an error, and so is a non-numeric or non-finite (nan, inf) feature cell,
    named by its row and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if label_column not in header:
            raise ValueError(
                f"{path}: label column {label_column!r} not found in header {header}"
            )
        if len(header) < 2:
            raise ValueError(f"{path}: no feature column besides the label column")
        label_idx = header.index(label_column)
        label_ids: dict[str, int] = {}
        features, labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                )
            vals = []
            for col_idx, cell in enumerate(row):
                if col_idx == label_idx:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: non-numeric or non-finite feature cell at row {row_no}, "
                        f"column {header[col_idx]!r}: {cell!r}"
                    )
                vals.append(value)
            raw_label = row[label_idx]
            if raw_label not in label_ids:
                label_ids[raw_label] = len(label_ids)
            features.append(vals)
            labels.append(label_ids[raw_label])
    observed = len(label_ids)
    if observed < 2:
        raise ValueError(f"{path}: need at least 2 classes, observed {observed}")
    return CsvDataset(
        features=np.asarray(features, dtype=np.float64),
        labels=np.asarray(labels, dtype=int),
        num_classes=observed,
        label_names=list(label_ids),
    )
