"""Loss terms: masked soft-target focal loss (one `focal` op),
feature-similarity losses (one `featsim` op each), and linear ramp-up
weighting.  The trainer combines a sample's terms with their ramped weights
in one `wsum` op.

Excluded cells are multiplied by an exact zero before any reduction, so a
loss value is bit-insensitive to predictions or targets at excluded cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, forward_op
from .errors import ContractError


@dataclass(frozen=True)
class LossWeights:
    """The focal loss's focusing exponent and positive-class weight."""

    focal_gamma: float = 2.0
    focal_alpha: float = 0.75


class LossMask:
    """Per-class per-cell inclusion mask; excluded cells never reach a loss."""

    __slots__ = ("include",)

    def __init__(self, include: np.ndarray):
        self.include = np.asarray(include, dtype=bool)

    def intersect(self, other: "LossMask") -> "LossMask":
        return LossMask(self.include & other.include)

    @property
    def count(self) -> int:
        return int(self.include.sum())


def focal_loss(p: Tensor, y: np.ndarray, include: np.ndarray,
               gamma: float, alpha: float) -> tuple[Tensor, int]:
    """(mean over the cells of the bool mask `include`, of p's shape, of
    the symmetric soft-target focal term, one `focal` op; the number of
    those cells).  With no cell included: an untaped exact 0 and 0."""
    n = int(include.sum())
    if n == 0:
        return Tensor(np.zeros(())), 0
    return forward_op("focal", p, target=np.asarray(y, dtype=np.float64),
                      include=include, gamma=gamma, alpha=alpha), n


def feature_similarity_loss(z_s: Tensor, z_t: np.ndarray,
                            mode: str = "cosine") -> Tensor:
    """Consistency between student features and constant teacher features.

    mse averages squared differences over all elements; cosine averages
    (1 - cosine similarity) of per-cell channel vectors, with zero-vector
    cells contributing 0 and taking no gradient.  One `featsim` op: the
    tape holds no product of the two maps.  A shape mismatch or an unknown
    mode is a `ConfigurationError`.
    """
    return forward_op("featsim", z_s, Tensor(z_t), mode=mode)


RAMPUP_FRACTION = 1.0 / 3.0   # the share of training a weight ramps over


def rampup_weight(step: int, total_steps: int, base: float) -> float:
    """base * min(1, step / (RAMPUP_FRACTION * total_steps)); `TrainConfig`
    has checked that `total_steps` is at least 1."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return base * min(1.0, step / (RAMPUP_FRACTION * total_steps))

