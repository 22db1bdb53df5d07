"""Equivariance regularization: per-layer and network-wide losses with exact gradients.

For a group element k, each regularization point contributes
||FT_k(h_plain) - h_rot||_F^2 over its element count, where h_plain comes
from the clean-orientation branch, h_rot from the branch fed the k-rotated
input, and FT_k is the feature transform. Gradients flow through both
branches: the rotated side sees -2 D, the plain side the feature-transform
adjoint of 2 D. mismatch computes that block for any action, so the
output-consistency term (spatial rotation only) shares it. exact_mismatch is
its exactly-rounded twin for any action, the oracle that the tests compare
both terms against; equi_loss sums it over the hidden layers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import frobenius_sq


@dataclass(frozen=True)
class EqRegConfig:
    """Knobs of the regularizer.

    Every penalty term is a per-element mean: its squared norm divided by its
    element count. lam scales the equivariance term in the total objective
    and is its only scale. output_consistency adds a rotate-the-output
    penalty, scaled by output_consistency_weight.
    """

    lam: float = 0.1
    output_consistency: bool = False
    output_consistency_weight: float = 1.0

    def __post_init__(self):
        for name in ("lam", "output_consistency_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def sample_k(group, rng):
    """Draw the shared non-identity group element for one training step."""
    return int(rng.integers(1, group.order))


def exact_mismatch(plain, rotated, k, act):
    """||act(plain, k) - rotated||_F^2 over its element count, the exact twin of mismatch.

    act is feature_transform for a hidden feature, rotate_image for the
    output. Exactly-rounded summation, so the value is invariant under
    permutations of the elements (in particular under relabeling by another
    group element).
    """
    if plain.shape != rotated.shape:
        raise ValueError(f"branch shapes differ: {plain.shape} vs {rotated.shape}")
    diff = act(plain, k) - rotated
    return frobenius_sq(diff) / diff.size


def equi_loss(tape_plain, tape_rotated, k, group):
    """Sum of exact_mismatch under the feature transform over all regularization points of the two tapes."""
    if len(tape_plain) != len(tape_rotated):
        raise ValueError(f"tapes record {len(tape_plain)} vs {len(tape_rotated)} points")
    return sum(
        exact_mismatch(hp, hr, k, group.feature_transform)
        for hp, hr in zip(tape_plain.hidden, tape_rotated.hidden)
    )


def total_loss(task, equi, cfg, output_consistency=0.0):
    """task + lam * equi, plus the weighted consistency term when enabled."""
    total = task + cfg.lam * equi
    if cfg.output_consistency:
        total += cfg.output_consistency_weight * output_consistency
    return total


def mismatch(plain, rotated, k, act, act_adjoint, numel, weight=1.0):
    """One comparison D = act(plain, k) - rotated with its gradients.

    act is a group action with act_adjoint its adjoint: rotate_image for the
    output, feature_transform for a hidden feature. The term is weight times
    ||D||^2 / numel, with numel the element count of the whole batch, so
    results of batch chunks add up. Returns the float64-accumulated squared
    sum (fast, not exactly rounded) and the gradients s act*(D) for the plain
    side and -s D for the rotated side, s = weight * 2 / numel.
    """
    d = act(plain, k) - rotated
    sq = float(np.sum(np.square(d, dtype=np.float64)))
    s = weight * (2.0 / numel)
    return sq, act_adjoint(s * d, k), -s * d


def equi_injections(tape_plain, tape_rotated, k, group, numels):
    """Per-layer gradient injections plus fast squared sums for the equi term.

    numels[i] is the element count that layer i's term is averaged over (see
    mismatch). Returns (inject_plain, inject_rotated, sq_sums).
    """
    if len(tape_plain) != len(tape_rotated):
        raise ValueError(f"tapes record {len(tape_plain)} vs {len(tape_rotated)} points")
    inject_plain, inject_rot, sq_sums = [], [], []
    for hp, hr, n in zip(tape_plain.hidden, tape_rotated.hidden, numels, strict=True):
        sq, gp, gr = mismatch(hp, hr, k, group.feature_transform, group.feature_transform_adjoint, n)
        sq_sums.append(sq)
        inject_plain.append(gp)
        inject_rot.append(gr)
    return inject_plain, inject_rot, sq_sums

