"""Cyclic rotation group C_t acting on images and on group-structured features.

A group feature is a rank-4 tensor whose channel axis holds t contiguous
blocks of n channels each (flat channel c = g * n + j for block g). The image
action rotates the spatial axes counterclockwise by 2*pi*k/t; the feature
action additionally shifts the channel blocks cyclically so block g of the
output is the rotated block (g - k) mod t of the input.

Quarter-turn angles are exact axis permutations. All other angles go through
a cached sparse bilinear resampling matrix (float64, zero outside the grid);
its adjoint is the exact matrix transpose.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import as_tensor4


def _build_plan(side, theta):
    """Sparse (side^2, side^2) bilinear rotation about the grid center."""
    import scipy.sparse as sp  # only non-quarter-turn rotations need it; it is slow to import

    c = (side - 1) / 2.0
    cos, sin = math.cos(theta), math.sin(theta)
    idx = np.arange(side, dtype=np.float64)
    u = (idx - c)[:, None]  # output row offset
    v = (idx - c)[None, :]  # output col offset
    ys = (cos * u + sin * v + c).ravel()
    xs = (-sin * u + cos * v + c).ravel()

    y0 = np.floor(ys)
    x0 = np.floor(xs)
    dy = ys - y0
    dx = xs - x0
    rows_out = np.arange(side * side)

    rows, cols, vals = [], [], []
    for oy, ox, wgt in (
        (0, 0, (1 - dy) * (1 - dx)),
        (0, 1, (1 - dy) * dx),
        (1, 0, dy * (1 - dx)),
        (1, 1, dy * dx),
    ):
        yy = y0 + oy
        xx = x0 + ox
        ok = (yy >= 0) & (yy < side) & (xx >= 0) & (xx < side) & (wgt != 0)
        rows.append(rows_out[ok])
        cols.append((yy[ok] * side + xx[ok]).astype(np.int64))
        vals.append(wgt[ok])
    plan = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(side * side, side * side),
    ).tocsr()
    return plan


@functools.cache
def _plan_pair(side, order, k):
    """(csr, csr_transpose) for rotation k of C_order on a side x side grid."""
    plan = _build_plan(side, 2.0 * math.pi * k / order)
    return plan, plan.T.tocsr()


def _apply_plan(plan, x):
    """The plan on every image of x, as one product with a contiguous (H*W, B*C) float64 copy."""
    side = x.shape[-1]
    cols = np.ascontiguousarray(x.reshape(-1, side * side).T, dtype=np.float64)
    return np.ascontiguousarray((plan @ cols).T, dtype=x.dtype).reshape(x.shape)


@dataclass(frozen=True)
class RotationGroup:
    """Cyclic group of planar rotations by multiples of 2*pi/order."""

    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"group order must be >= 2, got {self.order}")

    @property
    def exact(self):
        """True when every element is an exact grid permutation."""
        return self.order in (2, 4)

    def _check_k(self, k):
        if not 0 <= k < self.order:
            raise ValueError(f"group element {k} outside [0, {self.order}); reduce mod {self.order} first")

    def _check_square(self, x, name="x"):
        x = as_tensor4(x, name)
        if x.shape[2] != x.shape[3]:
            raise ValueError(f"{name} must be spatially square, got {x.shape[2]}x{x.shape[3]}")
        return x

    def blocks(self, f):
        """View of f as (B, order, n, H, W); channel count must divide."""
        f = as_tensor4(f, "f")
        if f.shape[1] % self.order != 0:
            raise ValueError(f"{f.shape[1]} channels not divisible by group order {self.order}")
        b, c, h, w = f.shape
        return f.reshape(b, self.order, c // self.order, h, w)

    def rotate_image(self, x, k):
        """Counterclockwise rotation of the spatial axes by 2*pi*k/order."""
        return self._rotate(x, k, adjoint=False)

    def rotate_image_adjoint(self, x, k):
        """Adjoint of rotate_image under the Frobenius inner product.

        Exact inverse rotation for quarter turns; matrix transpose of the
        resampling plan otherwise (not itself a rotation).
        """
        return self._rotate(x, k, adjoint=True)

    def _rotate(self, x, k, adjoint):
        x = self._check_square(x)
        self._check_k(k)
        quarters, rem = divmod(4 * k, self.order)
        if rem == 0:
            return np.ascontiguousarray(np.rot90(x, -quarters if adjoint else quarters, axes=(-2, -1)))
        plan, plan_t = _plan_pair(x.shape[-1], self.order, k)
        return _apply_plan(plan_t if adjoint else plan, x)

    def cyclic_shift(self, f, m):
        """Shift channel blocks so out block g = in block (g - m) mod order."""
        self._check_k(m)
        blocks = self.blocks(f)
        b, _, n, h, w = blocks.shape
        shifted = np.roll(blocks, m, axis=1)
        return np.ascontiguousarray(shifted).reshape(b, self.order * n, h, w)

    def feature_transform(self, f, k):
        """Action of element k on a group feature: block shift then rotation."""
        return self.rotate_image(self.cyclic_shift(f, k), k)

    def feature_transform_adjoint(self, f, k):
        """Adjoint of feature_transform; exact inverse for quarter turns."""
        g = self.rotate_image_adjoint(f, k)
        return self.cyclic_shift(g, (self.order - k) % self.order)
