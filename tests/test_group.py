import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.ndimage

from eqreg.group import RotationGroup
from eqreg.tensor import frobenius_sq

from naive_ref import feature_transform_indexed, rot90_indexed


def rand_feature(rng, order, max_b=2, max_n=4, max_side=16, dtype=np.float32):
    b = int(rng.integers(1, max_b + 1))
    n = int(rng.integers(1, max_n + 1))
    s = int(rng.integers(1, max_side + 1))
    return rng.standard_normal((b, order * n, s, s)).astype(dtype)


class TestRotateImage:
    def test_identity(self):
        g = RotationGroup(4)
        x = np.random.default_rng(0).standard_normal((1, 2, 5, 5))
        np.testing.assert_array_equal(g.rotate_image(x, 0), x)

    def test_quarter_turn_example(self):
        # counterclockwise: out[i][j] = in[j][W-1-i]
        g = RotationGroup(4)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        want = np.array([[[[2.0, 4.0], [1.0, 3.0]]]])
        np.testing.assert_array_equal(g.rotate_image(x, 1), want)

    def test_four_quarter_turns_identity(self):
        g = RotationGroup(4)
        x = np.random.default_rng(1).standard_normal((2, 3, 7, 7)).astype(np.float32)
        y = x
        for _ in range(4):
            y = g.rotate_image(y, 1)
        np.testing.assert_array_equal(y, x)

    def test_matches_index_reference(self):
        g = RotationGroup(4)
        rng = np.random.default_rng(2)
        for k in range(4):
            x = rng.standard_normal((2, 3, 6, 6))
            np.testing.assert_array_equal(g.rotate_image(x, k), rot90_indexed(x, k))

    def test_half_turn_group(self):
        g = RotationGroup(2)
        x = np.random.default_rng(3).standard_normal((1, 1, 4, 4))
        np.testing.assert_array_equal(g.rotate_image(x, 1), rot90_indexed(x, 2))

    def test_non_square_rejected(self):
        g = RotationGroup(4)
        with pytest.raises(ValueError, match="square"):
            g.rotate_image(np.zeros((1, 1, 4, 5)), 1)

    def test_k_out_of_range_rejected(self):
        g = RotationGroup(4)
        x = np.zeros((1, 1, 4, 4))
        for bad in (-1, 4, 7):
            with pytest.raises(ValueError, match="reduce mod"):
                g.rotate_image(x, bad)

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError, match="order"):
            RotationGroup(1)

    def test_quarter_turns_inside_interpolated_group_are_exact(self):
        # t=8, k=2 is a 90-degree turn and must bypass interpolation
        g = RotationGroup(8)
        x = np.random.default_rng(4).standard_normal((1, 2, 9, 9))
        np.testing.assert_array_equal(g.rotate_image(x, 2), rot90_indexed(x, 1))

    def test_interpolated_against_scipy(self):
        # independent bilinear oracle: same center and direction, order-1
        # spline; compare away from the rim where fill conventions differ
        g = RotationGroup(8)
        x = np.random.default_rng(5).standard_normal((1, 1, 17, 17))
        got = g.rotate_image(x, 1)
        want = scipy.ndimage.rotate(
            x[0, 0], 45.0, reshape=False, order=1, mode="constant", cval=0.0, prefilter=False
        )
        np.testing.assert_allclose(got[0, 0, 5:12, 5:12], want[5:12, 5:12], atol=1e-12)

    def test_interpolated_values_finite_and_bounded(self):
        g = RotationGroup(3)
        x = np.random.default_rng(6).random((2, 1, 12, 12))
        y = g.rotate_image(x, 1)
        assert np.isfinite(y).all()
        # convex interpolation of values in [0, 1] with zero fill stays in [0, 1]
        assert y.min() >= -1e-12 and y.max() <= 1.0 + 1e-12


class TestCyclicShift:
    def test_zero_shift(self):
        g = RotationGroup(4)
        f = np.random.default_rng(7).standard_normal((1, 8, 3, 3))
        np.testing.assert_array_equal(g.cyclic_shift(f, 0), f)

    def test_block_relabel(self):
        g = RotationGroup(4)
        # one channel per block, constant value g: block b of the output must
        # hold value (b - 1) mod 4 after a shift by 1
        f = np.stack([np.full((5, 5), float(i)) for i in range(4)])[None]
        out = g.cyclic_shift(f, 1)
        np.testing.assert_array_equal(out[0, :, 0, 0], [3.0, 0.0, 1.0, 2.0])

    def test_round_trip(self):
        g = RotationGroup(4)
        rng = np.random.default_rng(8)
        f = rand_feature(rng, 4)
        for m in range(4):
            back = g.cyclic_shift(g.cyclic_shift(f, m), (4 - m) % 4)
            np.testing.assert_array_equal(back, f)

    def test_indivisible_channels_rejected(self):
        g = RotationGroup(4)
        with pytest.raises(ValueError, match="divisible"):
            g.cyclic_shift(np.zeros((1, 6, 3, 3)), 1)


class TestFeatureTransform:
    def test_identity_element(self):
        g = RotationGroup(4)
        f = rand_feature(np.random.default_rng(9), 4)
        np.testing.assert_array_equal(g.feature_transform(f, 0), f)

    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_index_reference(self, order):
        g = RotationGroup(order)
        rng = np.random.default_rng(10 + order)
        for _ in range(20):
            f = rand_feature(rng, order)
            for k in range(order):
                np.testing.assert_array_equal(
                    g.feature_transform(f, k), feature_transform_indexed(f, k, order)
                )

    def test_constant_blocks_closed_form(self):
        # constant fields are rotation-invariant, so only the channel shift
        # acts: block g of the output carries the constant of block (g-k) % t
        g = RotationGroup(4)
        f = np.zeros((1, 4 * 2, 5, 5))
        for b in range(4):
            f[:, 2 * b : 2 * b + 2] = float(b)
        out = g.feature_transform(f, 1)
        got = [out[0, 2 * b, 0, 0] for b in range(4)]
        assert got == [3.0, 0.0, 1.0, 2.0]

    def test_group_action_laws_random(self):
        g = RotationGroup(4)
        rng = np.random.default_rng(12)
        for _ in range(200):
            f = rand_feature(rng, 4)
            k1 = int(rng.integers(0, 4))
            k2 = int(rng.integers(0, 4))
            lhs = g.feature_transform(g.feature_transform(f, k1), k2)
            rhs = g.feature_transform(f, (k1 + k2) % 4)
            np.testing.assert_array_equal(lhs, rhs)
            inv = g.feature_transform(g.feature_transform(f, k1), (4 - k1) % 4)
            np.testing.assert_array_equal(inv, f)

    def test_norm_preserved_exactly(self):
        g = RotationGroup(4)
        rng = np.random.default_rng(13)
        for _ in range(50):
            f = rand_feature(rng, 4)
            k = int(rng.integers(0, 4))
            assert frobenius_sq(g.feature_transform(f, k)) == frobenius_sq(f)

    def test_half_turn_involution(self):
        g = RotationGroup(2)
        f = rand_feature(np.random.default_rng(14), 2)
        np.testing.assert_array_equal(g.feature_transform(g.feature_transform(f, 1), 1), f)


class TestAdjoint:
    @pytest.mark.parametrize("order", [2, 4])
    def test_inner_product_identity_exact(self, order):
        import math

        g = RotationGroup(order)
        rng = np.random.default_rng(15 + order)
        for _ in range(30):
            f = rand_feature(rng, order, dtype=np.float64)
            y = rng.standard_normal(f.shape)
            k = int(rng.integers(0, order))
            # permutations reorder the same multiset of products, so exact
            # summation gives exact equality
            lhs = math.fsum((g.feature_transform(f, k) * y).ravel().tolist())
            rhs = math.fsum((f * g.feature_transform_adjoint(y, k)).ravel().tolist())
            assert lhs == rhs

    def test_inner_product_identity_interpolated(self):
        g = RotationGroup(8)
        rng = np.random.default_rng(16)
        worst = 0.0
        for _ in range(30):
            f = rng.standard_normal((1, 8, 11, 11))
            y = rng.standard_normal(f.shape)
            k = int(rng.integers(0, 8))
            lhs = np.vdot(g.feature_transform(f, k), y)
            rhs = np.vdot(f, g.feature_transform_adjoint(y, k))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        assert worst < 1e-10

    def test_adjoint_inverts_exact_transform(self):
        g = RotationGroup(4)
        f = rand_feature(np.random.default_rng(17), 4)
        for k in range(4):
            np.testing.assert_array_equal(g.feature_transform_adjoint(g.feature_transform(f, k), k), f)

    def test_zero_maps_to_zero(self):
        g = RotationGroup(8)
        z = np.zeros((1, 8, 6, 6))
        assert not g.feature_transform_adjoint(z, 3).any()

    def test_image_adjoint_matches_plan_transpose(self):
        g = RotationGroup(8)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((1, 1, 10, 10))
        y = rng.standard_normal((1, 1, 10, 10))
        lhs = np.vdot(g.rotate_image(x, 1), y)
        rhs = np.vdot(x, g.rotate_image_adjoint(y, 1))
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


SCIPY_PROBE = """
import sys
import numpy as np
from eqreg.data import make_dataset
from eqreg.group import RotationGroup
from eqreg.model import build_network, init_weights
from eqreg.trainer import TrainConfig, init_state, measure_equivariance, train_step

ds = make_dataset("denoise", 4, seed=0)
net = init_weights(build_network(1, 1, RotationGroup(4), n_hidden=2, depth=2), 0)
cfg = TrainConfig(steps=1, batch_size=4)
train_step(init_state(net, cfg), (ds.inputs(), ds.clean), cfg)
measure_equivariance(net, ds)
print("c4", "scipy" in sys.modules)
x = np.arange(16.0).reshape(1, 1, 4, 4)
RotationGroup(8).rotate_image(x, 1)
print("c8", "scipy" in sys.modules)
"""


def test_scipy_loads_only_for_interpolated_rotations():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", SCIPY_PROBE], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["c4 False", "c8 True"]
