import dataclasses
import math

import numpy as np
import pytest

from eqreg.group import RotationGroup
from eqreg.losses import (
    EqRegConfig,
    equi_loss,
    exact_mismatch,
    sample_k,
    total_loss,
)
from eqreg.model import build_network, forward_with_tape, init_weights, network_astype, network_copy
from eqreg.trainer import objective

from naive_ref import frob_sq_pairs

G4 = RotationGroup(4)


def fd_param(loss_fn, net, layer_idx, kind, idx, h=1e-5):
    """Central difference of loss_fn(net) in one conv parameter coordinate."""
    vals = []
    for sign in (+1.0, -1.0):
        dup = network_copy(net)
        arr = getattr(dup.conv_params[layer_idx], kind)
        arr[idx] += sign * h
        vals.append(loss_fn(dup))
    return (vals[0] - vals[1]) / (2.0 * h)


class TestConfig:
    def test_defaults(self):
        cfg = EqRegConfig()
        assert cfg.lam == 0.1 and cfg.output_consistency_weight == 1.0
        assert not cfg.output_consistency
        assert len(dataclasses.fields(EqRegConfig)) == 3

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EqRegConfig(lam=-0.5)
        with pytest.raises(ValueError):
            EqRegConfig(output_consistency_weight=-1.0)
        for name in ("lam", "output_consistency_weight"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    EqRegConfig(**{name: value})


class TestSampleK:
    def test_excludes_identity_by_default(self):
        rng = np.random.default_rng(0)
        ks = {sample_k(G4, rng) for _ in range(200)}
        assert ks == {1, 2, 3}

    def test_deterministic_under_seed(self):
        draw = lambda: [sample_k(G4, np.random.default_rng(7)) for _ in range(5)]
        assert draw() == draw()


class TestLayerLoss:
    def test_matching_pair_is_zero(self):
        h = np.random.default_rng(2).standard_normal((2, 8, 6, 6))
        assert exact_mismatch(h, G4.feature_transform(h, 1), 1, G4.feature_transform) == 0.0

    def test_k_zero_identical_features(self):
        h = np.random.default_rng(3).standard_normal((1, 4, 5, 5))
        assert exact_mismatch(h, h, 0, G4.feature_transform) == 0.0

    def test_matches_pair_oracle_over_numel(self):
        rng = np.random.default_rng(4)
        hp = rng.standard_normal((2, 8, 4, 4))
        hr = rng.standard_normal((2, 8, 4, 4))
        want = frob_sq_pairs(G4.feature_transform(hp, 3), hr) / hp.size
        got = exact_mismatch(hp, hr, 3, G4.feature_transform)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_mean_is_sum_over_numel(self):
        rng = np.random.default_rng(5)
        hp = rng.standard_normal((3, 4, 5, 5))
        hr = rng.standard_normal((3, 4, 5, 5))
        s = frob_sq_pairs(G4.feature_transform(hp, 2), hr)
        m = exact_mismatch(hp, hr, 2, G4.feature_transform)
        assert math.isclose(m, s / hp.size, rel_tol=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            hp = rng.standard_normal((1, 4, 3, 3))
            hr = rng.standard_normal((1, 4, 3, 3))
            assert exact_mismatch(hp, hr, 1, G4.feature_transform) >= 0.0

    def test_invariant_under_joint_transform(self):
        # applying the same extra transform to both sides preserves the
        # mismatch because the action is norm preserving
        rng = np.random.default_rng(7)
        hp = rng.standard_normal((1, 8, 4, 4))
        hr = rng.standard_normal((1, 8, 4, 4))
        base = exact_mismatch(hp, hr, 1, G4.feature_transform)
        # FT_1(FT_1 hp) = FT_2 hp and FT_1 hr shifts the reference the same way
        moved = exact_mismatch(G4.feature_transform(hp, 1), G4.feature_transform(hr, 1), 1, G4.feature_transform)
        assert math.isclose(base, moved, rel_tol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            exact_mismatch(np.zeros((1, 4, 4, 4)), np.zeros((1, 4, 5, 5)), 1, G4.feature_transform)


class TestEquiLoss:
    def net_and_tapes(self, seed, k, size=8):
        net = init_weights(network_astype(build_network(1, 1, G4, n_hidden=2, depth=3), np.float64), seed)
        x = np.random.default_rng(seed + 100).standard_normal((2, 1, size, size))
        _, tp = forward_with_tape(net, x)
        _, tr = forward_with_tape(net, G4.rotate_image(x, k))
        return net, tp, tr

    def test_sums_layer_terms(self):
        _, tp, tr = self.net_and_tapes(10, 1)
        want = sum(exact_mismatch(a, b, 1, G4.feature_transform) for a, b in zip(tp.hidden, tr.hidden))
        assert math.isclose(equi_loss(tp, tr, 1, G4), want, rel_tol=1e-15)

    def test_zero_for_identical_tapes_at_k0(self):
        _, tp, _ = self.net_and_tapes(11, 0)
        assert equi_loss(tp, tp, 0, G4) == 0.0

    def test_tape_length_mismatch_rejected(self):
        net, tp, tr = self.net_and_tapes(12, 1)
        tr.hidden.pop()
        with pytest.raises(ValueError, match="tapes"):
            equi_loss(tp, tr, 1, G4)

    def test_single_hidden_layer_reduces_to_layer_loss(self):
        net = init_weights(network_astype(build_network(1, 1, G4, n_hidden=2, depth=2), np.float64), 40)
        x = np.random.default_rng(41).standard_normal((1, 1, 6, 6))
        _, tp = forward_with_tape(net, x)
        _, tr = forward_with_tape(net, G4.rotate_image(x, 2))
        assert equi_loss(tp, tr, 2, G4) == exact_mismatch(tp.hidden[0], tr.hidden[0], 2, G4.feature_transform)

    def test_matches_fully_independent_recompute(self):
        # transform and norm both recomputed with the loop-based references,
        # no library code on the oracle side
        from naive_ref import feature_transform_indexed

        _, tp, tr = self.net_and_tapes(42, 3)
        want = sum(
            frob_sq_pairs(feature_transform_indexed(a, 3, 4), b) / a.size
            for a, b in zip(tp.hidden, tr.hidden)
        )
        got = equi_loss(tp, tr, 3, G4)
        assert math.isclose(got, want, rel_tol=1e-12)


class TestOutputConsistency:
    def test_zero_when_output_rotates_exactly(self):
        y = np.random.default_rng(13).standard_normal((2, 1, 6, 6))
        assert exact_mismatch(y, G4.rotate_image(y, 1), 1, G4.rotate_image) == 0.0

    def test_constant_images_closed_form(self):
        # rotation leaves constants alone, so the per-element mean is (c1-c2)^2
        y1 = np.full((1, 1, 4, 4), 0.7)
        y2 = np.full((1, 1, 4, 4), 0.2)
        got = exact_mismatch(y1, y2, 1, G4.rotate_image)
        assert math.isclose(got, 0.25, rel_tol=1e-12)

    def test_spatial_only_no_channel_shift(self):
        # multichannel output: consistency rotates pixels but never permutes
        # channels, so a pure channel shift must register as mismatch
        y = np.random.default_rng(14).standard_normal((1, 4, 4, 4))
        shifted = np.roll(y, 1, axis=1)
        assert exact_mismatch(y, shifted, 0, G4.rotate_image) > 0.0


class TestTotalLoss:
    def test_arithmetic(self):
        cfg = EqRegConfig(lam=0.25)
        assert total_loss(2.0, 4.0, cfg) == 2.0 + 0.25 * 4.0

    def test_lambda_zero_is_task_only(self):
        cfg = EqRegConfig(lam=0.0)
        assert total_loss(1.5, 123.0, cfg) == 1.5

    def test_output_consistency_term(self):
        cfg = EqRegConfig(lam=0.5, output_consistency=True, output_consistency_weight=2.0)
        assert total_loss(1.0, 2.0, cfg, output_consistency=3.0) == 1.0 + 0.5 * 2.0 + 2.0 * 3.0


def equi_grads(net, x, k, cfg):
    """objective's gradients of lam * equi: clean is the plain output, so the task term is exactly 0."""
    clean, _ = forward_with_tape(net, x)
    return objective(net, (x, clean), k, cfg)[1]


class TestEquiGradient:
    # "sum" sets lam to each hidden layer's element count (8 channels x 36
    # pixels), so lam * equi is the layers' squared sum
    @pytest.mark.parametrize("lam", [1.0, 288.0], ids=["mean", "sum"])
    def test_finite_difference_on_weights(self, lam):
        # gradient of the regularizer alone, through both branches
        net = init_weights(network_astype(build_network(1, 1, G4, n_hidden=2, depth=3), np.float64), 30)
        x = np.random.default_rng(31).standard_normal((1, 1, 6, 6))
        cfg = EqRegConfig(lam=lam)
        k = 1

        def exact(n):
            _, tp = forward_with_tape(n, x)
            _, tr = forward_with_tape(n, G4.rotate_image(x, k))
            return lam * equi_loss(tp, tr, k, G4)

        grads = equi_grads(net, x, k, cfg)

        rng = np.random.default_rng(32)
        checked = 0
        for li, (gw, gb) in enumerate(grads):
            for _ in range(4):
                idx = tuple(int(rng.integers(0, s)) for s in gw.shape)
                num = fd_param(exact, net, li, "weight", idx)
                ana = gw[idx]
                assert abs(num - ana) <= 1e-6 * max(1.0, abs(num)), (li, idx, num, ana)
                checked += 1
            bidx = (int(rng.integers(0, gb.shape[0])),)
            num = fd_param(exact, net, li, "bias", bidx)
            assert abs(num - gb[bidx]) <= 1e-6 * max(1.0, abs(num))
            checked += 1
        assert checked >= 15

    def test_zero_gradient_when_already_equivariant(self):
        # zero weights give zero features on every layer, so the mismatch and
        # its gradient both vanish
        net = network_astype(build_network(1, 1, G4, n_hidden=2, depth=3), np.float64)
        x = np.random.default_rng(33).standard_normal((1, 1, 6, 6))
        grads = equi_grads(net, x, 1, EqRegConfig(lam=1.0))
        assert all(not gw.any() and not gb.any() for gw, gb in grads)
