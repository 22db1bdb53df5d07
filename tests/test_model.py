import struct

import numpy as np
import pytest

from eqreg.group import RotationGroup
from eqreg.model import (
    Network,
    backprop,
    build_network,
    describe_architecture,
    forward_with_tape,
    init_weights,
    lifted_conv,
    load_checkpoint,
    network_astype,
    network_copy,
    save_checkpoint,
)
from eqreg.tensor import ConvParams, EqtFormatError, conv2d_forward, frobenius_sq, write_tensor

G4 = RotationGroup(4)


def conv(cin, cout):
    return ConvParams(np.zeros((cout, cin, 3, 3)), np.zeros(cout))


def write_descriptor(path, desc):
    raw = desc.encode("ascii")
    path.write_bytes(struct.pack("<I", len(raw)) + raw)
    return path


def small_net(seed=0, depth=3, n_hidden=2, in_ch=1, out_ch=1, residual=True, dtype=np.float32):
    net = network_astype(build_network(in_ch, out_ch, G4, n_hidden=n_hidden, depth=depth, residual=residual), dtype)
    return init_weights(net, seed)


class TestForward:
    def test_zero_weights_residual_is_identity(self):
        net = build_network(1, 1, G4, n_hidden=2, depth=3)
        x = np.random.default_rng(0).standard_normal((2, 1, 8, 8)).astype(np.float32)
        out, tape = forward_with_tape(net, x)
        np.testing.assert_array_equal(out, x)
        assert all(not h.any() for h in tape.hidden)

    def test_single_identity_conv(self):
        params = ConvParams(np.ones((1, 1, 1, 1), dtype=np.float64), np.zeros(1))
        net = Network([params], G4, n_hidden=2, residual=False)
        x = np.random.default_rng(1).standard_normal((1, 1, 5, 5))
        out, tape = forward_with_tape(net, x)
        np.testing.assert_array_equal(out, x)
        assert len(tape) == 0

    def test_tape_records_all_points(self):
        net = small_net(depth=4)
        x = np.random.default_rng(2).standard_normal((1, 1, 6, 6)).astype(np.float32)
        out, tape = forward_with_tape(net, x)
        assert len(tape) == 3 == net.n_hidden_layers
        assert tape.pre_activations is tape.hidden
        assert tape.input is x

    def test_tape_consistent_with_manual_recompute(self):
        net = small_net(seed=5)
        x = np.random.default_rng(3).standard_normal((2, 1, 7, 7)).astype(np.float32)
        out, tape = forward_with_tape(net, x)
        last = conv2d_forward(tape.hidden[-1], net.conv_params[-1])
        np.testing.assert_array_equal(out, last + x)

    def test_wrong_input_channels_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="channels"):
            forward_with_tape(net, np.zeros((1, 3, 8, 8), dtype=np.float32))


class TestNetworkValidation:
    def test_channel_chain_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Network([conv(1, 8), conv(4, 1)], G4, n_hidden=2)

    def test_hidden_width_must_be_multiple_of_order(self):
        with pytest.raises(ValueError, match="n_hidden"):
            Network([conv(1, 6), conv(6, 1)], G4, n_hidden=2)

    def test_zero_width_rejected(self):
        # n_hidden 0 used to build empty convs and fail inside init_weights
        with pytest.raises(ValueError, match="n_hidden must be"):
            build_network(1, 1, G4, n_hidden=0)
        for convs in ([conv(1, 0), conv(0, 1)], [conv(0, 1)]):
            with pytest.raises(ValueError, match="at least one input"):
                Network(convs, G4, n_hidden=1, residual=False)

    def test_alternation_enforced(self, tmp_path):
        # a conv list is always an alternating stack; descriptors on disk are
        # where a non-alternating one can still appear
        for layers in (
            "conv:1:8:3,conv:8:1:3",
            "conv:1:8:3,relu,conv:8:1:3,relu",
            "relu,conv:1:8:3,relu,conv:8:1:3",
            "conv:1:8:3,relu,relu,conv:8:1:3",
        ):
            path = write_descriptor(tmp_path / "net.eqnet", f"eqnet1 order=4 n_hidden=2 residual=1 layers={layers}")
            with pytest.raises(EqtFormatError, match="alternate"):
                load_checkpoint(path)

    def test_residual_needs_enough_input_channels(self):
        with pytest.raises(ValueError, match="residual"):
            Network([conv(1, 3)], G4, n_hidden=2, residual=True)

    def test_unknown_layer_token_rejected(self, tmp_path):
        for layers in ("conv:1:8:3,relu,pool:8:1:3", "conv:1:8:3,relu,pool", ""):
            path = write_descriptor(tmp_path / "net.eqnet", f"eqnet1 order=4 n_hidden=2 residual=1 layers={layers}")
            with pytest.raises(EqtFormatError, match="malformed"):
                load_checkpoint(path)


class TestInit:
    def test_same_seed_same_bits(self):
        a, b = small_net(seed=7), small_net(seed=7)
        for pa, pb in zip(a.conv_params, b.conv_params):
            assert pa.weight.tobytes() == pb.weight.tobytes()

    def test_different_seed_differs(self):
        a, b = small_net(seed=7), small_net(seed=8)
        assert any(pa.weight.tobytes() != pb.weight.tobytes() for pa, pb in zip(a.conv_params, b.conv_params))

    def test_bias_starts_zero(self):
        net = small_net(seed=9)
        assert all(not p.bias.any() for p in net.conv_params)

    def test_uniform_bounds_and_variance(self):
        # uniform(-a, a) has variance a^2 / 3; over 1e5 draws the sample
        # variance lands well within 5%
        net = init_weights(network_astype(build_network(48, 48, G4, n_hidden=64, depth=2, kernel_size=3), np.float64), 11)
        w = net.conv_params[0].weight  # 256 * 48 * 9 = 110592 draws
        a = np.sqrt(1.0 / (48 * 9))
        assert abs(w).max() <= a
        assert abs(w.var() - a * a / 3.0) < 0.05 * a * a / 3.0

    def test_copy_is_deep(self):
        net = small_net(seed=1)
        dup = network_copy(net)
        dup.conv_params[0].weight[0, 0, 0, 0] += 1.0
        assert net.conv_params[0].weight[0, 0, 0, 0] != dup.conv_params[0].weight[0, 0, 0, 0]


class TestLifting:
    def test_equivariance_identity(self):
        # block structure makes the lifted map exactly equivariant: the
        # feature transform of the lift equals the lift of the rotated input
        rng = np.random.default_rng(12)
        for _ in range(10):
            lifted = lifted_conv(rng.standard_normal((2, 1, 3, 3)), G4)
            x = rng.standard_normal((2, 1, 8, 8))
            lift = conv2d_forward(x, lifted)
            for k in range(4):
                lhs = G4.feature_transform(lift, k)
                rhs = conv2d_forward(G4.rotate_image(x, k), lifted)
                num = frobenius_sq(lhs - rhs)
                assert num / max(frobenius_sq(lift), 1e-300) < 1e-20

    def test_zero_input(self):
        out = conv2d_forward(np.zeros((1, 2, 6, 6)), lifted_conv(np.ones((3, 2, 3, 3)), G4))
        assert out.shape == (1, 12, 6, 6) and not out.any()

    def test_isotropic_kernel_gives_equal_blocks(self):
        # a cross-shaped kernel is invariant under quarter turns, so all four
        # lifted blocks coincide
        w = np.zeros((1, 1, 3, 3))
        w[0, 0] = [[0, 1, 0], [1, 2, 1], [0, 1, 0]]
        x = np.random.default_rng(13).standard_normal((1, 1, 5, 5))
        out = conv2d_forward(x, lifted_conv(w, G4))
        for g in range(1, 4):
            np.testing.assert_array_equal(out[:, g], out[:, 0])

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 1, 3, 5), (2, 1, 4, 4)], ids=["rank3", "non-square", "even"])
    def test_refuses_kernels_a_conv_refuses(self, shape):
        with pytest.raises(ValueError):
            lifted_conv(np.ones(shape), G4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_kernel_dtype(self, dtype):
        lifted = lifted_conv(np.ones((2, 1, 3, 3), dtype), G4)
        assert lifted.weight.dtype == lifted.bias.dtype == dtype
        assert lifted.weight.shape == (8, 1, 3, 3) and not lifted.bias.any()


class TestBackpropPlumbing:
    def test_no_gradient_sources_gives_zeros(self):
        net = small_net(seed=2)
        x = np.random.default_rng(16).standard_normal((1, 1, 6, 6)).astype(np.float32)
        _, tape = forward_with_tape(net, x)
        grads = backprop(net, tape)
        assert all(not gw.any() and not gb.any() for gw, gb in grads)

    def test_first_conv_skips_grad_x(self, monkeypatch):
        from eqreg import model

        calls = []
        real = model.conv2d_backward

        def recording(x, params, grad_out, need_grad_x=True):
            calls.append(need_grad_x)
            return real(x, params, grad_out, need_grad_x=need_grad_x)

        monkeypatch.setattr(model, "conv2d_backward", recording)
        net = small_net(seed=2)
        x = np.random.default_rng(18).standard_normal((2, 1, 6, 6)).astype(np.float32)
        out, tape = forward_with_tape(net, x)
        backprop(net, tape, grad_output=np.ones_like(out))
        assert calls == [True, True, False]  # reverse layer order; layer 0 last

    def test_hidden_grads_length_checked(self):
        net = small_net(seed=2)
        x = np.random.default_rng(17).standard_normal((1, 1, 6, 6)).astype(np.float32)
        _, tape = forward_with_tape(net, x)
        with pytest.raises(ValueError, match="hidden grads"):
            backprop(net, tape, hidden_grads=[np.zeros(1)])


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        net = small_net(seed=21)
        path = tmp_path / "net.eqnet"
        save_checkpoint(path, net)
        back = load_checkpoint(path)
        assert describe_architecture(back) == describe_architecture(net)
        for pa, pb in zip(net.conv_params, back.conv_params):
            assert pa.weight.tobytes() == pb.weight.tobytes()
            assert pa.bias.tobytes() == pb.bias.tobytes()

    def test_float64_weights_roundtrip(self, tmp_path):
        net = network_astype(small_net(seed=3), np.float64)
        path = tmp_path / "net64.eqnet"
        save_checkpoint(path, net)
        back = load_checkpoint(path)
        assert back.conv_params[0].weight.dtype == np.float64

    def test_architecture_mismatch_rejected(self, tmp_path):
        path = tmp_path / "net.eqnet"
        save_checkpoint(path, small_net(seed=4, depth=3))
        with pytest.raises(EqtFormatError, match="architecture"):
            load_checkpoint(path, expect=small_net(seed=4, depth=2))

    def test_corrupt_descriptor_rejected(self, tmp_path):
        path = tmp_path / "bad.eqnet"
        path.write_bytes(b"\x05\x00\x00\x00junk!")
        with pytest.raises(EqtFormatError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        net = small_net(seed=5)
        path = tmp_path / "net.eqnet"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(EqtFormatError):
            load_checkpoint(path)

    def test_huge_declared_conv_allocates_nothing(self, tmp_path):
        # the descriptor alone declares a 1.3 TiB weight; the loader must refuse
        # the missing tensor instead of allocating the declared shape
        path = write_descriptor(tmp_path / "huge.eqnet", "eqnet1 order=4 n_hidden=2 residual=1 layers=conv:200000:200000:3")
        with pytest.raises(EqtFormatError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layers, match", [
        ("conv:1:8:3,relu,conv:4:1:3", "mismatch"),
        ("conv:1:6:3,relu,conv:6:1:3", "n_hidden"),
        ("conv:1:1:2", "odd"),
        ("conv:1:0:3,relu,conv:0:1:3", "at least one input"),
    ])
    def test_invalid_network_rejected(self, tmp_path, layers, match):
        # with and without the tensors the descriptor declares
        desc = f"eqnet1 order=4 n_hidden=2 residual=1 layers={layers}"
        bare = write_descriptor(tmp_path / "bare.eqnet", desc)
        full = tmp_path / "full.eqnet"
        with open(full, "wb") as fp:
            fp.write(bare.read_bytes())
            for token in layers.split(",")[::2]:
                cin, cout, p = (int(v) for v in token.split(":")[1:])
                write_tensor(fp, np.zeros((cout, cin, p, p), dtype=np.float32))
                write_tensor(fp, np.zeros(cout, dtype=np.float32))
        with pytest.raises(EqtFormatError):
            load_checkpoint(bare)
        with pytest.raises(EqtFormatError, match=match):
            load_checkpoint(full)

    @pytest.mark.parametrize("kind, value", [("weight", np.nan), ("bias", -np.inf)])
    def test_non_finite_parameter_rejected(self, tmp_path, kind, value):
        # training never writes one, so a non-finite value means a damaged file
        net = small_net(seed=8)
        getattr(net.conv_params[1], kind)[0] = value
        path = tmp_path / "net.eqnet"
        save_checkpoint(path, net)
        with pytest.raises(EqtFormatError, match="non-finite"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "net.eqnet"
        save_checkpoint(path, small_net(seed=9))
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(EqtFormatError, match="after its last tensor"):
            load_checkpoint(path)

    @pytest.mark.parametrize("desc", [
        "eqnet1 order=4 n_hidden=2 residual=2 layers=conv:1:8:3,relu,conv:8:1:3",
        "eqnet1 order=4 n_hidden=2 residual=-1 layers=conv:1:8:3,relu,conv:8:1:3",
        "eqnet1 order=4 n_hidden=2 residual=1 layers=conv:1:8:3,relu,conv:8:1:3 extra=5",
        "eqnet1 order=8 order=4 n_hidden=2 residual=1 layers=conv:1:8:3,relu,conv:8:1:3",
    ], ids=["residual-2", "residual-minus-1", "unknown-key", "repeated-key"])
    def test_non_canonical_descriptor_rejected(self, tmp_path, desc):
        # each builds a valid network, but save_checkpoint never writes it
        path = write_descriptor(tmp_path / "net.eqnet", desc)
        with open(path, "ab") as fp:
            for cin, cout in ((1, 8), (8, 1)):
                write_tensor(fp, np.zeros((cout, cin, 3, 3), dtype=np.float32))
                write_tensor(fp, np.zeros(cout, dtype=np.float32))
        with pytest.raises(EqtFormatError, match="save_checkpoint writes"):
            load_checkpoint(path)

    def test_descriptor_bytes_pinned(self, tmp_path):
        want = b"eqnet1 order=4 n_hidden=2 residual=1 layers=conv:1:8:3,relu,conv:8:8:3,relu,conv:8:1:3"
        path = tmp_path / "net.eqnet"
        save_checkpoint(path, build_network(1, 1, G4, n_hidden=2, depth=3))
        assert path.read_bytes()[: 4 + len(want)] == struct.pack("<I", len(want)) + want

    def test_residual_flag_persisted(self, tmp_path):
        net = small_net(seed=6, residual=False)
        path = tmp_path / "net.eqnet"
        save_checkpoint(path, net)
        assert load_checkpoint(path).residual is False
