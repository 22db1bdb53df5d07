"""Rotation-equivariance regularization for plain restoration CNNs.

Submodules import lazily so the CLI can pin BLAS thread environment variables
before numpy first loads.
"""

_EXPORTS = {
    # tensor
    "ConvParams": "tensor",
    "EqtFormatError": "tensor",
    "as_tensor4": "tensor",
    "conv2d_forward": "tensor",
    "conv2d_backward": "tensor",
    "relu_forward": "tensor",
    "relu_backward": "tensor",
    "frobenius_sq": "tensor",
    "write_tensor": "tensor",
    "read_tensor": "tensor",
    "save_tensor": "tensor",
    "load_tensor": "tensor",
    # group
    "RotationGroup": "group",
    # model
    "Network": "model",
    "Tape": "model",
    "forward_with_tape": "model",
    "backprop": "model",
    "build_network": "model",
    "init_weights": "model",
    "network_copy": "model",
    "network_astype": "model",
    "lifted_conv": "model",
    "describe_architecture": "model",
    "save_checkpoint": "model",
    "load_checkpoint": "model",
    # losses
    "EqRegConfig": "losses",
    "sample_k": "losses",
    "exact_mismatch": "losses",
    "equi_loss": "losses",
    "total_loss": "losses",
    "equi_injections": "losses",
    # data
    "Dataset": "data",
    "NetpbmError": "data",
    "ShardError": "data",
    "sample_shapes": "data",
    "render_scene": "data",
    "generate_clean": "data",
    "degrade": "data",
    "make_dataset": "data",
    "load_image": "data",
    "save_image": "data",
    "write_shard": "data",
    "read_shard": "data",
    # trainer
    "TrainConfig": "trainer",
    "TrainState": "trainer",
    "AdamState": "trainer",
    "NumericsError": "trainer",
    "EquivReport": "trainer",
    "psnr": "trainer",
    "adam_update": "trainer",
    "init_state": "trainer",
    "objective": "trainer",
    "train_step": "trainer",
    "train": "trainer",
    "evaluate": "trainer",
    "measure_equivariance": "trainer",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
