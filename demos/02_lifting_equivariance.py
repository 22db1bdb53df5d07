"""A convolution lifted over the rotation group is equivariant by construction.

Block g of the lifted output convolves the input with the base kernel
rotated g times. Rotating the input then only permutes and rotates the
blocks, which is exactly what the feature transform does, so the
equivariance penalty on this layer is zero up to float rounding. This is
the reference point the regularizer pushes ordinary layers toward.
"""

import numpy as np

from eqreg import (LiftingConvOracle, RotationGroup, build_network, forward_with_tape,
                   init_weights, layer_loss, lifting_forward)

group = RotationGroup(4)
rng = np.random.default_rng(7)

oracle = LiftingConvOracle(rng.standard_normal((2, 1, 3, 3)), group)
x = rng.standard_normal((1, 1, 12, 12))

lifted = lifting_forward(oracle, x)
print(f"lifted features: {lifted.shape} (2 base kernels x 4 rotations)")

for k in range(4):
    loss = layer_loss(lifted, lifting_forward(oracle, group.rotate_image(x, k)), k, group)
    print(f"  k={k}: layer loss {loss:.3e}")

print("\nfor comparison, a random (unlifted) weight matrix on the same input:")

net = init_weights(build_network(1, 1, group, n_hidden=2, depth=2), seed=1)
_, tp = forward_with_tape(net, x.astype(np.float32))
_, tr = forward_with_tape(net, group.rotate_image(x, 1).astype(np.float32))
print(f"  k=1: layer loss {layer_loss(tp.hidden[0], tr.hidden[0], 1, group):.3e}")
