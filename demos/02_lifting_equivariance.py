"""A convolution lifted over the rotation group is equivariant by construction.

Block g of the lifted output convolves the input with the base kernel
rotated g times; lifted_conv stacks those rotated kernels into one ordinary
conv, which conv2d_forward runs like any other. Rotating the input then
only permutes and rotates the blocks, which is exactly what the feature
transform does, so the equivariance penalty on this layer is zero up to
float rounding. This is the reference point the regularizer pushes
ordinary layers toward.
"""

import numpy as np

from eqreg import (RotationGroup, build_network, conv2d_forward, exact_mismatch, forward_with_tape,
                   init_weights, lifted_conv)

group = RotationGroup(4)
rng = np.random.default_rng(7)

lifting = lifted_conv(rng.standard_normal((2, 1, 3, 3)), group)
x = rng.standard_normal((1, 1, 12, 12))

lifted = conv2d_forward(x, lifting)
print(f"lifted features: {lifted.shape} (2 base kernels x 4 rotations)")

for k in range(4):
    loss = exact_mismatch(lifted, conv2d_forward(group.rotate_image(x, k), lifting), k, group.feature_transform)
    print(f"  k={k}: layer loss {loss:.3e}")

print("\nfor comparison, a random (unlifted) weight matrix on the same input:")

net = init_weights(build_network(1, 1, group, n_hidden=2, depth=2), seed=1)
_, tp = forward_with_tape(net, x.astype(np.float32))
_, tr = forward_with_tape(net, group.rotate_image(x, 1).astype(np.float32))
print(f"  k=1: layer loss {exact_mismatch(tp.hidden[0], tr.hidden[0], 1, group.feature_transform):.3e}")
