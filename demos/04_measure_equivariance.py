"""What the equivariance meter reports, on three very different networks.

e_out compares restoring a rotated image against rotating the restored one;
e_feat does the analogous comparison per hidden layer using the full
feature transform. Both are relative Frobenius errors averaged over a
dataset, reported per rotation k.
"""

import numpy as np

from eqreg import (ConvParams, Network, RotationGroup, build_network, init_weights, lifted_conv,
                   make_dataset, measure_equivariance)

group = RotationGroup(4)
data = make_dataset("denoise", 16, seed=5, sigma=0.1)


def show(name, report):
    print(f"{name}:")
    print(f"  e_out  mean {report.e_out_mean:.4g}  per k: "
          + "  ".join(f"{k}:{v:.4g}" for k, v in sorted(report.output_errors.items())))
    print(f"  e_feat mean {report.e_feat_mean:.4g}")
    header, rows = report.csv_rows()
    print(f"  csv columns: {header}")


# the zero-initialized residual net is the identity map, which commutes
# with rotation exactly
identity = build_network(1, 1, group)
show("identity (zero weights, residual)", measure_equivariance(identity, data))

# randomly initialized weights are nowhere near equivariant
random_net = init_weights(build_network(1, 1, group), seed=3)
show("\nrandom init", measure_equivariance(random_net, data))

# a lifted convolution is exactly equivariant in its features: as the first
# conv of a residual net, with a zero last conv, the hidden map is the lift
# and the output is the input
lifting = lifted_conv(np.random.default_rng(4).standard_normal((2, 1, 3, 3)), group)
width = lifting.out_channels  # 2 base kernels x 4 rotations
lifted = Network([lifting, ConvParams(np.zeros((1, width, 3, 3)), np.zeros(1))], group, n_hidden=2)
rep = measure_equivariance(lifted, data)
show("\nlifted convolution", rep)
print(f"  (feature errors at float rounding: {max(max(v) for v in rep.feature_errors.values()):.2e})")
