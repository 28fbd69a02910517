"""Designing M-message strategic quantizers at several privacy weights.

Each theta node gets its own boundary row.  At lam = 0 the encoder pools
theta into its target, so rows differ a lot and the decoder suffers; as lam
grows the rows collapse onto the non-strategic Lloyd-Max splits and the
decoder recovers the fully-revealing distortion.

Each design is one descent from the closed-form equilibrium quantizer, the
Lloyd-Max quantizer of X + alpha* theta.  Uses a 9-node grid so the demo
runs in seconds; the acceptance suite covers the full 17-node configuration.
"""

import numpy as np

from strategiq import lloyd_max, make_source, make_theta_grid, max_kl, multistart

source = make_source(1.0, 1.0, 0.0)
grid = make_theta_grid(source, 9)
M = 2

lm = lloyd_max(source, M)
print(f"Lloyd-Max baseline (M={M}): boundary {lm.boundaries[1]:+.4f}, "
      f"distortion {lm.distortion:.6f}\n")

for lam in (0.0, 1.0, 1e7):
    res = multistart(source, grid, M, lam)
    sim = max_kl(res.quantizer, source, grid)
    print(f"lam = {lam:g}  ({res.iterations} iterations from the closed-form start, "
          f"stop={res.stop_reason}, "
          f"KKT residual {res.kkt_residual:.1e})")
    print(f"  d_e={res.report.d_e:.6f}  fidelity={res.report.fidelity:.6f}  "
          f"d_d={res.report.d_d:.6f}  d_theta={res.report.d_theta:.6f}")
    print(f"  similarity D = {sim.d_max:.4g} nats")
    print("  boundary per theta node:")
    for node, row in zip(grid.nodes, res.quantizer.boundaries):
        print(f"    theta={node:+7.3f}:  " + "  ".join(f"{b:+8.4f}" for b in row[1:-1]))
    print(f"  reconstructions y = {np.round(res.responses.y, 4)}")
    print(f"  eavesdropper theta_hat = {np.round(res.responses.theta_hat, 4)}")
    print()
