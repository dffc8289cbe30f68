"""Removing a Dini drift by a change of coordinates.

The drift b0(x) = min(sqrt|x|, 1) is continuous but not Lipschitz at 0.
Solving the resolvent equation (b0 . grad + 1/2 Laplacian - lambda) u = -b0
and setting Theta = id + u absorbs b0 into coefficients that are Lipschitz
along paths, at the cost of a bounded, invertible warp of space.
"""

import numpy as np

from pathcouple.coefficients import get_coefficients
from pathcouple.pathspace import PathSpaceConfig
from pathcouple.zvonkin import (
    EllipticGrid,
    default_lambda_grid,
    path_lipschitz_certificate,
    select_lambda,
    theta,
    theta_inv,
    transformed_coeffs,
)

cfg = PathSpaceConfig(d=1, tau=1.0, h=0.01, T_mem=2.0)
coeffs = get_coefficients("dini_sqrt", cfg)
grid = EllipticGrid(L=10.0, dx=1e-3)

zmap = select_lambda(coeffs, grid, default_lambda_grid(coeffs))
print(f"drift: {coeffs.name}, bound {coeffs.b0_bound}")
print(f"selected lambda     = {zmap.lam:.4g}")
print(f"residual            = {zmap.residual:.2e}")
print(f"||u|| + ||grad u||  = {zmap.smallness:.4f}  (must be <= 1/2)")

xs = np.linspace(-8, 8, 9).reshape(-1, 1)
rt = np.abs(theta_inv(zmap, theta(zmap, xs)) - xs).max()
print(f"Theta round-trip    = {rt:.2e}")

hat = transformed_coeffs(zmap, coeffs)
c0 = path_lipschitz_certificate(hat, n_samples=500, seed=0)
print(f"\ntransformed coefficients '{hat.name}':")
print(f"  sampled path-Lipschitz constant = {c0:.4f}")
print(f"  (the raw drift has unbounded difference quotients near 0)")

x = np.linspace(-0.5, 0.5, 5).reshape(-1, 1)
print("\n      x      Theta(x)   b0(x)")
for xi, th in zip(x[:, 0], theta(zmap, x)[:, 0]):
    b = coeffs.eval_b0(np.array([[xi]]))[0, 0]
    print(f"  {xi:+.3f}   {th:+.5f}   {b:+.4f}")
