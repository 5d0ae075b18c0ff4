"""How fast a finite particle system forgets its size.

For the linear test system Y_i = y0 + integral of (mean-field average - Y_i)
plus noise, everything is computable: the interaction matrix is a rank-one
perturbation of the identity, its powers have a two-term closed form, and
the particle solution equals an explicit convolution of the driving noise
with a Bessel-type kernel.

The remainder I_N -- the gap between one tagged particle and its N -> oo
limit -- then has variance of order 1/N.  This script

* verifies the closed-form solution against the direct simulation on one
  shared noise draw, at three grid resolutions;
* estimates E[I_N^2] at N = 8, 16, 32, 64 and prints the halving ratios;
* checks the limit equation: its deterministic part solves the implied
  integral equation to machine precision, and the full solution satisfies
  the fixed-point relation up to a discretization residual that shrinks
  under joint grid/sample refinement.
"""

import numpy as np

from sheetlab import (
    ChaosConfig,
    Grid,
    Point,
    closed_form_solution,
    coarsen_increments,
    remainder_variance,
    sample_sheet,
    sheet_from_increments,
    simulate_particle_system,
    verify_limit_spde,
)


def square(k, t=1.0, x=1.0):
    return Grid(horizon=Point(t, x), nt=k, nx=k)


# -- closed form vs direct simulation on shared, coupled noise ---------------
fine_inc = sample_sheet(square(64), 4, seed=0, stream=0).increments
print("closed form vs simulation, N = 4 particles, one coupled draw")
for k in (16, 32, 64):
    sheet = sheet_from_increments(square(k), coarsen_increments(fine_inc, 64 // k), 0)
    cfg = ChaosConfig(N=4, a_values=1.0, y0=1.0, grid=square(k))
    sim = simulate_particle_system(cfg, sheet)
    exact = closed_form_solution(cfg, sheet)
    rms = np.sqrt(np.mean((sim.values - exact.values) ** 2))
    print(f"  k = {k:3d}: rms gap = {rms:.5f}")

# -- the 1/N rate -------------------------------------------------------------
print("\nremainder variance E[I_N^2], 100 replicates each, on [0, 0.5]^2")
grid = square(32, t=0.5, x=0.5)
prev = None
for N in (8, 16, 32, 64):
    cfg = ChaosConfig(N=N, a_values=1.0, y0=1.0, grid=grid)
    rv = remainder_variance(cfg, replicates=100, seed=0)
    ratio = "" if prev is None else f"   halving ratio {prev / rv.estimate:.2f}"
    print(f"  N = {N:3d}: {rv.estimate:.3e} +- {rv.stderr:.1e}{ratio}")
    prev = rv.estimate

# -- the limit equation -------------------------------------------------------
print("\nlimit equation residuals (a = 2, y0 = 1)")
rep = verify_limit_spde(2.0, 1.0, square(32), replicates=100, seed=4)
print(f"  deterministic part: {rep.det_residual:.2e} (solves its integral equation)")
print(f"  stochastic fixed point at k = 32, 100 replicates: rms {rep.stoch_residual:.4f}")
rep2 = verify_limit_spde(2.0, 1.0, square(64), replicates=400, seed=4)
print(f"  stochastic fixed point at k = 64, 400 replicates: rms {rep2.stoch_residual:.4f}")
