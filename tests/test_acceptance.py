"""End-to-end acceptance criteria, one check per numbered claim.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
by running this file directly) and enforces the stated tolerance and a wall
clock cap.  Statistical checks use frozen seeds so the suite is deterministic.
"""

import time

import numpy as np
import pytest

from sheetlab import (
    ChaosConfig,
    CoefficientField,
    FrequencyGrid,
    Grid,
    Point,
    RankOneMatrix,
    closed_form_solution,
    coarsen_increments,
    controlled_linear_field,
    convergence_radius_report,
    est_inequality_check,
    find_r0,
    grid_search,
    ito_integral,
    ito_refinement_study,
    ito_terms,
    lemma61_scalar_check,
    lq_cost,
    m_dist_sq,
    matrix_power_decomposition,
    mean_feedback_policy,
    mean_reversion_field,
    MQuadrature,
    performance_direct,
    performance_measure_based,
    picard_series_partial_sums,
    picard_solve,
    remainder_variance,
    residual_table,
    sample_replicate_increments,
    sample_sheet,
    scalar_function,
    sheet_from_increments,
    simulate_particle_system,
    solve_conditional_mkv,
    solve_goursat,
    substream,
    weak_residual,
    EmpiricalMeasure,
)
from sheetlab.rng import DOMAIN_CHAOS

R0_BAND = (1.4453, 1.4463)


def square_grid(k, t=1.0, x=1.0):
    return Grid(horizon=Point(t, x), nt=k, nx=k)


def report(tag, ok, detail, started, cap):
    elapsed = time.perf_counter() - started
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail} ({elapsed:.1f}s)"
    print(line, flush=True)
    assert ok, line
    assert elapsed < cap, f"{tag} exceeded its {cap}s budget: {elapsed:.1f}s"
    return line


def test_ac01_contraction_radius():
    started = time.perf_counter()
    r = find_r0(1e-6)
    ok = R0_BAND[0] <= r <= R0_BAND[1]
    report("AC01 contraction radius", ok, f"r0 = {r:.6f} in [{R0_BAND[0]}, {R0_BAND[1]}]", started, 1.0)


def test_ac02_sheet_moments():
    started = time.perf_counter()
    reps = 10_000
    g = square_grid(2)
    at_11 = np.empty(reps)
    at_half = np.empty((reps, 2))
    for rep in range(reps):
        v = sample_sheet(g, 1, seed=0, stream=rep).values[0]
        at_11[rep] = v[2, 2]
        at_half[rep] = (v[1, 2], v[2, 1])
    var = at_11.var(ddof=1)
    prods = at_half[:, 0] * at_half[:, 1]
    cov = prods.mean() - at_half[:, 0].mean() * at_half[:, 1].mean()
    se = prods.std(ddof=1) / np.sqrt(reps)
    ok = 0.95 <= var <= 1.05 and abs(cov - 0.25) <= 3 * se
    report(
        "AC02 sheet moments",
        ok,
        f"var {var:.4f} in [0.95, 1.05]; cov {cov:.4f} within 3se ({3 * se:.4f}) of 0.25",
        started,
        30.0,
    )


def test_ac03_integral_isometry():
    started = time.perf_counter()
    reps, k = 10_000, 128
    g = square_grid(k)
    z = Point(1.0, 1.0)
    phi = lambda p: p.t * p.x  # noqa: E731
    sq = np.empty(reps)
    for rep in range(reps):
        sq[rep] = ito_integral(phi, sample_sheet(g, 1, seed=0, stream=rep), 0, z) ** 2
    est = sq.mean()
    se = sq.std(ddof=1) / np.sqrt(reps)
    ok = abs(est - 1.0 / 9.0) <= 3 * se
    report(
        "AC03 integral isometry",
        ok,
        f"E[I^2] {est:.5f} within 3se ({3 * se:.5f}) of 1/9 = {1 / 9:.5f}",
        started,
        30.0,
    )


def _affine_target():
    return scalar_function(
        lambda y: 3.0 * y + 2.0, lambda y: 3.0, lambda y: 0.0, lambda y: 0.0, lambda y: 0.0
    )


def _quadratic_target():
    return scalar_function(
        lambda y: y**2, lambda y: 2.0 * y, lambda y: 2.0, lambda y: 0.0, lambda y: 0.0
    )


def _drifted_field():
    return CoefficientField(
        n=1,
        m=2,
        drift=lambda z, y, mu: 0.5 - 0.3 * y,
        diffusion=lambda z, y, mu: np.broadcast_to(np.array([0.6, 0.4]), y.shape + (2,)),
        depends_on_measure=False,
    )


def test_ac04_change_of_variables():
    started = time.perf_counter()
    co = _drifted_field()
    g = square_grid(16)
    z = Point(1.0, 1.0)
    worst = 0.0
    for seed in range(200):
        sh = sample_sheet(g, 2, seed)
        field = solve_goursat(co, 1.0, sh, g)
        worst = max(worst, ito_terms(_affine_target(), co, field, sh, z).residual)
    linear_ok = worst < 1e-10

    grids = [square_grid(k) for k in (16, 32, 64)]
    study = ito_refinement_study(_quadratic_target(), co, 1.0, z, grids, replications=200, seed=0)
    means = [r[1] for r in study.rows]
    ratios = [means[0] / means[1], means[1] / means[2]]
    quad_ok = all(r >= 1.5 for r in ratios)
    report(
        "AC04 change of variables",
        linear_ok and quad_ok,
        f"affine residual max {worst:.2e} < 1e-10; quadratic decay ratios "
        f"{ratios[0]:.2f}, {ratios[1]:.2f} >= 1.5",
        started,
        120.0,
    )


def test_ac05_measure_norm_bound():
    started = time.perf_counter()
    quad = MQuadrature(dim=1, order=40)
    rng = substream(0, 1, stream=0, channel=1)
    pairs = []
    for _ in range(100):
        base = rng.normal(size=(256, 1))
        m1, m2 = rng.normal(size=2)
        s1, s2 = rng.uniform(0.5, 1.5, size=2)
        pairs.append((m1 + s1 * base, m2 + s2 * base))
    rep = est_inequality_check(pairs, quad, slack=0.02)
    gauss_ok = rep.passed

    delta_ok = True
    worst_gap = 0.0
    for c in (0.1, 1.0, 10.0):
        d0 = EmpiricalMeasure(samples=np.zeros((1, 1)))
        dc = EmpiricalMeasure(samples=np.full((1, 1), c))
        got = m_dist_sq(d0, dc, quad)
        want = 2.0 * np.sqrt(np.pi) * (1.0 - np.exp(-(c**2) / 4.0))
        worst_gap = max(worst_gap, abs(got - want))
        delta_ok &= abs(got - want) < 1e-6 and got <= np.pi * c**2 * 1.02
    report(
        "AC05 measure-norm bound",
        gauss_ok and delta_ok,
        f"couplings lhs {rep.lhs:.4f} <= {rep.rhs * 1.02:.4f}; "
        f"point-mass closed-form gap {worst_gap:.1e} < 1e-6",
        started,
        60.0,
    )


def test_ac06_interaction_rate_and_closed_form():
    started = time.perf_counter()
    g = square_grid(32, t=0.5, x=0.5)
    estimates = {}
    for N in (8, 16, 32, 64):
        cfg = ChaosConfig(N=N, a_values=1.0, y0=1.0, grid=g)
        estimates[N] = remainder_variance(cfg, replicates=100, seed=0).estimate
    ratios = [estimates[N] / estimates[2 * N] for N in (8, 16, 32)]
    rate_ok = all(1.4 <= r <= 2.8 for r in ratios)

    fine_inc = sample_sheet(square_grid(64), 4, seed=0, stream=0).increments
    gaps = []
    for k in (16, 32, 64):
        gk = square_grid(k)
        sh = sheet_from_increments(gk, coarsen_increments(fine_inc, 64 // k), 0)
        cfg = ChaosConfig(N=4, a_values=1.0, y0=1.0, grid=gk)
        sim = simulate_particle_system(cfg, sh)
        exact = closed_form_solution(cfg, sh)
        gaps.append(float(np.sqrt(np.mean((sim.values - exact.values) ** 2))))
    closed_ok = gaps[0] > gaps[1] > gaps[2]
    report(
        "AC06 interaction rate",
        rate_ok and closed_ok,
        f"variance halving ratios {[round(r, 2) for r in ratios]} in [1.4, 2.8]; "
        f"closed-form rms gaps {[round(v, 5) for v in gaps]} decreasing",
        started,
        180.0,
    )


def test_ac07_rank_one_powers():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(1, 7))
        n = int(rng.integers(0, 13))
        a = rng.uniform(0.1, 3.0, size=N)
        A = RankOneMatrix(a_values=a)
        got = matrix_power_decomposition(A, n)
        want = np.linalg.matrix_power(A.as_array() / N - np.eye(N), n)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report("AC07 rank-one powers", worst <= 1e-9, f"max entry gap {worst:.2e} <= 1e-9", started, 5.0)


def test_ac08_iteration_contraction():
    started = time.perf_counter()
    r0 = find_r0(1e-12)
    co = mean_reversion_field(0.25 * np.sqrt(r0), (0.5, 0.5))
    g = square_grid(32)
    radius = convergence_radius_report(co, g)
    result = picard_solve(co, 1.0, 200, g, seed=0, max_iter=12, tol=1e-12)
    ratios = result.gaps[1:] / result.gaps[:-1] if len(result.gaps) > 1 else np.array([])
    iter_ok = (
        radius.picard_ok
        and result.converged
        and not result.diverged
        and all(r < 1.0 for r in ratios[1:])
    )

    inside = picard_series_partial_sums(0.9 * np.sqrt(r0), 1.0, 120)
    cauchy = np.abs(np.diff(inside))
    outside = picard_series_partial_sums(1.2 * np.sqrt(r0), 1.0, 40)
    series_ok = bool(np.any(cauchy < 1e-8)) and bool(np.max(np.abs(outside)) > 1e6)
    detail = (
        f"{result.iterations} iterations, max late gap ratio "
        f"{max(ratios[1:]) if len(ratios) > 1 else float('nan'):.4f} < 1; "
        f"majorant converges at 0.9 sqrt(r0), exceeds 1e6 at 1.2 sqrt(r0)"
    )
    report("AC08 iteration contraction", iter_ok and series_ok, detail, started, 60.0)


def test_ac09_weak_transport_identity():
    started = time.perf_counter()
    g16, g32 = square_grid(16), square_grid(32)
    co = mean_reversion_field(0.5, (0.7, 0.5))
    z = Point(1.0, 1.0)

    probe = solve_conditional_mkv(co, 1.0, 200, g16, seed=0)
    zero_ok = weak_residual(probe, 0.0, z) == 0.0
    conj_gap = max(
        abs(weak_residual(probe, -w, z) - np.conj(weak_residual(probe, w, z))) for w in (1.0, 2.0)
    )
    sym_ok = conj_gap <= 1e-12

    freqs = FrequencyGrid(np.array([1.0, -1.0, 2.0, -2.0]))
    sums = {"m100_k16": 0.0, "m1000_k16": 0.0, "m1000_k32": 0.0}
    reps = 20
    for rep in range(reps):
        c32, i32 = sample_replicate_increments(g32, 2, 1000, seed=0, rep=rep)
        c16 = coarsen_increments(c32[None], 2)[0]
        i16 = coarsen_increments(i32, 2)
        for tag, grid, M, cc, ii in (
            ("m100_k16", g16, 100, c16, i16[:100]),
            ("m1000_k16", g16, 1000, c16, i16),
            ("m1000_k32", g32, 1000, c32, i32),
        ):
            ens = solve_conditional_mkv(
                co, 1.0, M, grid, 0, common_increments=cc, idio_increments=ii
            )
            table = residual_table(ens, freqs, z)
            sums[tag] += float(np.mean([abs(res) for _, res in table]))
    means = {tag: v / reps for tag, v in sums.items()}
    decay_ok = means["m100_k16"] > means["m1000_k16"] > means["m1000_k32"]
    report(
        "AC09 weak transport identity",
        zero_ok and sym_ok and decay_ok,
        f"residual(0) exact; conjugate gap {conj_gap:.1e} <= 1e-12; mean residual "
        f"{means['m100_k16']:.4f} -> {means['m1000_k16']:.4f} (M x10) -> "
        f"{means['m1000_k32']:.4f} (grid x2)",
        started,
        300.0,
    )


def test_ac10_product_differentiation():
    started = time.perf_counter()
    g = square_grid(128)
    z = Point(1.0, 1.0)
    one = lambda q: np.ones(np.shape(q.t))  # noqa: E731
    const = lemma61_scalar_check(one, one, z, g, 1e-3)
    sep = lemma61_scalar_check(lambda q: q.t, lambda q: q.x, z, g, 1e-3)
    ok = const.residual < 5e-3 and sep.residual < 2e-3
    report(
        "AC10 product differentiation",
        ok,
        f"constant kernels {const.residual:.2e} < 5e-3; separable {sep.residual:.2e} < 2e-3",
        started,
        30.0,
    )


def test_ac11_control_route_equivalence():
    started = time.perf_counter()
    g = square_grid(16)
    controlled = controlled_linear_field(drift_gain=-1.0, control_gain=1.0, sigma=(0.5, 0.5))
    cost = lq_cost(g.horizon, state_weight=1.0, control_weight=0.25, terminal_weight=1.0)
    equal_ok = True
    gaps = []
    for theta in (-0.5, 0.0, 0.5):
        pol = mean_feedback_policy(theta)
        d = performance_direct(pol, controlled, cost, 2.0, 64, g, replicates=8, seed=0)
        m = performance_measure_based(pol, controlled, cost, 2.0, 64, g, replicates=8, seed=1)
        bound = 3.0 * float(np.hypot(d.stderr, m.stderr))
        gaps.append((abs(d.value - m.value), bound))
        equal_ok &= gaps[-1][0] <= bound

    policies = [mean_feedback_policy(t) for t in (-0.5, 0.0, 0.5)]
    best_a = grid_search(policies, controlled, cost, 2.0, 64, g, replicates=60, seed=0)
    best_b = grid_search(policies, controlled, cost, 2.0, 64, g, replicates=60, seed=1)
    stable_ok = best_a.best_policy.theta == best_b.best_policy.theta
    worst = max(gap / bound for gap, bound in gaps)
    report(
        "AC11 control route equivalence",
        equal_ok and stable_ok,
        f"max |J - J~| at {worst:.2f}x its 3-stderr bound; "
        f"argmax theta = {best_a.best_policy.theta} on both seed sets",
        started,
        120.0,
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_ac") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"  -> {exc}", flush=True)
    raise SystemExit(1 if failures else 0)
