"""Experiment runner: ``sheetlab <experiment> [key=value ...]``.

Each experiment exercises one capability end to end.  Its runner is a
function of the parsed parameters alone and returns ``(header, rows, checks,
derived)``: the CSV header and data rows, one ``(label, passed)`` pair per
check, and the values the run computed beyond its rows (``derived``).
``main`` does the rest in one place: it prints one PASS/FAIL line per check,
decides the verdict and writes the CSV into the directory named by the
SHEETLAB_OUT environment variable (default: the working directory).  The CSV
opens with ``# key = value`` metadata lines — the experiment, every parameter,
the derived values (a derived value named like a parameter, such as picard's
resolved ``rate``, replaces it), the wall time and ``all_pass`` — followed by
a header row and data rows; wall time never appears in data rows.

Exit status: 0 when every check passes, 2 when the run completed but some
check failed (or an iteration diverged), 1 on usage errors.

Experiments that draw random numbers take their seeds as keys (``seed``, or
``seed1`` and ``seed2`` for control-search); all randomness flows from them,
so a run is reproducible bit for bit.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from .chaos import (
    ChaosConfig,
    closed_form_solution,
    remainder_variance,
    simulate_particle_system,
)
from .control import (
    controlled_linear_field,
    grid_search,
    lq_cost,
    mean_feedback_policy,
    performance_direct,
    performance_measure_based,
)
from .fokker_planck import FrequencyGrid, lemma61_scalar_check, residual_table
from .ito_check import ito_refinement_study, scalar_function
from .measures import EmpiricalMeasure, MQuadrature, est_inequality_check, m_dist_sq
from .noise import coarsen_increments, sample_sheet, sheet_from_increments
from .plane import Grid, Point, _require_count
from .rng import DOMAIN_COUPLINGS, substream
from .series import find_r0, picard_series_partial_sums
from .solver import (
    CoefficientField,
    convergence_radius_report,
    mean_reversion_field,
    picard_solve,
    sample_replicate_increments,
    solve_conditional_mkv,
)

ENV_OUT = "SHEETLAB_OUT"


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_value(text: str):
    if "," in text:
        return [_parse_scalar(part) for part in text.split(",") if part != ""]
    return _parse_scalar(text)


def _parse_args(tokens, defaults):
    params = dict(defaults)
    # a key whose default is an integer (or a list of them) takes integers only,
    # and one whose default is a number (or a list of them) takes numbers only
    of_kind = lambda value, kind: all(isinstance(v, kind) for v in _as_list(value))  # noqa: E731
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, _, raw = token.partition("=")
        if key not in defaults:
            raise ValueError(f"unknown key {key!r}; known keys: {', '.join(sorted(defaults))}")
        params[key] = _parse_value(raw)
        for kind, noun in ((int, "integers"), ((int, float), "numbers")):
            if of_kind(defaults[key], kind) and not of_kind(params[key], kind):
                raise ValueError(f"key {key!r} takes {noun}, got {raw!r}")
    return params


def _as_list(value):
    return list(value) if isinstance(value, list) else [value]


def _write_csv(path: str, meta: dict, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


def _square_grid(k: int, t: float = 1.0, x: float = 1.0) -> Grid:
    return Grid(horizon=Point(t, x), nt=k, nx=k)


# --------------------------------------------------------------------------
# experiments


def _run_sheet_stats(p):
    reps, k, seed = p["reps"], p["k"], p["seed"]
    # one replicate has no standard error, none no estimate
    _require_count(2, reason="need at least two replicates", reps=reps)
    if k % 2:
        raise ValueError(f"k must be even to split the horizon, got {k}")
    grid = _square_grid(k)
    tc = np.arange(k) * grid.dt
    xc = np.arange(k) * grid.dx
    phi = np.outer(tc, xc)  # phi(s, a) = s * a at cell lower corners

    def one(rep):
        dB = sample_sheet(grid, 1, seed, stream=rep).increments[0]
        return (
            dB.sum(),
            dB[: k // 2, :].sum() * dB[:, : k // 2].sum(),
            float((phi * dB).sum()) ** 2,
        )

    samples = np.array([one(rep) for rep in range(reps)])
    var = float(np.var(samples[:, 0], ddof=1))
    var_se = float(np.std((samples[:, 0] - samples[:, 0].mean()) ** 2, ddof=1) / np.sqrt(reps))
    cov, cov_se = float(samples[:, 1].mean()), float(samples[:, 1].std(ddof=1) / np.sqrt(reps))
    iso, iso_se = float(samples[:, 2].mean()), float(samples[:, 2].std(ddof=1) / np.sqrt(reps))
    rows = [
        ("variance_corner", var, 1.0, 3 * var_se, abs(var - 1.0) <= 3 * var_se),
        ("cov_disjoint_quadrants", cov, 0.25, 3 * cov_se, abs(cov - 0.25) <= 3 * cov_se),
        ("isometry_bilinear", iso, 1.0 / 9.0, 3 * iso_se, abs(iso - 1.0 / 9.0) <= 3 * iso_se),
    ]
    checks = [(f"sheet-stats {r[0]}: {r[1]:.5f} vs {r[2]:.5f}", r[4]) for r in rows]
    return ["statistic", "estimate", "target", "tolerance", "passed"], rows, checks, {}


_CASES = {
    "quadratic": lambda: scalar_function(
        lambda y: y**2, lambda y: 2.0 * y, lambda y: 2.0, lambda y: 0.0, lambda y: 0.0
    ),
    "linear": lambda: scalar_function(
        lambda y: y, lambda y: 1.0, lambda y: 0.0, lambda y: 0.0, lambda y: 0.0
    ),
}


def _run_ito_check(p):
    case = p["case"]
    if case not in _CASES:
        raise ValueError(f"case must be one of {sorted(_CASES)}, got {case!r}")
    grids = [_square_grid(k) for k in _as_list(p["grids"])]
    coeffs = CoefficientField(
        n=1,
        m=1,
        drift=lambda z, y, mu: np.zeros_like(y),
        diffusion=lambda z, y, mu: np.ones(y.shape + (1,)),
        depends_on_state=False,
        depends_on_measure=False,
    )
    study = ito_refinement_study(
        _CASES[case](), coeffs, 1.0, grids[-1].horizon, grids, p["reps"], p["seed"]
    )
    rows, checks = [], []
    means = [r[1] for r in study.rows]
    for idx, (k, mean, se) in enumerate(study.rows):
        ratio = means[idx - 1] / mean if idx else float("nan")
        if case == "linear":
            ok = mean < 1e-10
            label = f"ito-check linear k={k}: mean residual {mean:.2e} < 1e-10"
        else:
            ok = True if idx == 0 else ratio >= 1.5
            label = f"ito-check {case} k={k}: mean residual {mean:.3e}, ratio {ratio:.2f}"
        rows.append((k, mean, se, ratio, ok))
        checks.append((label, ok))
    return ["cells_per_axis", "mean_residual", "stderr", "ratio", "passed"], rows, checks, {}


def _gaussian_couplings(pairs: int, seed: int):
    """``pairs`` couplings (m1 + s1 * base, m2 + s2 * base) of 256 shared
    standard normals each, drawn from the est-check domain's stream."""
    rng = substream(seed, DOMAIN_COUPLINGS)
    couplings = []
    for _ in range(pairs):
        base = rng.normal(size=(256, 1))
        m1, m2 = rng.normal(size=2)
        s1, s2 = rng.uniform(0.5, 1.5, size=2)
        couplings.append((m1 + s1 * base, m2 + s2 * base))
    return couplings


def _run_est_check(p):
    quad = MQuadrature(dim=1, order=p["order"])
    report = est_inequality_check(_gaussian_couplings(p["pairs"], p["seed"]), quad, slack=p["slack"])
    rows = [("gaussian_couplings", report.lhs, report.rhs, float("nan"), report.passed)]
    label = f"est-check couplings: lhs {report.lhs:.5f} <= rhs {report.rhs:.5f} (slack {p['slack']})"
    checks = [(label, report.passed)]
    for c in _as_list(p["c"]):
        d0 = EmpiricalMeasure(samples=np.zeros((1, 1)))
        dc = EmpiricalMeasure(samples=np.full((1, 1), float(c)))
        got = m_dist_sq(d0, dc, quad)
        target = 2.0 * np.sqrt(np.pi) * (1.0 - np.exp(-(float(c) ** 2) / 4.0))
        ok = abs(got - target) < 1e-6 and got <= np.pi * float(c) ** 2 * (1 + p["slack"])
        rows.append((f"delta_pair_c={c}", got, target, abs(got - target), ok))
        checks.append((f"est-check delta pair c={c}: {got:.8f} vs {target:.8f}", ok))
    return ["case", "lhs", "target", "gap", "passed"], rows, checks, {}


def _run_chaos_rate(p):
    grid = Grid(horizon=Point(p["t"], p["x"]), nt=p["k"], nx=p["k"])
    sizes = _as_list(p["N"])
    estimates = {}
    rows = []
    for N in sizes:
        cfg = ChaosConfig(N=N, a_values=1.0, y0=p["y0"], grid=grid)
        rv = remainder_variance(cfg, p["reps"], p["seed"])
        estimates[N] = rv.estimate
        rows.append((N, rv.estimate, rv.stderr, float("nan"), True))
    checks = []
    for N in sizes:
        if 2 * N in estimates:
            ratio = estimates[N] / estimates[2 * N]
            ok = 1.4 <= ratio <= 2.8
            rows.append((f"{N}/{2 * N}", estimates[N], estimates[2 * N], ratio, ok))
            checks.append((f"chaos-rate halving {N}->{2 * N}: ratio {ratio:.3f} in [1.4, 2.8]", ok))
    return ["N_or_pair", "estimate", "stderr_or_next", "ratio", "passed"], rows, checks, {}


def _run_chaos_closed_form(p):
    N = p["N"]
    ks = _as_list(p["grids"])
    k_fine = ks[-1]
    fine_inc = sample_sheet(_square_grid(k_fine), N, p["seed"], stream=0).increments

    def gap(idx):
        k = ks[idx]
        if k_fine % k:
            raise ValueError(f"grid {k} does not divide the finest grid {k_fine}")
        grid = _square_grid(k)
        inc = coarsen_increments(fine_inc, k_fine // k)
        sheet = sheet_from_increments(grid, inc, p["seed"])
        cfg = ChaosConfig(N=N, a_values=p["a"], y0=p["y0"], grid=grid)
        sim = simulate_particle_system(cfg, sheet)
        exact = closed_form_solution(cfg, sheet)
        return float(np.sqrt(np.mean((sim.values - exact.values) ** 2)))

    gaps = [gap(idx) for idx in range(len(ks))]
    rows, checks = [], []
    for idx, k in enumerate(ks):
        ok = idx == 0 or gaps[idx] < gaps[idx - 1]
        rows.append((k, gaps[idx], ok))
        checks.append((f"chaos-closed-form k={k}: rms gap {gaps[idx]:.5f}", ok))
    return ["cells_per_axis", "rms_gap", "passed"], rows, checks, {}


def _run_picard(p):
    r0 = find_r0(1e-12)
    rate = p["rate"] if p["rate"] > 0 else 0.25 * np.sqrt(r0)
    grid = _square_grid(p["k"])
    coeffs = mean_reversion_field(rate, (0.5, 0.5))
    result = picard_solve(coeffs, p["y0"], p["M"], grid, p["seed"], p["iters"], p["tol"])
    radius = convergence_radius_report(coeffs, grid)
    rows, checks = [], []
    for idx, gap in enumerate(result.gaps):
        ratio = result.gaps[idx] / result.gaps[idx - 1] if idx else float("nan")
        ok = True if idx < 2 else ratio < 1.0
        rows.append((f"iteration_{idx + 1}", gap, ratio, ok))
        if idx >= 2:
            checks.append((f"picard gap ratio at iteration {idx + 1}: {ratio:.4f} < 1", ok))
    checks.append((f"picard converged in {result.iterations} iterations", result.converged))
    checks.append(("picard did not diverge", not result.diverged))

    for factor in _as_list(p["factors"]):
        q_scale = float(factor) * np.sqrt(r0)
        sums = picard_series_partial_sums(q_scale, 1.0, p["series_terms"])
        if float(factor) < 1.0:
            steps = np.abs(np.diff(sums))
            hit = np.nonzero(steps < 1e-8)[0]
            ok = hit.size > 0
            detail = f"first Cauchy step < 1e-8 at n={hit[0] + 2}" if ok else "no Cauchy step"
            rows.append((f"series_factor_{factor}", float(sums[-1]), float("nan"), ok))
            checks.append((f"majorant series at {factor}*sqrt(r0) converges ({detail})", ok))
        else:
            ok = bool(np.any(np.abs(sums) > 1e6))
            rows.append((f"series_factor_{factor}", float(np.max(np.abs(sums))), float("nan"), ok))
            checks.append((f"majorant series at {factor}*sqrt(r0) exceeds 1e6", ok))
    derived = {
        "rate": rate,
        "area": radius.area,
        "picard_threshold": radius.picard_threshold,
        "gronwall_threshold": radius.gronwall_threshold,
    }
    return ["row", "value", "ratio", "passed"], rows, checks, derived


def _run_fokker_planck(p):
    _require_count(2, reason="need at least two replicates", reps=p["reps"])
    grid = _square_grid(p["k"])
    coeffs = mean_reversion_field(p["rate"], (0.7, 0.5))
    freqs = FrequencyGrid(np.asarray(_as_list(p["w"]), dtype=float))
    # w = 0 rides along as one extra row of the same table, so each replicate
    # takes one coefficient pass; its residual is split off before the rows.
    with_zero = FrequencyGrid(np.vstack([freqs.values, np.zeros((1, 1))]))

    def one(rep):
        common, idio = sample_replicate_increments(grid, coeffs.m, p["M"], p["seed"], rep)
        ensemble = solve_conditional_mkv(
            coeffs, p["y0"], p["M"], grid, p["seed"], common_increments=common, idio_increments=idio
        )
        *table, (_, zero) = residual_table(ensemble, with_zero, grid.horizon)
        return [res for _, res in table], abs(zero)

    results = [one(rep) for rep in range(p["reps"])]
    residuals = np.array([r[0] for r in results])  # (reps, Q)
    zero_residuals = np.array([r[1] for r in results])
    rows = []
    wvals = [float(w[0]) for w in freqs]
    for qi, w in enumerate(wvals):
        col = residuals[:, qi]
        rows.append(
            (
                w,
                float(col.mean().real),
                float(col.mean().imag),
                float(np.abs(col).std(ddof=1) / np.sqrt(p["reps"])),
                p["M"],
                p["k"],
            )
        )
    zero_ok = bool(np.all(zero_residuals == 0.0))
    checks = [("fokker-planck residual at w=0 is exactly zero", zero_ok)]
    conj_gap = 0.0
    for qi, w in enumerate(wvals):
        if -w in wvals:
            qj = wvals.index(-w)
            conj_gap = max(
                conj_gap, float(np.max(np.abs(residuals[:, qi] - np.conj(residuals[:, qj]))))
            )
    conj_ok = conj_gap < 1e-12
    checks.append((f"fokker-planck conjugate symmetry gap {conj_gap:.2e} < 1e-12", conj_ok))
    mean_abs = float(np.mean(np.abs(residuals)))
    print(f"fokker-planck mean |residual| over w: {mean_abs:.5f} (M={p['M']}, k={p['k']})")
    header = ["w", "re_mean", "im_mean", "stderr_abs", "M", "cells_per_axis"]
    return header, rows, checks, {"mean_abs_residual": mean_abs}


def _run_lemma61(p):
    grid = _square_grid(p["k"], p["t"], p["x"])
    z = Point(p["t"], p["x"])
    ones = lambda q: np.ones(np.broadcast(q.t, q.x).shape)  # noqa: E731
    cases = [
        ("constants", ones, ones, p["tol_constants"]),
        ("separable_t_x", lambda q: q.t, lambda q: q.x, p["tol_separable"]),
    ]
    rows, checks = [], []
    for name, fk, gk, tol in cases:
        rep = lemma61_scalar_check(fk, gk, z, grid, p["h"])
        ok = rep.residual < tol
        rows.append((name, rep.mixed_partial, rep.product_rhs, rep.residual, tol, ok))
        checks.append((f"lemma61 {name}: residual {rep.residual:.6f} < {tol}", ok))
    header = ["kernel", "mixed_partial", "product_rhs", "residual", "tolerance", "passed"]
    return header, rows, checks, {}


def _control_instance(p):
    grid = _square_grid(p["k"])
    controlled = controlled_linear_field(drift_gain=-1.0, control_gain=1.0, sigma=(0.5, 0.5))
    cost = lq_cost(grid.horizon, state_weight=1.0, control_weight=0.25, terminal_weight=1.0)
    return grid, controlled, cost


def _run_control_equiv(p):
    grid, controlled, cost = _control_instance(p)
    rows, checks = [], []
    for theta in _as_list(p["theta"]):
        policy = mean_feedback_policy(float(theta))
        direct = performance_direct(
            policy, controlled, cost, p["y0"], p["M"], grid, p["reps"], p["seed"]
        )
        measure = performance_measure_based(
            policy, controlled, cost, p["y0"], p["M"], grid, p["reps"], p["seed"] + 1
        )
        bound = 3.0 * float(np.hypot(direct.stderr, measure.stderr))
        gap = abs(direct.value - measure.value)
        ok = gap <= bound
        rows.append(
            (theta, direct.value, direct.stderr, measure.value, measure.stderr, gap, bound, ok)
        )
        checks.append((f"control-equiv theta={theta}: |J - J~| = {gap:.4f} <= {bound:.4f}", ok))
    header = ["theta", "J_direct", "stderr_direct", "J_measure", "stderr_measure", "gap", "bound", "passed"]
    return header, rows, checks, {}


def _run_control_search(p):
    grid, controlled, cost = _control_instance(p)
    policies = [mean_feedback_policy(float(t)) for t in _as_list(p["theta"])]
    runs = [
        grid_search(policies, controlled, cost, p["y0"], p["M"], grid, p["reps"], seed)
        for seed in (p["seed1"], p["seed2"])
    ]
    rows = []
    for idx, policy in enumerate(policies):
        e1, e2 = runs[0].table[idx], runs[1].table[idx]
        rows.append((policy.theta, e1.value, e1.stderr, e2.value, e2.stderr))
    best1, best2 = runs[0].best_policy.theta, runs[1].best_policy.theta
    stable = runs[0].best_index == runs[1].best_index
    checks = [(f"control-search argmax stable across seeds: theta = {best1} vs {best2}", stable)]
    header = ["theta", "J_seed1", "stderr_seed1", "J_seed2", "stderr_seed2"]
    return header, rows, checks, {"best_theta_seed1": best1, "best_theta_seed2": best2}


EXPERIMENTS = {
    "sheet-stats": (_run_sheet_stats, {"reps": 10000, "k": 128, "seed": 0}),
    "ito-check": (
        _run_ito_check,
        {"case": "quadratic", "grids": [16, 32, 64], "reps": 100, "seed": 0},
    ),
    "est-check": (
        _run_est_check,
        {"pairs": 100, "c": [0.1, 1, 10], "order": 40, "slack": 0.02, "seed": 0},
    ),
    "chaos-rate": (
        _run_chaos_rate,
        {
            "N": [8, 16, 32, 64],
            "reps": 100,
            "t": 0.5,
            "x": 0.5,
            "k": 32,
            "y0": 1.0,
            "seed": 0,
        },
    ),
    "chaos-closed-form": (
        _run_chaos_closed_form,
        {"N": 4, "grids": [16, 32, 64], "a": 1.0, "y0": 1.0, "seed": 0},
    ),
    "picard": (
        _run_picard,
        {
            "rate": -1.0,
            "M": 64,
            "k": 16,
            "iters": 12,
            "tol": 1e-12,
            "y0": 1.0,
            "factors": [0.9, 1.2],
            "series_terms": 120,
            "seed": 0,
        },
    ),
    "fokker-planck": (
        _run_fokker_planck,
        {
            "M": 300,
            "k": 16,
            "w": [1.0, -1.0, 2.0, -2.0],
            "reps": 5,
            "rate": 0.5,
            "y0": 1.0,
            "seed": 0,
        },
    ),
    "lemma61": (
        _run_lemma61,
        {
            "k": 128,
            "h": 1e-3,
            "t": 1.0,
            "x": 1.0,
            "tol_constants": 5e-3,
            "tol_separable": 2e-3,
        },
    ),
    "control-equiv": (
        _run_control_equiv,
        {
            "theta": [-0.5, 0.0, 0.5],
            "M": 64,
            "k": 16,
            "reps": 8,
            "y0": 2.0,
            "seed": 0,
        },
    ),
    "control-search": (
        _run_control_search,
        {
            "theta": [-1.0, -0.5, 0.0, 0.5, 1.0],
            "M": 64,
            "k": 16,
            "reps": 60,
            "y0": 2.0,
            "seed1": 0,
            "seed2": 1,
        },
    ),
}


def _usage() -> str:
    lines = ["usage: sheetlab <experiment> [key=value ...]", "", "experiments:"]
    for name, (_, defaults) in sorted(EXPERIMENTS.items()):
        keys = ", ".join(f"{k}={v}" for k, v in defaults.items())
        lines.append(f"  {name}  ({keys})")
    lines.append("")
    lines.append(f"output directory: ${ENV_OUT} (default: current directory)")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_usage())
        return 0 if argv and argv[0] in ("-h", "--help", "help") else 1
    name = argv[0]
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}\n\n{_usage()}", file=sys.stderr)
        return 1
    runner, defaults = EXPERIMENTS[name]
    try:
        params = _parse_args(argv[1:], defaults)
    except ValueError as exc:
        print(f"argument error: {exc}\n\n{_usage()}", file=sys.stderr)
        return 1

    out_dir = os.environ.get(ENV_OUT, ".")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{name}.csv")

    start = time.perf_counter()
    try:
        header, rows, checks, derived = runner(params)
        if not checks:  # all([]) would read as a pass
            raise ValueError(f"the parameters leave {name} no check to run")
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 1
    wall_seconds = round(time.perf_counter() - start, 3)
    for label, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {label}")
    all_pass = all(passed for _, passed in checks)
    meta = {"experiment": name, **params, **derived, "wall_seconds": wall_seconds, "all_pass": all_pass}
    _write_csv(out_path, meta, header, rows)
    print(f"wrote {out_path} ({wall_seconds}s)")
    return 0 if all_pass else 2


if __name__ == "__main__":
    sys.exit(main())
