"""Seeded mutants: each is a small wrong change to the library, and each must
make the tests named for it fail.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py NAME ...   # run the named ones

An entry names a file under ``src/``, an anchor that must occur in it exactly
once, the text that replaces it and the pytest node ids that must catch it.
Every anchor is checked before anything runs.  The node ids are then run on
the unmutated tree, where they must pass; each mutant is written into a
temporary copy of ``src/`` and its node ids are run against that copy, where
they must fail.  The script exits 1 on an anchor that does not match exactly
once, node ids that fail unmutated, or a mutant that survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    anchor: str
    replacement: str
    tests: tuple


PICARD_STOP = """\
        if gaps[-1] < tol or not np.isfinite(gaps[-1]):
            break
"""
NODE_POINTS = """\
    @functools.cached_property
    def _node_points(self) -> tuple:
"""
CLOSED_FORM_SUMS = """\
    np.cumsum(src, axis=1, out=src)
    src[0] += y0
    Y = _held_at(y0, grid, src.shape[2])
    np.cumsum(src, axis=0, out=Y[1:, 1:])
"""

MUTANTS = [
    Mutant(
        "rising-gaps-rule",
        "sheetlab/solver.py",
        PICARD_STOP,
        PICARD_STOP
        + """\
        if len(gaps) >= 4 and all(gaps[-k] > gaps[-k - 1] for k in (1, 2, 3)):
            break
""",
        (
            "tests/test_solver.py::TestPicardIteration::test_superlinear_drift_reaches_the_direct_solve_through_rising_gaps",
        ),
    ),
    Mutant(
        "neighbour-drift",
        "sheetlab/solver.py",
        "out = mu.sample_mean - y\n",
        "out = mu.sample_mean - np.roll(y, 1, axis=0)\n",
        ("tests/test_properties.py::test_ou_deviations_are_the_scalar_recursion_at_minus_rate",),
    ),
    Mutant(
        "picard-reads-a-row-late",
        "sheetlab/solver.py",
        "cur = _closed_form(coeffs, prev, y0, grid, noise)",
        "cur = _closed_form(coeffs, np.concatenate([prev[:, :1], prev[:, :-1]], axis=1), y0, grid, noise)",
        ("tests/test_properties.py::test_picard_reaches_the_direct_solve_in_min_nt_nx_iterates",),
    ),
    Mutant(
        "gap-on-particle-0",
        "sheetlab/solver.py",
        "np.sum((cur - prev) ** 2, axis=-1)",
        "np.sum((cur - prev)[:1] ** 2, axis=-1)",
        ("tests/test_properties.py::test_ou_picard_gaps_are_the_exact_iterate_differences",),
    ),
    Mutant(
        "chunk-sums-without-a-squared",
        "sheetlab/fokker_planck.py",
        "T2 = Q * -0.5 + _outer(D, D) - _outer(A, A) - _outer(cD, rD)",
        "T2 = Q * -0.5 + _outer(D, D) - _outer(cD, rD)",
        ("tests/test_fokker_planck.py::TestAgainstChangeOfVariables",),
    ),
    Mutant(
        "closed-form-sums-t-first",
        "sheetlab/solver.py",
        CLOSED_FORM_SUMS,
        """\
    np.cumsum(src, axis=0, out=src)
    src[:, 0] += y0
    Y = _held_at(y0, grid, src.shape[2])
    np.cumsum(src, axis=1, out=Y[1:, 1:])
""",
        ("tests/test_properties.py::test_closed_form_is_the_row_loop_bit_for_bit",),
    ),
    Mutant(
        "node-points-a-row-late",
        "sheetlab/plane.py",
        "Point._unchecked(i * dt, j * dx)",
        "Point._unchecked((i + 1) * dt, j * dx)",
        ("tests/test_solver.py::TestConditionalEnsemble::test_field_sees_the_node_measure_and_point_it_would_build",),
    ),
    Mutant(
        "node-points-keyed-by-shape",
        "sheetlab/plane.py",
        NODE_POINTS,
        """\
    _points_by_shape = {}  # not a field: the class's one memo

    @property
    def _node_points(self) -> tuple:
        key = (self.nt, self.nx)
        if key not in Grid._points_by_shape:
            Grid._points_by_shape[key] = self._built_node_points()
        return Grid._points_by_shape[key]

    def _built_node_points(self) -> tuple:
""",
        ("tests/test_solver.py::TestConditionalEnsemble::test_grids_of_one_shape_give_the_drift_their_own_coordinates",),
    ),
    Mutant(
        "count-takes-a-whole-float",
        "sheetlab/plane.py",
        "if not isinstance(count, numbers.Integral) or count < least:",
        "if not (isinstance(count, numbers.Integral) or isinstance(count, float) and count.is_integer())"
        " or count < least:",
        ("tests/test_properties.py::test_every_door_returns_or_names_each_scalar[44-n_max]",),
    ),
    Mutant(
        "finite-when-any-entry-is",
        "sheetlab/plane.py",
        "if not np.all(np.isfinite(value)):",
        "if not np.any(np.isfinite(value)):",
        (
            "tests/test_solver.py::TestInputsFailAtTheDoor::"
            "test_mean_reversion_names_a_rate_that_is_no_finite_number_or_a_sigma_not_finite[0.5-sigma2-sigma]",
        ),
    ),
    Mutant(
        "series-guard-without-the-horizon",
        "sheetlab/chaos.py",
        "if max(abs(w - 1.0), 1.0) * area > _Y_GUARD:",
        "if abs(w - 1.0) * area > _Y_GUARD:",
        ("tests/test_chaos.py::TestChaosConfig::test_the_series_routes_name_a_horizon_outside_the_series_guard",),
    ),
    Mutant(
        "raw-control",
        "sheetlab/control.py",
        "if type(u) is np.ndarray and u.ndim == 1 and u.dtype is float64:",
        "if True:",
        ("tests/test_control.py::TestCurriedObservation::test_a_rule_may_return_a_number_or_a_length_one_sequence",),
    ),
    Mutant(
        "negated-row-keeps-its-sine",
        "sheetlab/fokker_planck.py",
        "np.negative(sin[s], out=sin[r])",
        "sin[r] = sin[s]",
        ("tests/test_fokker_planck.py::TestKernelProperties::test_zero_conjugates_and_reference",),
    ),
    Mutant(
        "sampler-drops-the-scale",
        "sheetlab/noise.py",
        "    cells *= np.sqrt(grid.dt * grid.dx)\n",
        "",
        ("tests/test_noise.py::TestDrawCells::test_slabs_are_the_scaled_draws_of_their_substreams",),
    ),
]


def mutated(text: str, mutant: Mutant) -> str:
    count = text.count(mutant.anchor)
    if count != 1:
        sys.exit(f"mutant {mutant.name}: its anchor occurs {count} times in src/{mutant.file}, not once")
    return text.replace(mutant.anchor, mutant.replacement)


def run_tests(src: Path, tests) -> int:
    """pytest's exit status for the node ids ``tests`` with ``src`` on the path:
    0 all passed, 1 some failed, anything else an error."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"no such mutant: {', '.join(sorted(unknown))}")
    mutants = [m for m in MUTANTS if not names or m.name in names]
    for mutant in mutants:
        mutated((ROOT / "src" / mutant.file).read_text(), mutant)
    start = time.perf_counter()
    tests = sorted({t for m in mutants for t in m.tests})
    status = run_tests(ROOT / "src", tests)
    if status != 0:
        print(f"the unmutated tree fails its mutants' tests (pytest exit {status}): {' '.join(tests)}")
        return 1
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in mutants:
            src = Path(tmp) / mutant.name
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            path = src / mutant.file
            path.write_text(mutated(path.read_text(), mutant))
            status = run_tests(src, mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error (pytest exit {status})")
            print(f"{mutant.name:32s} {verdict}")
            if status != 1:
                survivors.append(mutant.name)
    killed, seconds = len(mutants) - len(survivors), time.perf_counter() - start
    print(f"{killed} of {len(mutants)} mutants killed in {seconds:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
