"""Weak-form transport identity in Fourier variables, and its kernel algebra."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sheetlab import (
    CoefficientField,
    FrequencyGrid,
    Grid,
    Point,
    ito_terms,
    lemma61_scalar_check,
    mean_reversion_field,
    residual_table,
    sample_replicate_increments,
    scalar_function,
    sheet_from_increments,
    solve_conditional_mkv,
    weak_residual,
)
from sheetlab import fokker_planck
from sheetlab.fokker_planck import _five_term_sums, _quarter_product_sum, _trig_plan
from sheetlab.ito_check import TestFunction as ItoTestFunction  # aliased so pytest does not collect it
from sheetlab.ito_check import _batched_terms
from sheetlab.solver import coefficient_table

from oracles import wa_wb_wq


def square_grid(k):
    return Grid(horizon=Point(1.0, 1.0), nt=k, nx=k)


class TestFrequencyGrid:
    def test_promotes_scalars_to_one_dimension(self):
        fg = FrequencyGrid(np.array([1.0, -1.0, 2.0]))
        assert fg.values.shape == (3, 1)
        assert len(fg) == 3
        np.testing.assert_array_equal(list(fg)[1], [-1.0])

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.zeros((2, 2, 2)))


@pytest.fixture(scope="module")
def ensemble():
    g = square_grid(16)
    co = mean_reversion_field(0.5, (0.7, 0.5))
    return solve_conditional_mkv(co, 1.0, 50, g, seed=0)


class TestWeakResidual:
    def test_zero_frequency_is_exact(self, ensemble):
        assert weak_residual(ensemble, 0.0, Point(1.0, 1.0)) == 0.0

    def test_boundary_points_are_exact(self, ensemble):
        assert abs(weak_residual(ensemble, 1.0, Point(0.0, 1.0))) < 1e-14
        assert abs(weak_residual(ensemble, 2.0, Point(1.0, 0.0))) < 1e-14

    def test_conjugate_symmetry(self, ensemble):
        z = Point(1.0, 1.0)
        for w in (0.7, 1.0, 2.0):
            plus = weak_residual(ensemble, w, z)
            minus = weak_residual(ensemble, -w, z)
            assert minus == pytest.approx(np.conj(plus), abs=1e-12)

    def test_residual_table_matches_single_calls(self, ensemble):
        z = Point(0.5, 1.0)
        freqs = FrequencyGrid(np.array([1.0, -2.0]))
        table = residual_table(ensemble, freqs, z)
        assert len(table) == 2
        for wrow, res in table:
            assert res == pytest.approx(weak_residual(ensemble, wrow, z), abs=1e-12)

    def test_needs_carried_coefficients(self, ensemble):
        stripped = replace(ensemble, coeffs=None, y0=None)
        with pytest.raises(ValueError):
            weak_residual(stripped, 1.0, Point(1.0, 1.0))

    def test_frequency_dimension_checked(self, ensemble):
        with pytest.raises(ValueError):
            weak_residual(ensemble, np.array([1.0, 2.0]), Point(1.0, 1.0))

    @pytest.mark.parametrize("z", [Point(1.0, 1.0), Point(0.0, 1.0)])
    def test_residual_table_needs_carried_coefficients(self, ensemble, z):
        stripped = replace(ensemble, coeffs=None, y0=None)
        with pytest.raises(ValueError, match="does not carry coefficients"):
            residual_table(stripped, FrequencyGrid(np.array([1.0])), z)

    def test_residual_table_checks_frequency_width(self, ensemble):
        with pytest.raises(ValueError, match="does not match state dimension"):
            residual_table(ensemble, FrequencyGrid(np.ones((2, 2))), Point(1.0, 1.0))


# Reference: the per-frequency complex-array kernel that the per-cell polynomial
# tables of fokker_planck._five_term_sums replaced, one frequency per call.


def _col(F: np.ndarray) -> np.ndarray:
    return np.cumsum(F, axis=-2)


def _row(F: np.ndarray) -> np.ndarray:
    return np.cumsum(F, axis=-1)


def _five_term_sum(
    ensemble,
    alpha: np.ndarray,
    beta: np.ndarray,
    w: np.ndarray,
    i: int,
    j: int,
    chunk: int,
) -> complex:
    grid = ensemble.grid
    dtdx = grid.dt * grid.dx
    dBc = ensemble.common_increments[:i, :j]
    M = ensemble.particles

    wa, wb, wq = wa_wb_wq(w, alpha, beta)  # each (M, i, j)
    total = 0.0 + 0.0j
    for lo in range(0, M, chunk):
        hi = min(lo + chunk, M)
        E = np.exp(-1j * np.einsum("pijn,n->pij", ensemble.values[lo:hi, :i, :j, :], w))
        aD = wa[lo:hi] * dtdx
        bD = wb[lo:hi] * dBc
        qD = wq[lo:hi] * dtdx
        cdet = -aD + 0.5j * qD  # the a4 deterministic factor, orientation-split

        t1 = np.sum((-1j * aD - 0.5 * qD) * E)
        t2 = np.sum(-1j * bD * E)
        t3 = -np.sum((_col(bD) * _row(bD) - bD * bD) * E)
        t4 = np.sum((_col(cdet) * _row(bD) - cdet * bD) * E) + np.sum(
            (_col(bD) * _row(cdet) - bD * cdet) * E
        )
        t5 = np.sum(
            (
                -_col(aD) * _row(aD)
                + 0.5j * (_col(qD) * _row(aD) + _col(aD) * _row(qD))
                + 0.25 * _col(qD) * _row(qD)
            )
            * E
        )
        total += t1 + t2 + t3 + t4 + t5
    return total / M


def coupled_field(n, m):
    """State-dependent, measure-coupled coefficients with a full beta beta^T."""
    rng = np.random.default_rng(10 * n + m)
    K = 0.3 * rng.normal(size=(n, n))
    S = 0.5 * rng.normal(size=(n, m))

    def drift(z, y, mu):
        return y @ K.T - 0.4 * (y - mu.samples.mean(axis=0))

    def diffusion(z, y, mu):
        return S[None] * (1.0 + 0.2 * np.sin(y))[:, :, None]

    return CoefficientField(n=n, m=m, drift=drift, diffusion=diffusion)


class TestPolynomialTableKernel:
    """The per-cell tables against the per-frequency complex-array kernel they
    replaced (kept above as the reference), in one to three state dimensions."""

    @pytest.fixture(scope="class", params=[(1, 2), (2, 3), (3, 2)], ids=["n1m2", "n2m3", "n3m2"])
    def coupled(self, request):
        n, m = request.param
        y0 = np.linspace(0.2, 0.6, n)
        ens = solve_conditional_mkv(coupled_field(n, m), y0, 300, square_grid(6), seed=3)
        return ens, np.random.default_rng(n).normal(size=(4, n))

    @staticmethod
    def reference(ens, W, i, j):
        alpha, beta = coefficient_table(ens.coeffs, ens.values, ens.grid, i, j)
        return [_five_term_sum(ens, alpha, beta, w, i, j, 256) for w in W]

    @pytest.mark.parametrize("corner", [(6, 6), (3, 5), (6, 1)])
    def test_matches_the_per_frequency_reference(self, coupled, corner):
        ens, W = coupled
        got = _five_term_sums(ens, W, *corner)
        np.testing.assert_allclose(got, self.reference(ens, W, *corner), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cells", [1, 300 * 6 + 1], ids=["one-particle-chunks", "whole-rows"])
    @pytest.mark.parametrize("corner", [(6, 6), (3, 5), (6, 1)])
    def test_row_sub_chunks_match_the_reference(self, coupled, corner, cells, monkeypatch):
        # _CELLS = 1 splits every row into single particles; above M*j each
        # row is one chunk.  Both must agree with the reference.
        ens, W = coupled
        monkeypatch.setattr(fokker_planck, "_CELLS", cells)
        got = _five_term_sums(ens, W, *corner)
        np.testing.assert_allclose(got, self.reference(ens, W, *corner), rtol=0, atol=1e-12)

    def test_conjugate_symmetry_in_every_dimension(self, coupled):
        ens, W = coupled
        z = Point(1.0, 1.0)
        plus = residual_table(ens, FrequencyGrid(W), z)
        minus = residual_table(ens, FrequencyGrid(-W), z)
        for (_, p), (_, q) in zip(plus, minus):
            assert abs(q - np.conj(p)) <= 1e-12

    def test_zero_frequency_is_exact_in_two_dimensions(self):
        y0 = np.array([0.2, 0.6])
        ens = solve_conditional_mkv(coupled_field(2, 3), y0, 300, square_grid(6), seed=3)
        assert weak_residual(ens, np.zeros(2), Point(1.0, 1.0)) == 0.0


@st.composite
def kernel_cases(draw):
    """A small coupled ensemble, a node (i, j) of its grid, a frequency set of
    1 to 9 rows holding w = 0, +-w pairs (the kernel's negated rows) and
    possibly their doubles +-2w (its double-angle rows) in a drawn order, and a chunk size that may
    split every row into particle sub-chunks."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    grid = Grid(horizon=Point(1.0, 0.75), nt=draw(st.integers(1, 6)), nx=draw(st.integers(1, 6)))
    y0 = draw(hnp.arrays(float, (n,), elements=st.floats(-1.0, 1.0)))
    M, seed = draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1))
    ens = solve_conditional_mkv(coupled_field(n, m), y0, M, grid, seed)
    away_from_zero = st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)
    pairs = draw(hnp.arrays(float, (draw(st.integers(0, 2)), n), elements=away_from_zero))
    doubles = [2 * pairs, -2 * pairs] if draw(st.booleans()) else []
    W = np.vstack([np.zeros((1, n)), pairs, -pairs, *doubles])
    W = W[draw(st.permutations(range(len(W))))]
    node = draw(st.integers(0, grid.nt)), draw(st.integers(0, grid.nx))
    return ens, W, node, draw(st.sampled_from([1, 7, 1 << 14]))


class TestKernelProperties:
    """Over random small ensembles: the exact zero at w = 0, conjugate symmetry
    of +-w (within one call -w takes +w's phase, so the per-frequency
    reference is what checks a negated row), and the tables against that
    reference."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kernel_cases())
    def test_zero_conjugates_and_reference(self, case):
        ens, W, (i, j), cells = case
        saved = fokker_planck._CELLS
        fokker_planck._CELLS = cells
        try:
            z = Point(i * ens.grid.dt, j * ens.grid.dx)
            residuals = np.array([res for _, res in residual_table(ens, FrequencyGrid(W), z)])
            sums = _five_term_sums(ens, W, i, j)
        finally:
            fokker_planck._CELLS = saved
        for w, res in zip(W, residuals):
            if not w.any():
                assert res == 0.0
            mirrors = residuals[(W == -w).all(axis=1)]  # nonempty: the set holds every -w
            assert np.all(np.abs(mirrors - np.conj(res)) <= 1e-12)
        alpha, beta = coefficient_table(ens.coeffs, ens.values, ens.grid, i, j)
        want = [_five_term_sum(ens, alpha, beta, w, i, j, 16) for w in W]
        np.testing.assert_allclose(sums, want, rtol=0, atol=1e-12)


class TestTrigPlan:
    """Which frequency rows the kernel evaluates with cos and sin: the rest are
    negations of those (cos kept, sin negated), doubles of those or of their
    negations (the double angle), or zero (cos = 1, sin = 0)."""

    @pytest.mark.parametrize(
        "W, direct",
        [
            ([1.0, -2.0], [1.0, -2.0]),  # -2 is neither twice +1 nor its negation
            ([-1.0, 2.0], [-1.0, 2.0]),
            ([0.0], []),
            ([1.0, -1.0, 2.0, -2.0, 0.0], [1.0]),  # -1 negates +1, -2 doubles -1
            ([-1.0, 1.0], [-1.0]),
            ([[0.5, -1.0], [3.0, 0.0], [1.0, -2.0]], [[0.5, -1.0], [3.0, 0.0]]),
            ([[0.5, -1.0], [-0.5, 1.0], [-1.0, 2.0]], [[0.5, -1.0]]),
            ([4.0, 2.0, 1.0], [4.0, 1.0]),  # 4 is twice a doubled row, so it is evaluated
            ([-2.0, 1.0, 2.0], [-2.0, 1.0]),  # 2 doubles 1 before it could negate -2
            ([2.0, -2.0, 1.0], [-2.0, 1.0]),  # -2 negates a doubled row only: evaluated
        ],
        ids=["1,-2", "-1,2", "0", "+-1,+-2,0", "-1,1", "n2", "n2-mirror", "1,2,4", "-2,1,2", "2,-2,1"],
    )
    def test_direct_rows(self, W, direct):
        W = FrequencyGrid(np.array(W)).values
        plan = _trig_plan(W)
        d = len(plan.direct)
        g = d + len(plan.mirrors)
        e = g + len(plan.halves)
        np.testing.assert_array_equal(plan.direct, np.reshape(direct, (-1, W.shape[1])))
        assert sorted(plan.order) == list(range(len(W)))
        np.testing.assert_array_equal(W[plan.order[:d]], plan.direct)
        np.testing.assert_array_equal(W[plan.order[d:g]], -plan.direct[plan.mirrors])
        np.testing.assert_array_equal(W[plan.order[g:e]], 2 * W[plan.order[:g]][plan.halves])
        assert not W[plan.order[e:]].any()


class TestRowStream:
    """The kernel reads coefficient rows as it goes: it never holds the whole
    rectangle's alpha and beta, and reads none on an empty rectangle."""

    def test_peak_memory_stays_below_half_the_rectangle_tables(self):
        k, M = 16, 500
        co = mean_reversion_field(0.5, (0.7, 0.5))
        ens = solve_conditional_mkv(co, 1.0, M, square_grid(k), seed=0)
        table_bytes = M * k * k * (1 + 1 * 2) * 8  # alpha (M, k, k, 1) and beta (M, k, k, 1, 2)
        freqs = FrequencyGrid(np.array([1.0, -2.0]))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            residual_table(ens, freqs, Point(1.0, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 2

    @pytest.mark.parametrize("measure", [True, False], ids=["measure", "measure-free"])
    @pytest.mark.parametrize("z", [Point(0.0, 1.0), Point(1.0, 0.0)], ids=["t=0", "x=0"])
    def test_axis_nodes_make_no_coefficient_call(self, ensemble, z, measure):
        calls = []

        def drift(z, y, mu):
            calls.append("drift")
            return np.zeros((len(y), 1))

        def diffusion(z, y, mu):
            calls.append("diffusion")
            return np.zeros((len(y), 1, 2))

        counting = CoefficientField(1, 2, drift, diffusion, depends_on_measure=measure)
        W = np.array([1.0, -2.0])
        table = residual_table(replace(ensemble, coeffs=counting), FrequencyGrid(W), z)
        got = [res for _, res in table]
        assert calls == []
        i, j = ensemble.grid.node_index(z)
        states = ensemble.values[:, i, j, 0]
        lhs = np.exp(-1j * np.outer(states, W)).mean(axis=0) - np.exp(-1j * W * ensemble.y0[0])
        np.testing.assert_allclose(got, lhs, rtol=0, atol=1e-15)


def fourier_mode(w) -> ItoTestFunction:
    """psi_w(y) = exp(-i w.y): its k-th derivative is psi_w times the k-th
    tensor power of -i w."""

    def derivative(order):
        def evaluate(y):
            out = np.exp(-1j * (y @ w))
            for _ in range(order):
                out = out[..., None] * (-1j * w)
            return out

        return evaluate

    return ItoTestFunction(*(derivative(order) for order in range(5)))


class TestAgainstChangeOfVariables:
    """With the idiosyncratic channel silenced, the five-term sum must equal
    the seven-term pathwise expansion of exp(-i w y) applied particle-wise;
    both residuals then agree to rounding.  A live idiosyncratic channel
    breaks the match by design: those integrals are the finite-size error.
    Silencing only the idiosyncratic cells fed to the expansion, the five-term
    sums are the particle mean of the seven terms for any ensemble."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
    def test_five_term_sums_are_the_particle_mean_of_the_ito_terms(self, n, m, M, seed, data):
        nt, nx = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        grid = Grid(horizon=Point(1.0, 0.75), nt=nt, nx=nx)
        y0 = data.draw(hnp.arrays(float, (n,), elements=st.floats(-1.0, 1.0)))
        w = data.draw(hnp.arrays(float, (n,), elements=st.floats(-3.0, 3.0)))
        i, j = data.draw(st.integers(0, nt)), data.draw(st.integers(0, nx))
        ens = solve_conditional_mkv(coupled_field(n, m), y0, M, grid, seed)
        alpha, beta = coefficient_table(ens.coeffs, ens.values, grid, i, j)
        common_only = np.zeros((M, m, nt, nx))
        common_only[:, 0] = ens.common_increments
        Y = np.ascontiguousarray(ens.values)
        terms = _batched_terms(fourier_mode(w), alpha, beta, common_only, Y, grid)[0]
        assert abs(_five_term_sums(ens, w[None], i, j)[0] - np.mean(sum(terms))) <= 1e-12

    def build(self, sigma):
        g = square_grid(8)
        co = mean_reversion_field(0.5, sigma)
        ens = solve_conditional_mkv(co, 1.0, 1, g, seed=5)
        incr = np.concatenate([ens.common_increments[None], ens.idio_increments[0]], axis=0)
        sheet = sheet_from_increments(g, incr, seed=5)
        w = 1.3
        fw = scalar_function(
            lambda y: np.exp(-1j * w * y),
            lambda y: -1j * w * np.exp(-1j * w * y),
            lambda y: -(w**2) * np.exp(-1j * w * y),
            lambda y: 1j * (w**3) * np.exp(-1j * w * y),
            lambda y: (w**4) * np.exp(-1j * w * y),
        )
        wr = weak_residual(ens, w, Point(1.0, 1.0))
        rep = ito_terms(fw, co, ens.particle(0), sheet, Point(1.0, 1.0))
        return abs(wr - (rep.lhs - rep.total))

    def test_matches_with_common_noise_only(self):
        assert self.build((0.7, 0.0)) < 1e-12

    def test_differs_once_idiosyncratic_noise_enters(self):
        assert self.build((0.7, 0.5)) > 0.01


class TestParticleRefinement:
    def test_paired_ensembles_reduce_the_residual(self):
        g = square_grid(16)
        co = mean_reversion_field(0.5, (0.7, 0.5))
        z = Point(1.0, 1.0)
        res_small, res_large = [], []
        for rep in range(6):
            common, idio = sample_replicate_increments(g, 2, 800, seed=7, rep=rep)
            small = solve_conditional_mkv(
                co, 1.0, 100, g, 0, common_increments=common, idio_increments=idio[:100]
            )
            large = solve_conditional_mkv(
                co, 1.0, 800, g, 0, common_increments=common, idio_increments=idio
            )
            res_small.append(abs(weak_residual(small, 1.0, z)))
            res_large.append(abs(weak_residual(large, 1.0, z)))
        assert np.mean(res_small) / np.mean(res_large) > 1.2


class TestProductDifferentiation:
    def test_half_tie_sum_matches_weighted_enumeration(self):
        fk = lambda q: 1.0 + q.t + 0.5 * q.x**2  # noqa: E731
        gk = lambda q: np.cos(q.t) + q.x  # noqa: E731
        z = Point(0.8, 1.3)
        got = _quarter_product_sum(fk, gk, z, 6)
        sub = Grid(horizon=Point(0.8, 1.3), nt=6, nx=6)
        cn = sub.corner_points(6, 6)
        F = np.broadcast_to(np.asarray(fk(cn), float), (6, 6))
        G = np.broadcast_to(np.asarray(gk(cn), float), (6, 6))
        brute = 0.0
        for p in range(6):
            for jj in range(6):
                for it in range(6):
                    for q in range(6):
                        wt = 1.0 if p < it else (0.5 if p == it else 0.0)
                        wx = 1.0 if jj > q else (0.5 if jj == q else 0.0)
                        brute += wt * wx * F[p, jj] * G[it, q]
        brute *= (sub.dt * sub.dx) ** 2
        assert got == pytest.approx(brute, abs=1e-12)

    def test_half_tie_weights_integrate_constants_exactly(self):
        one = lambda q: np.ones(np.shape(q.t))  # noqa: E731
        for k in (4, 9, 16):
            got = _quarter_product_sum(one, one, Point(0.8, 1.3), k)
            assert got == pytest.approx((0.8 * 1.3) ** 2 / 4.0, abs=1e-12)

    def test_identity_for_constant_kernels(self):
        one = lambda q: np.ones(np.shape(q.t))  # noqa: E731
        rep = lemma61_scalar_check(one, one, Point(1.0, 1.0), square_grid(128), 1e-3)
        assert rep.mixed_partial == pytest.approx(1.0, abs=5e-3)
        assert rep.product_rhs == pytest.approx(1.0, abs=1e-12)
        assert rep.residual == pytest.approx(1.000250e-3, abs=1e-8)
        assert rep.residual < 5e-3

    def test_identity_for_separable_kernels(self):
        rep = lemma61_scalar_check(
            lambda q: q.t, lambda q: q.x, Point(1.0, 1.0), square_grid(128), 1e-3
        )
        assert rep.product_rhs == pytest.approx(0.25, abs=5e-3)
        assert rep.residual == pytest.approx(1.430184e-3, abs=1e-8)
        assert rep.residual < 2e-3

    def test_rejects_nonpositive_step(self):
        one = lambda q: np.ones(np.shape(q.t))  # noqa: E731
        with pytest.raises(ValueError):
            lemma61_scalar_check(one, one, Point(1.0, 1.0), square_grid(16), 0.0)
