import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmhd import spaces
from lpmhd import spectral as sp
from lpmhd.spaces import (
    NormDomainError,
    NormSpec,
    gaussian_convolve,
    lp_norm,
    maximal_function,
    maximal_radii,
    norm_record,
    shell_lp_lq,
    tl_norm,
)

INF = math.inf
G = sp.Grid(2, 64)


def sobolev_oracle(f, s):
    """Independent Fourier-sum oracle for the homogeneous H^s norm."""
    w = sp.spectral_weights(f.grid)
    r = sp.radius(f.grid)
    c = f.coeffs[0] / f.grid.points**f.grid.dimension
    return math.sqrt(float(np.sum(w * r ** (2 * s) * np.abs(c) ** 2)))


class TestNormSpec:
    @pytest.mark.parametrize(
        "s,p,q,hom",
        [(1.0, 1.0, 2.0, True), (1.0, INF, 2.0, True), (1.0, 2.0, 1.0, True),
         (0.0, 2.0, 2.0, False), (-1.0, 2.0, 2.0, False)],
    )
    def test_invalid(self, s, p, q, hom):
        with pytest.raises(NormDomainError):
            NormSpec(s, p, q, homogeneous=hom)

    @pytest.mark.parametrize("s", [math.nan, INF, -INF])
    @pytest.mark.parametrize("hom", [True, False])
    def test_non_finite_s(self, s, hom):
        with pytest.raises(NormDomainError, match=f"s = {s} must be a finite number"):
            NormSpec(s, 2.0, 2.0, homogeneous=hom)

    def test_valid(self):
        NormSpec(0.0, INF, INF)          # the blow-up norm
        NormSpec(1.5, 2.0, INF)
        NormSpec(2.5, 4.0, 2.0, homogeneous=False)


class TestLpNorm:
    def test_zero(self):
        assert lp_norm(sp.zero_field(G), 2) == 0.0

    def test_cosine_closed_form(self):
        f = sp.from_function(G, lambda x, y: np.cos(x))
        assert abs(lp_norm(f, 2) - 1 / math.sqrt(2)) <= 1e-12

    def test_parseval(self):
        f = sp.random_band_limited(G, seed=1)
        w = sp.spectral_weights(G)
        fourier = float(np.sum(w * np.abs(f.coeffs[0]) ** 2)) / G.points ** (
            2 * G.dimension
        )
        assert abs(lp_norm(f, 2) ** 2 - fourier) <= 1e-12 * fourier

    def test_sup(self):
        f = sp.from_function(G, lambda x, y: np.sin(3 * x))
        assert abs(lp_norm(f, INF) - 1.0) <= 1e-12

    @pytest.mark.parametrize("grid", [sp.Grid(2, 128), sp.Grid(3, 32)])
    def test_vector_sup_is_max_magnitude(self, grid):
        for seed in range(3):
            v = sp.random_band_limited(grid, seed=seed, ncomp=grid.dimension)
            assert lp_norm(v, INF) == float(v.magnitude().max())

    def test_vector_sup_nan(self):
        values = sp.random_band_limited(G, seed=4, ncomp=2).values.copy()
        values[1, 5, 7] = math.nan
        assert math.isnan(lp_norm(sp.RealField(G, values=values), INF))

    def test_range(self):
        with pytest.raises(NormDomainError):
            lp_norm(sp.zero_field(G), 0.5)


class TestTlNorm:
    def test_zero(self):
        assert tl_norm(sp.zero_field(G), NormSpec(1.5, 2, 2)) == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("q", [2.0, INF])
    def test_single_block_equals_lp(self, s, q):
        # cos(2x) lives in the j=0 shell alone, where phi = 1 exactly
        f = sp.from_function(G, lambda x, y: np.cos(2 * x))
        for p in (2.0, 4.0):
            v = tl_norm(f, NormSpec(s, p, q))
            assert abs(v - lp_norm(f, p)) <= 1e-12 * lp_norm(f, p)

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(-50, 50, allow_nan=False).filter(lambda x: abs(x) > 1e-6))
    def test_scaling(self, c):
        f = sp.random_band_limited(G, seed=2)
        spec = NormSpec(1.5, 2, 2)
        base = tl_norm(f, spec)
        assert abs(tl_norm(c * f, spec) - abs(c) * base) <= 1e-12 * abs(c) * base

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
    def test_sobolev_band(self, s):
        for seed in range(20):
            f = sp.random_band_limited(G, seed=seed, decay=2.0, kmax=21)
            ratio = tl_norm(f, NormSpec(s, 2, 2)) / sobolev_oracle(f, s)
            assert 1 / 3 <= ratio <= 3

    def test_inhomogeneous_adds_lp(self):
        f = sp.random_band_limited(G, seed=3)
        hom = tl_norm(f, NormSpec(1.5, 2, 2))
        inhom = tl_norm(f, NormSpec(1.5, 2, 2, homogeneous=False))
        assert abs(inhom - hom - lp_norm(f, 2)) <= 1e-12 * inhom

    def test_blowup_norm_is_sup_of_blocks(self):
        f = sp.random_band_limited(G, seed=4)
        direct = max(
            float(sp.dyadic_block(f, j).magnitude().max()) for j in G.js
        )
        assert tl_norm(f, NormSpec(0.0, INF, INF)) == direct

    def test_derivative_equivalence_band(self):
        # ratio ||f||_{F^{s+1}} / ||grad f||_{F^s} sits in a fixed band,
        # stable when N doubles (same fields via shared band limit)
        ratios = {}
        for n in (64, 128):
            grid = sp.Grid(2, n)
            vals = []
            for seed in range(10):
                f = sp.random_band_limited(grid, seed=seed, decay=2.0, kmax=20)
                up = tl_norm(f, NormSpec(2.5, 2, 2))
                down = tl_norm(sp.jacobian(f), NormSpec(1.5, 2, 2))
                vals.append(up / down)
            ratios[n] = (min(vals), max(vals))
        for n in ratios:
            lo, hi = ratios[n]
            assert 0.2 <= lo <= hi <= 5.0
        # stability: the same continuum fields give near-identical ratios
        assert abs(ratios[64][1] - ratios[128][1]) <= 0.2 * ratios[64][1]


def _plancherel_inputs(grid):
    """White noise (scalar and vector), its Jacobian, a Riesz transform, a
    mixed derivative and a solenoidal field.  The derivatives and the Riesz
    transform are not Hermitian on the xi_d = 0 and N/2 planes, which a
    Plancherel sum must project out to match the values."""
    d = grid.dimension
    rng = np.random.default_rng(grid.points + d)
    noise = sp.RealField(grid, values=rng.standard_normal(grid.shape))
    return {
        "noise": noise,
        "noise-vector": sp.RealField(
            grid, values=rng.standard_normal((d,) + grid.shape)
        ),
        "jacobian": sp.jacobian(noise),
        "riesz": sp.riesz(noise, 0),
        "mixed": sp.spectral_derivative(noise, (1,) * d),
        "solenoidal": sp.random_solenoidal(grid, seed=3),
    }


class TestPlancherel:
    """p = q = 2 norms come from the coefficients; the shell path is the oracle."""

    @pytest.mark.parametrize("d,n", [(2, 64), (2, 128), (3, 16), (3, 32)])
    def test_matches_shell_path(self, d, n):
        grid = sp.Grid(d, n)
        for name, f in _plancherel_inputs(grid).items():
            mags = sp.block_magnitudes(f)
            for s in (-0.5, 1.5, 2.5):
                oracle = shell_lp_lq(mags, grid.js, s, 2.0, 2.0)
                value = tl_norm(f, NormSpec(s, 2, 2))
                assert abs(value - oracle) <= 1e-12 * oracle, (name, s)
                if s > 0:
                    oracle += lp_norm(f, 2)
                    value = tl_norm(f, NormSpec(s, 2, 2, homogeneous=False))
                    assert abs(value - oracle) <= 1e-12 * oracle, (name, s)

    @pytest.mark.parametrize("homogeneous", [True, False])
    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)])
    def test_coefficient_field_needs_no_transform(
        self, count_transforms, grid, homogeneous
    ):
        f = sp.random_solenoidal(grid, seed=4)
        f = sp.RealField(grid, coeffs=f.coeffs)
        counts = count_transforms()
        tl_norm(f, NormSpec(2.5, 2, 2, homogeneous=homogeneous))
        assert counts == []

    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)])
    def test_values_field_needs_one_forward(self, count_transforms, grid):
        values = sp.random_solenoidal(grid, seed=5).values
        f = sp.RealField(grid, values=values)
        counts = count_transforms()
        tl_norm(f, NormSpec(2.5, 2, 2, homogeneous=False))
        assert counts == [grid.dimension]
        assert f._coeffs is not None  # the one call was the forward transform


class TestShellReduce:
    def test_matches_manual(self):
        stack = np.abs(np.random.default_rng(0).normal(size=(3, 8, 8)))
        js = [0, 1, 2]
        manual = np.mean(
            np.sqrt(sum((2.0 ** j * stack[i]) ** 2 for i, j in enumerate(js))) ** 2
        ) ** 0.5
        assert abs(shell_lp_lq(stack, js, 1.0, 2, 2) - manual) <= 1e-12 * manual


class TestMaximalFunction:
    def test_constant(self):
        f = sp.from_function(G, lambda x, y: np.full_like(x, -2.0))
        out = maximal_function(f)
        assert np.max(np.abs(out.values - 2.0)) <= 1e-12

    def test_dominates_pointwise(self):
        f = sp.random_band_limited(G, seed=5)
        out = maximal_function(f)
        assert np.all(out.values[0] >= np.abs(f.values[0]) - 1e-13)

    def test_sublinear(self):
        f = sp.random_band_limited(G, seed=6)
        g = sp.random_band_limited(G, seed=7)
        both = maximal_function(sp.RealField(G, values=f.values + g.values))
        bound = maximal_function(f).values + maximal_function(g).values
        assert np.all(both.values <= bound + 1e-12)

    def test_bump_oracle(self):
        # unit-mass single-site bump probed at lattice distance R: the value
        # should match (normalized ball volume)^-1 within a factor two
        grid = sp.Grid(2, 128)
        values = np.zeros(grid.shape)
        values[0, 0] = grid.points**grid.dimension  # unit mean mass
        f = sp.RealField(grid, values=values)
        out = maximal_function(f).values[0]
        m = 5
        big_r = grid.spacing * 2.0**m  # a ladder radius
        probe = out[2**m, 0]
        expected = (2 * math.pi) ** 2 / (math.pi * big_r**2)
        assert expected / 2 <= probe <= 2 * expected

    def test_brute_force_ladder_oracle(self):
        # independent loop-based ball averages at a probe point
        grid = sp.Grid(2, 32)
        rng = np.random.default_rng(8)
        values = rng.normal(size=grid.shape)
        f = sp.RealField(grid, values=values)
        out = maximal_function(f).values[0]
        x = np.arange(grid.points) * grid.spacing
        wrapped = np.minimum(x, 2 * math.pi - x)
        probe = (3, 17)
        dx = wrapped[np.abs(np.arange(grid.points) - probe[0]) % grid.points]
        dy = wrapped[np.abs(np.arange(grid.points) - probe[1]) % grid.points]
        dist2 = dx[:, None] ** 2 + dy[None, :] ** 2
        best = abs(values[probe])
        for r in maximal_radii(grid):
            mask = dist2 <= r * r * (1 + 1e-12)
            best = max(best, np.abs(values)[mask].mean())
        assert abs(out[probe] - best) <= 1e-10 * best

    def test_scalar_only(self):
        v = sp.random_band_limited(G, seed=9, ncomp=2)
        with pytest.raises(sp.SpectralError):
            maximal_function(v)

    @settings(max_examples=10, deadline=None)
    @given(c=st.floats(-20, 20, allow_nan=False))
    def test_homogeneity(self, c):
        f = sp.random_band_limited(G, seed=10)
        scaled = maximal_function(c * f).values
        base = abs(c) * maximal_function(f).values
        assert np.max(np.abs(scaled - base)) <= 1e-12 * (1 + abs(c))


class TestMajorant:
    def test_gaussian_convolution_bound(self):
        # sup_eps |f * phi_eps| <= A M f pointwise with A = 1, 5% slack
        for seed in range(5):
            f = sp.random_band_limited(G, seed=seed, decay=1.5)
            mf = maximal_function(f).values[0]
            best = np.abs(f.values[0]).copy()
            eps = G.spacing
            while eps <= math.pi / 2:
                np.maximum(
                    best, np.abs(gaussian_convolve(f, eps).values[0]), out=best
                )
                eps *= 2
            assert np.all(best <= 1.05 * mf)

    def test_unit_mass(self):
        f = sp.from_function(G, lambda x, y: np.full_like(x, 3.0))
        out = gaussian_convolve(f, 0.3)
        assert np.max(np.abs(out.values - 3.0)) <= 1e-12


class TestVectorMaximalQuick:
    def test_family_bound_finite(self):
        fields = [sp.random_band_limited(G, seed=s) for s in range(6)]
        raw = np.stack([np.abs(f.values[0]) for f in fields])
        maxed = np.stack([maximal_function(f).values[0] for f in fields])
        for p, q in [(2.0, 2.0), (4.0, 2.0), (2.0, INF)]:
            lhs = shell_lp_lq(maxed, range(6), 0.0, p, q)
            rhs = shell_lp_lq(raw, range(6), 0.0, p, q)
            assert lhs / rhs < 5.0


def test_ball_average_normalized():
    # every ball kernel has unit mass, so averaging keeps constants
    kernels = spaces._ball_kernels(G)
    assert len(kernels) == len(maximal_radii(G))
    for spec in kernels:
        assert abs(spec[(0,) * G.dimension] - 1.0) <= 1e-12


def test_norm_record_shape():
    rec = norm_record("snap", NormSpec(0.0, INF, INF), 1.25)
    assert rec == {
        "field-id": "snap", "s": 0.0, "p": math.inf, "q": math.inf,
        "homogeneous": True, "value": 1.25,
    }
