import ast
import inspect
import math
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpmhd
from lpmhd import spaces
from lpmhd import spectral as sp
from oracles import partition_defect


G64 = sp.Grid(2, 64)


def rel_max(a, b):
    denom = np.max(np.abs(b))
    return np.max(np.abs(a - b)) / (denom if denom > 0 else 1.0)


class TestGrid:
    def test_valid(self):
        g = sp.Grid(2, 128)
        assert g.j0 == -1 and g.j_max == 6
        assert g.shape == (128, 128)
        assert g.spectral_shape == (128, 65)

    @pytest.mark.parametrize("d,n", [(1, 64), (4, 64), (2, 8), (2, 100), (3, 12)])
    def test_invalid(self, d, n):
        with pytest.raises(sp.SpectralError):
            sp.Grid(d, n)

    def test_dyadic_range(self):
        assert sp.Grid(2, 16).j_max == 3  # j_max >= j0 + 2
        assert list(sp.Grid(2, 64).js) == [-1, 0, 1, 2, 3, 4, 5]


# every lattice table cached per Grid
GRID_TABLES = {
    "frequencies": sp.frequencies,
    "radius": sp.radius,
    "dealias_mask": sp.dealias_mask,
    "spectral_weights": sp.spectral_weights,
    "make_filter_bank": sp.make_filter_bank,
    "plancherel_weights": sp._plancherel_weights,
    "leray_factors": sp._leray_factors,
    "cube_tables": sp._cube_tables,
    "shell_boxes": sp._shell_boxes,
    "ball_kernels": spaces._ball_kernels,
}


def _table_arrays(table):
    if isinstance(table, sp.FilterBank):
        return list(table.phi.values()) + list(table.chi.values())
    if isinstance(table, tuple):
        return list(table)
    return [table]


def test_grid_tables_lists_every_grid_keyed_cache():
    """GRID_TABLES is every lru_cache function of spectral and spaces whose
    first parameter is a Grid; _half_lattice_modes, keyed by (dimension,
    kmax), is the one other cache there."""
    keyed, other = set(), set()
    for module in (sp, spaces):
        for fn in vars(module).values():
            if not (callable(fn) and hasattr(fn, "cache_info")):
                continue
            first = next(iter(inspect.signature(fn).parameters))
            hint = typing.get_type_hints(fn.__wrapped__).get(first)
            (keyed if hint is sp.Grid else other).add(fn.__name__)
    assert keyed == {fn.__name__ for fn in GRID_TABLES.values()}
    assert other == {"_half_lattice_modes"}


@pytest.mark.parametrize("name", sorted(GRID_TABLES))
class TestGridKeyedTables:
    def test_equal_grids_share_one_entry(self, name):
        a, b = sp.Grid(2, 64), sp.Grid(2, 64)
        assert a is not b
        assert GRID_TABLES[name](a) is GRID_TABLES[name](b)

    def test_read_only(self, name):
        for arr in _table_arrays(GRID_TABLES[name](sp.Grid(2, 64))):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0

    def test_dimensions_never_share(self, name):
        two, three = (GRID_TABLES[name](sp.Grid(d, 64)) for d in (2, 3))
        assert two is not three
        pairs = zip(_table_arrays(two), _table_arrays(three))
        assert all(a.shape != b.shape for a, b in pairs)


class TestProfiles:
    def test_chi_plateaus(self):
        r = np.array([0.0, 0.5, 1.0, 4 / 3, 2.0, 10.0])
        chi = sp.chi_profile(r)
        assert np.all(chi[:3] == 1.0)
        assert np.all(chi[3:] == 0.0)

    def test_chi_monotone_transition(self):
        r = np.linspace(1.0, 4 / 3, 200)
        chi = sp.chi_profile(r)
        assert np.all(np.diff(chi) <= 1e-15)
        assert np.all((chi >= 0) & (chi <= 1))

    def test_phi_value_at_two(self):
        # phi(2) = chi(1) - chi(2) = 1
        assert sp.phi_profile(np.array([2.0]))[0] == 1.0

    def test_phi_support(self):
        r = np.array([0.0, 0.5, 0.999, 1.0, 8 / 3, 2.7, 5.0])
        phi = sp.phi_profile(r)
        assert np.all(phi[:4] == 0.0)
        assert np.all(phi[4:] == 0.0)
        assert sp.phi_profile(np.array([1.5]))[0] > 0.9


class TestFilterBank:
    def test_partition_of_unity(self):
        bank = sp.make_filter_bank(G64)
        assert partition_defect(bank) <= 1e-12

    def test_zero_frequency(self):
        bank = sp.make_filter_bank(G64)
        origin = (0,) * G64.dimension
        assert bank.chi[G64.j0][origin] == 1.0
        for j in G64.js:
            assert bank.phi[j][origin] == 0.0

    def test_disjoint_supports(self):
        bank = sp.make_filter_bank(G64)
        for j in G64.js:
            for k in G64.js:
                if abs(j - k) >= 2:
                    assert np.all(bank.phi[j] * bank.phi[k] == 0.0)

    def test_deterministic(self):
        a = sp.make_filter_bank(sp.Grid(2, 64))
        b = sp.make_filter_bank(sp.Grid(2, 64))
        for j in G64.js:
            assert np.array_equal(a.phi[j], b.phi[j])

    def test_top_lowpass_is_identity(self):
        bank = sp.make_filter_bank(G64)
        assert np.all(bank.chi[G64.j_max + 1] == 1.0)


class TestDyadicBlock:
    def test_single_mode_lands_in_one_block(self):
        f = sp.from_function(G64, lambda x, y: np.cos(2 * x))
        d0 = sp.dyadic_block(f, 0)
        assert rel_max(d0.values, f.values) <= 1e-12
        for j in G64.js:
            if j != 0:
                blk = sp.dyadic_block(f, j)
                assert np.max(np.abs(blk.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_constant_has_no_blocks(self):
        f = sp.from_function(G64, lambda x, y: np.full_like(x, 3.0))
        for j in G64.js:
            assert np.max(np.abs(sp.dyadic_block(f, j).values)) <= 1e-13

    def test_partition_reconstruction(self):
        f = sp.random_band_limited(G64, seed=1)
        total = sp.low_pass(f, G64.j0)
        for j in G64.js:
            total = total + sp.dyadic_block(f, j)
        assert rel_max(total.values, f.values) <= 1e-12

    def test_out_of_range_is_error(self):
        f = sp.random_band_limited(G64, seed=1)
        with pytest.raises(sp.SpectralError):
            sp.dyadic_block(f, G64.j_max + 1)
        with pytest.raises(sp.SpectralError):
            sp.dyadic_block(f, G64.j0 - 1)
        # a non-integer index used to pass the range check, then raise KeyError
        with pytest.raises(sp.SpectralError, match="outside"):
            sp.dyadic_block(f, 0.5)

    def test_block_composition_exact_zero(self):
        f = sp.random_band_limited(G64, seed=2)
        for j, k in [(-1, 1), (0, 2), (1, 4), (5, 0)]:
            out = sp.dyadic_block(sp.dyadic_block(f, k), j)
            assert np.all(out.coeffs == 0.0)
            assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("d,n", [(2, 64), (2, 128), (3, 16), (3, 32)])
    @pytest.mark.parametrize("vector", [False, True])
    def test_block_magnitudes_match_per_shell_stack(self, d, n, vector):
        # the raw-array shell loop gives the dyadic_block stack bit for bit
        grid = sp.Grid(d, n)
        ncomp = d if vector else 1
        f = sp.RealField(
            grid, values=np.random.default_rng(n).standard_normal((ncomp,) + grid.shape)
        )
        per_shell = np.stack([sp.dyadic_block(f, j).magnitude() for j in grid.js])
        assert np.array_equal(sp.block_magnitudes(f), per_shell)

    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_block_magnitudes_skip_empty_shells(self, count_transforms, ncomp):
        # kmax = 10 leaves shells j >= 4 empty at N=64: they are written as
        # the zeros their inverses would give, without a transform; a NaN
        # coefficient times phi_j is NaN in every shell, even where phi_j is
        # 0, so no shell is skipped and the NaN still propagates
        f = sp.random_band_limited(G64, seed=5, kmax=10, ncomp=ncomp)
        per_shell = np.stack([sp.dyadic_block(f, j).magnitude() for j in G64.js])
        counts = count_transforms()
        assert np.array_equal(sp.block_magnitudes(f), per_shell)
        assert sum(counts) == ncomp * len(range(G64.j0, 4))
        coeffs = f.coeffs.copy()
        coeffs[..., 0, 20] = np.nan
        assert np.isnan(sp.block_magnitudes(sp.RealField(G64, coeffs=coeffs))).all()

    @pytest.mark.parametrize("d,n", [(2, 64), (2, 128), (2, 256), (3, 16), (3, 32)])
    @pytest.mark.parametrize("kmax", [None, "full"])
    def test_box_inverse_matches_full_inverse(self, d, n, kmax):
        # every shell box, dealiased and full-band: the pruned inverse of the
        # gathered box product has the bits of the full product's inverse
        grid = sp.Grid(d, n)
        kmax = n // 2 - 1 if kmax == "full" else kmax
        c = sp.random_band_limited(grid, seed=9, ncomp=2, kmax=kmax).coeffs
        bank = sp.make_filter_bank(grid)
        boxes = sp._shell_boxes(grid)
        assert len(boxes) >= 3
        for j, phi in zip(grid.js, boxes):
            k = phi.shape[-1] - 1
            assert 2 * k + 1 < n
            box = sp._gather(grid, c, k) * phi
            expect = sp._inverse(grid, c * bank.phi[j])
            assert np.array_equal(sp._inverse(grid, box, k), expect), j

    @pytest.mark.parametrize("d,n", [(2, 128), (3, 32)])
    def test_cube_inverse_restores_batch_axes(self, count_transforms, d, n):
        # the (2, d) cube of a dealiased pair, one field's (d,) cube and one
        # component's: the box inverse has the bits of the full inverse of
        # the scattered spectrum, restores the batch axes, and counts one
        # transform per batch entry
        grid = sp.Grid(d, n)
        pair = np.stack([sp.dealias(sp.random_solenoidal(grid, seed=s)).coeffs
                         for s in (3, 4)])
        cube = sp._gather(grid, pair)
        counts = count_transforms()
        for c in (cube, cube[1], cube[1, 0]):
            expect = sp._inverse(grid, sp._scatter(grid, c))
            counts.clear()
            got = sp._inverse(grid, c, grid.dealias_limit)
            assert counts == [math.prod(c.shape[:-d])]
            assert got.shape == c.shape[:-d] + grid.shape
            assert np.array_equal(got, expect)

    def test_nonfinite_mode_outside_every_box_poisons_every_shell(self, box_passes):
        # 2D N=128 inverse-transforms its leading shells from their boxes; a
        # NaN at a high mode, outside each box, still makes every shell NaN,
        # as NaN * phi_j = NaN does in the full product
        grid = sp.Grid(2, 128)
        f = sp.random_band_limited(grid, seed=6)
        per_shell = np.stack([sp.dyadic_block(f, j).magnitude() for j in grid.js])
        assert box_passes == []
        assert np.array_equal(sp.block_magnitudes(f), per_shell)
        assert box_passes
        coeffs = f.coeffs.copy()
        coeffs[0, 60, 30] = np.nan
        assert np.isnan(sp.block_magnitudes(sp.RealField(grid, coeffs=coeffs))).all()

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
    )
    def test_linearity(self, a, b):
        f = sp.random_band_limited(G64, seed=3)
        g = sp.random_band_limited(G64, seed=4)
        lhs = sp.dyadic_block(a * f + b * g, 2)
        rhs = a * sp.dyadic_block(f, 2) + b * sp.dyadic_block(g, 2)
        scale = max(np.max(np.abs(rhs.values)), 1e-30)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * max(scale, 1.0)


class TestLowPass:
    def test_constant_passes(self):
        f = sp.from_function(G64, lambda x, y: np.full_like(x, -1.5))
        for j in range(G64.j0, G64.j_max + 2):
            assert rel_max(sp.low_pass(f, j).values, f.values) <= 1e-13

    def test_high_mode_blocked(self):
        # S_1 multiplier at |xi| = 8 is chi(8/2) = chi(4) = 0
        f = sp.from_function(G64, lambda x, y: np.cos(8 * x))
        out = sp.low_pass(f, 1)
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_top_recovers(self):
        f = sp.random_band_limited(G64, seed=5)
        out = sp.low_pass(f, G64.j_max + 1)
        assert rel_max(out.values, f.values) <= 1e-12

    def test_out_of_range(self):
        f = sp.random_band_limited(G64, seed=5)
        with pytest.raises(sp.SpectralError):
            sp.low_pass(f, G64.j_max + 2)
        with pytest.raises(sp.SpectralError, match="outside"):
            sp.low_pass(f, 0.5)


class TestSupportIdentity:
    def test_paraproduct_support_identity(self):
        # Delta_j(S_{k-1}f Delta_k f) = 0 for |j-k| >= 5, dealiased products
        for seed in range(5):
            f = sp.dealias(sp.random_band_limited(G64, seed=seed, decay=1.0))
            sup = np.max(np.abs(f.values))
            for j in G64.js:
                for k in range(G64.j0 + 1, G64.j_max + 1):
                    if abs(j - k) < 5:
                        continue
                    prod = sp.multiply(sp.low_pass(f, k - 1), sp.dyadic_block(f, k))
                    out = sp.dyadic_block(prod, j)
                    assert np.max(np.abs(out.values)) <= 1e-10 * sup**2


class TestDerivatives:
    def test_sin_to_cos(self):
        f = sp.from_function(G64, lambda x, y: np.sin(x))
        out = sp.spectral_derivative(f, (1, 0))
        expect = sp.from_function(G64, lambda x, y: np.cos(x))
        assert np.max(np.abs(out.values - expect.values)) <= 1e-12

    def test_constant(self):
        f = sp.from_function(G64, lambda x, y: np.full_like(x, 4.0))
        out = sp.spectral_derivative(f, (2, 1))
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_div_of_rotated_gradient(self):
        psi = sp.random_band_limited(G64, seed=6)
        v = sp.RealField(
            G64,
            coeffs=np.concatenate(
                [
                    (-sp.spectral_derivative(psi, (0, 1))).coeffs,
                    sp.spectral_derivative(psi, (1, 0)).coeffs,
                ]
            ),
        )
        div = sp.divergence(v)
        assert np.max(np.abs(div.values)) <= 1e-12 * np.max(np.abs(psi.values))

    def test_order_cap(self):
        f = sp.random_band_limited(G64, seed=6)
        with pytest.raises(sp.SpectralError):
            sp.spectral_derivative(f, (3, 2))

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize(
        "grid", [sp.Grid(2, 64), sp.Grid(2, 128), sp.Grid(3, 16), sp.Grid(3, 32)],
        ids=["2d-64", "2d-128", "3d-16", "3d-32"],
    )
    def test_gradient_sup_matches_batched_inverse(self, grid, nan):
        # one gradient component at a time, squares added in (a, b) order,
        # has the bits of one batched inverse of every component summed
        # over axis 0
        v = sp.random_solenoidal(grid, seed=8, kmax=grid.points // 2 - 1)
        coeffs = v.coeffs.copy()
        if nan:
            coeffs[(1,) + (3,) * grid.dimension] = np.nan
        grads = sp._inverse(grid, sp.jacobian(sp.RealField(grid, coeffs=coeffs)).coeffs)
        want = float(np.sqrt(np.square(grads).sum(axis=0).max()))
        got = sp.jacobian_sup_norm(sp.RealField(grid, coeffs=coeffs))
        assert repr(got) == repr(want)
        assert math.isnan(got) == nan


class TestRiesz:
    def test_single_mode(self):
        f = sp.from_function(G64, lambda x, y: np.cos(x))
        out = sp.riesz(f, 0)
        expect = sp.from_function(G64, lambda x, y: -np.sin(x))
        assert np.max(np.abs(out.values - expect.values)) <= 1e-12

    def test_sum_of_squares(self):
        f = sp.random_band_limited(G64, seed=7)
        total = sp.zero_field(G64)
        for axis in range(2):
            total = total + sp.riesz(sp.riesz(f, axis), axis)
        mean = f.mean()[0]
        assert np.max(np.abs(total.values + (f.values - mean))) <= 1e-12

    def test_constant_killed(self):
        f = sp.from_function(G64, lambda x, y: np.full_like(x, 2.0))
        assert np.max(np.abs(sp.riesz(f, 1).values)) <= 1e-14

    def test_scalar_only(self):
        v = sp.random_band_limited(G64, seed=7, ncomp=2)
        with pytest.raises(sp.SpectralError):
            sp.riesz(v, 0)


class TestLeray:
    def test_gradient_annihilated(self):
        psi = sp.random_band_limited(G64, seed=8)
        grad = sp.gradient(psi)
        out = sp.leray_project(grad)
        assert np.max(np.abs(out.values)) <= 1e-12 * np.max(np.abs(grad.values))

    def test_solenoidal_fixed(self):
        v = sp.random_solenoidal(G64, seed=9)
        out = sp.leray_project(v)
        assert rel_max(out.values, v.values) <= 1e-12
        assert out.solenoidal

    def test_idempotent(self):
        v = sp.random_band_limited(G64, seed=10, ncomp=2)
        once = sp.leray_project(v)
        twice = sp.leray_project(once)
        assert rel_max(twice.values, once.values) <= 1e-12

    def test_residual_flagging(self):
        v = sp.leray_project(sp.random_band_limited(G64, seed=11, ncomp=2))
        assert sp.solenoidal_residual(v) <= 1e-10

    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)], ids=["2d-64", "3d-16"])
    def test_projection_subtracts_the_one_complement(self, grid):
        rng = np.random.default_rng(12)
        d = grid.dimension
        for batch in ((), (2,)):
            shape = batch + (d,) + grid.spectral_shape
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            projected = sp._leray(grid, c.copy())
            assert np.array_equal(projected, c - sp._leray_complement(grid, c))
        halves = [sp._leray(grid, half.copy()) for half in c]
        assert np.array_equal(projected, np.stack(halves))


class TestRealField:
    def test_representations_agree(self):
        f = sp.random_band_limited(G64, seed=12)
        coeffs = f.coeffs
        fresh = sp._forward(G64, f.values)
        assert np.max(np.abs(fresh - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))

    def test_parseval(self):
        f = sp.random_band_limited(G64, seed=13)
        phys = float(np.mean(f.values[0] ** 2))
        w = sp.spectral_weights(G64)
        spec = float(np.sum(w * np.abs(f.coeffs[0]) ** 2)) / G64.points ** (
            2 * G64.dimension
        )
        assert abs(phys - spec) <= 1e-12 * phys

    def test_shape_validation(self):
        with pytest.raises(sp.SpectralError):
            sp.RealField(G64, values=np.zeros((3, 64)))
        with pytest.raises(sp.SpectralError):
            sp.RealField(G64)

    def test_grid_mismatch_add(self):
        f = sp.random_band_limited(G64, seed=1)
        g = sp.random_band_limited(sp.Grid(2, 32), seed=1, kmax=10)
        with pytest.raises(sp.SpectralError):
            _ = f + g

    def test_snapshot_roundtrip(self, tmp_path):
        v = sp.random_solenoidal(G64, seed=14)
        path = tmp_path / "snap.npz"
        sp.save_snapshot(v, path, time=0.25)
        back, t = sp.load_snapshot(path)
        assert t == 0.25
        assert back.solenoidal
        assert np.array_equal(back.values, v.values)


class TestRandomFields:
    def test_deterministic(self):
        a = sp.random_band_limited(G64, seed=15)
        b = sp.random_band_limited(G64, seed=15)
        assert np.array_equal(a.values, b.values)

    def test_mode_table_cached_read_only(self):
        # the first draw builds the (d, kmax) mode table, the second reads
        # the cached one and gives the same field
        sp._half_lattice_modes.cache_clear()
        a = sp.random_band_limited(G64, seed=15, kmax=12)
        b = sp.random_band_limited(G64, seed=15, kmax=12)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert sp._half_lattice_modes.cache_info().hits >= 1
        table = sp._half_lattice_modes(2, 12)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_cross_resolution_identity(self):
        # same seed + band limit describe the same function at every N
        coarse = sp.random_solenoidal(sp.Grid(2, 64), seed=16, kmax=20)
        fine = sp.random_solenoidal(sp.Grid(2, 128), seed=16, kmax=20)
        assert np.max(np.abs(coarse.values - fine.values[:, ::2, ::2])) <= 1e-12

    def test_band_limit(self):
        f = sp.random_band_limited(G64, seed=17, kmax=10)
        freqs = sp.frequencies(G64)
        outside = (np.abs(freqs[0]) > 10) | (np.abs(freqs[1]) > 10)
        assert np.max(np.abs(f.coeffs[0] * outside)) <= 1e-9 * np.max(np.abs(f.coeffs))

    def test_kmax_validation(self):
        with pytest.raises(sp.SpectralError):
            sp.random_band_limited(G64, seed=1, kmax=40)

    @staticmethod
    def full_spectrum_oracle(grid, seed, ncomp, kmax, decay=2.0, amplitude=1.0):
        """The field assembled on the full complex spectrum (every mode and
        its conjugate) and brought back with a complex inverse FFT."""
        modes = sp._half_lattice_modes(grid.dimension, kmax)
        draws = np.random.default_rng(seed).standard_normal((ncomp, len(modes), 2))
        coeff = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
        coeff = coeff * np.sqrt((modes.astype(float) ** 2).sum(axis=1)) ** (-decay)
        coeff *= amplitude / np.sqrt(2.0 * np.sum(np.abs(coeff) ** 2))
        n = grid.points
        spec = np.zeros((ncomp,) + grid.shape, dtype=complex)
        pos = tuple(np.mod(modes[:, a], n) for a in range(grid.dimension))
        neg = tuple(np.mod(-modes[:, a], n) for a in range(grid.dimension))
        for m in range(ncomp):
            spec[(m,) + pos] = coeff[m]
            spec[(m,) + neg] = np.conj(coeff[m])
        spec *= float(n) ** grid.dimension
        axes = tuple(range(1, grid.dimension + 1))
        return np.real(np.fft.ifftn(spec, axes=axes))

    @pytest.mark.parametrize("d,n", [(2, 64), (3, 16)])
    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("kmax", [None, 3])
    def test_matches_full_spectrum_oracle(self, d, n, vector, kmax):
        grid = sp.Grid(d, n)
        ncomp = d if vector else 1
        f = sp.random_band_limited(grid, seed=21, ncomp=ncomp, kmax=kmax)
        band = grid.dealias_limit if kmax is None else kmax
        expect = self.full_spectrum_oracle(grid, 21, ncomp, band)
        assert rel_max(f.values, expect) <= 1e-12
        outside = np.zeros(grid.spectral_shape, dtype=bool)
        for freq in sp.frequencies(grid):
            outside = outside | (np.abs(freq) > band)
        assert np.all(f.coeffs[:, outside] == 0.0)


class TestTransformEntryPoint:
    """spectral._forward/_inverse are the only places that call scipy.fft."""

    @staticmethod
    def fft_aliases(tree):
        """Names bound to scipy.fft (or its functions) by import statements."""
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if node.module.startswith("scipy.fft") or (
                        node.module == "scipy" and alias.name == "fft"
                    ):
                        names.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("scipy.fft"):
                        names.add(alias.asname or alias.name.split(".")[0])
        return names

    def test_only_spectral_imports_scipy_fft(self):
        src = Path(lpmhd.__file__).parent
        offenders = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            reaches = any(
                isinstance(node, ast.Attribute)
                and node.attr == "fft"
                and isinstance(node.value, ast.Name)
                and node.value.id == "scipy"
                for node in ast.walk(tree)
            )
            if path.name != "spectral.py" and (self.fft_aliases(tree) or reaches):
                offenders.append(path.name)
        assert offenders == []

    def test_spectral_calls_scipy_fft_only_in_the_pair(self):
        tree = ast.parse(Path(sp.__file__).read_text())
        aliases = self.fft_aliases(tree)
        assert aliases == {"sfft"}
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in ("_forward", "_inverse"):
                allowed |= {id(n) for n in ast.walk(node)}
        uses = [
            n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in aliases
        ]
        assert uses and all(id(n) in allowed for n in uses)
