import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lpmhd import paracalc
from lpmhd import spectral as sp
from lpmhd.paracalc import (
    bony_reconstruction,
    commutator_family,
    commutator_split_family,
    paraproduct,
    remainder,
)

G = sp.Grid(2, 64)


def rel_l2(a, b):
    denom = np.linalg.norm(b)
    return np.linalg.norm(a - b) / (denom if denom > 0 else 1.0)


# Reference Bony operators: one transform loop per operator, every block
# transformed whether empty or not, nothing shared between operators.


def paraproduct_oracle(u, v):
    grid = u.grid
    bank = sp.make_filter_bank(grid)
    u, v = sp.dealias(u), sp.dealias(v)
    uhat, vhat = u.coeffs[0], v.coeffs[0]
    acc = np.zeros(grid.spectral_shape, dtype=complex)
    for j in range(grid.j0 + 1, grid.j_max + 1):
        low = sp._inverse(grid, bank.chi[j - 1] * uhat)
        blk = sp._inverse(grid, bank.phi[j] * vhat)
        acc += sp._masked_product(grid, low, blk)
    return sp.RealField(grid, coeffs=acc[np.newaxis])


def remainder_oracle(u, v):
    grid = u.grid
    bank = sp.make_filter_bank(grid)
    u, v = sp.dealias(u), sp.dealias(v)
    uhat, vhat = u.coeffs[0], v.coeffs[0]
    blocks_v = {j: sp._inverse(grid, bank.phi[j] * vhat) for j in grid.js}
    acc = np.zeros(grid.spectral_shape, dtype=complex)
    for j in grid.js:
        tilde = sum(
            blocks_v[j + d] for d in (-1, 0, 1) if grid.j0 <= j + d <= grid.j_max
        )
        blk_u = sp._inverse(grid, bank.phi[j] * uhat)
        acc += sp._masked_product(grid, blk_u, tilde)
    return sp.RealField(grid, coeffs=acc[np.newaxis])


def bony_base_terms_oracle(u, v):
    u, v = sp.dealias(u), sp.dealias(v)
    p0u, p0v = sp.low_pass(u, u.grid.j0), sp.low_pass(v, v.grid.j0)
    s1u, s1v = sp.low_pass(u, u.grid.j0 + 1), sp.low_pass(v, v.grid.j0 + 1)
    return sp.multiply(p0u, s1v) + sp.multiply(s1u, p0v) - sp.multiply(p0u, p0v)


def bony_reconstruction_oracle(u, v):
    return (
        paraproduct_oracle(u, v)
        + paraproduct_oracle(v, u)
        + remainder_oracle(u, v)
        + bony_base_terms_oracle(u, v)
    )


class TestParaproduct:
    def test_constant_advector_telescopes(self):
        # T_c v = c (v - S_{j0+1} v): the sum starts at j0+1, so the base
        # low-pass block (mean + Delta_{j0}) is what gets removed
        c = 2.5
        u = sp.from_function(G, lambda x, y: np.full_like(x, c))
        v = sp.dealias(sp.random_band_limited(G, seed=1))
        out = paraproduct(u, v)
        expect = c * (v - sp.low_pass(v, G.j0 + 1))
        assert rel_l2(out.values, expect.values) <= 1e-12

    def test_constant_argument_vanishes(self):
        u = sp.random_band_limited(G, seed=2)
        v = sp.from_function(G, lambda x, y: np.full_like(x, 7.0))
        out = paraproduct(u, v)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_grid_mismatch(self):
        u = sp.random_band_limited(G, seed=3)
        v = sp.random_band_limited(sp.Grid(2, 32), seed=3, kmax=10)
        with pytest.raises(sp.SpectralError):
            paraproduct(u, v)

    @settings(max_examples=10, deadline=None)
    @given(a=st.floats(-5, 5, allow_nan=False))
    def test_linear_in_first_argument(self, a):
        u = sp.random_band_limited(G, seed=4)
        v = sp.random_band_limited(G, seed=5)
        lhs = paraproduct(a * u, v)
        rhs = a * paraproduct(u, v)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-11 * (1 + abs(a))


class TestRemainder:
    def test_separated_blocks_vanish(self):
        u = sp.dyadic_block(sp.random_band_limited(G, seed=6, decay=1.0), 2)
        v = sp.dyadic_block(sp.random_band_limited(G, seed=7, decay=1.0), 5)
        out = remainder(u, v)
        assert np.max(np.abs(out.values)) == 0.0

    def test_zero_argument(self):
        u = sp.random_band_limited(G, seed=8)
        out = remainder(u, sp.zero_field(G))
        assert np.max(np.abs(out.values)) == 0.0

    def test_symmetric(self):
        u = sp.random_band_limited(G, seed=9)
        v = sp.random_band_limited(G, seed=10)
        assert rel_l2(remainder(u, v).values, remainder(v, u).values) <= 1e-12

    def test_single_shell_square(self):
        # for single-shell data the remainder is the product minus its
        # paraproduct and base parts
        u = sp.from_function(G, lambda x, y: np.cos(2 * x))
        prod = sp.multiply(sp.dealias(u), sp.dealias(u))
        rest = (
            prod
            - paraproduct(u, u)
            - paraproduct(u, u)
            - bony_base_terms_oracle(u, u)
        )
        assert rel_l2(remainder(u, u).values, rest.values) <= 1e-12


class TestBonyIdentity:
    def test_reconstruction(self):
        for seed in range(10):
            u = sp.random_band_limited(G, seed=2 * seed, decay=1.5)
            v = sp.random_band_limited(G, seed=2 * seed + 1, decay=1.5)
            rec = bony_reconstruction(u, v)
            prod = sp.multiply(sp.dealias(u), sp.dealias(v))
            assert rel_l2(rec.values, prod.values) <= 1e-10

    def test_reconstruction_with_nonzero_means(self):
        u = sp.random_band_limited(G, seed=30) + sp.from_function(
            G, lambda x, y: np.full_like(x, 1.7)
        )
        v = sp.random_band_limited(G, seed=31) + sp.from_function(
            G, lambda x, y: np.full_like(x, -0.4)
        )
        rec = bony_reconstruction(u, v)
        prod = sp.multiply(sp.dealias(u), sp.dealias(v))
        assert rel_l2(rec.values, prod.values) <= 1e-10

    # kmax = 3 leaves the high shells empty; "means" adds constants, so the
    # mean-mode base terms are nonzero
    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(2, 128), sp.Grid(3, 16)])
    @pytest.mark.parametrize("case", ["full", "kmax3", "means"])
    def test_matches_oracle(self, grid, case):
        kw = {"kmax": 3} if case == "kmax3" else {}
        u = sp.random_band_limited(grid, seed=50, decay=2.0, **kw)
        v = sp.random_band_limited(grid, seed=51, decay=2.0, **kw)
        if case == "means":
            one = sp.RealField(grid, values=np.ones(grid.shape))
            u, v = u + 1.7 * one, v - 0.4 * one
        for fn, oracle in (
            (paraproduct, paraproduct_oracle),
            (remainder, remainder_oracle),
            (bony_reconstruction, bony_reconstruction_oracle),
        ):
            for a, b in ((u, v), (v, u)):
                assert np.array_equal(fn(a, b).coeffs, oracle(a, b).coeffs), fn.__name__

    def test_reconstruction_transform_count(self, count_transforms):
        # one block cache per argument, shared by T_u v, T_v u, R(u, v) and
        # the base terms, and empty blocks (here both means) never
        # transformed: 43 transforms, against 73 for the reference operators
        grid = sp.Grid(2, 128)
        u = sp.random_band_limited(grid, seed=1, decay=2.0)
        v = sp.random_band_limited(grid, seed=2, decay=2.0)
        counts = count_transforms()
        bony_reconstruction(u, v)
        assert sum(counts) == 43

    @pytest.mark.parametrize("fn, expected", [(paraproduct, 17), (remainder, 21)])
    def test_single_operator_transform_count(self, count_transforms, fn, expected):
        # T_u v transforms u's low passes and v's blocks only, R(u, v) the
        # blocks of both, as with one cache per argument
        grid = sp.Grid(2, 128)
        u = sp.random_band_limited(grid, seed=1, decay=2.0)
        v = sp.random_band_limited(grid, seed=2, decay=2.0)
        counts = count_transforms()
        fn(u, v)
        assert sum(counts) == expected

    @pytest.mark.parametrize("band_limited_first, expected", [(True, 13), (False, 16)])
    def test_remainder_skips_blocks_past_a_band_limited_argument(
        self, count_transforms, band_limited_first, expected
    ):
        # R(u, v) with u of kmax 3 against a full-band v: the blocks of the
        # second argument next to an empty block of the first are never
        # transformed, whichever argument is band-limited
        grid = sp.Grid(2, 128)
        u = sp.random_band_limited(grid, seed=1, decay=2.0, kmax=3)
        v = sp.random_band_limited(grid, seed=2, decay=2.0)
        counts = count_transforms()
        remainder(*((u, v) if band_limited_first else (v, u)))
        assert sum(counts) == expected


class TestCommutator:
    def test_constant_advector(self):
        f = sp.RealField(
            G, values=np.stack([np.ones(G.shape), 2 * np.ones(G.shape)]),
            solenoidal=True,
        )
        g = sp.random_band_limited(G, seed=11)
        fam = commutator_family(f, g)
        for k in (-1, 0, 3):
            assert np.max(np.abs(fam[k].values)) <= 1e-12

    def test_constant_argument(self):
        f = sp.random_solenoidal(G, seed=12)
        g = sp.from_function(G, lambda x, y: np.full_like(x, 5.0))
        out = commutator_family(f, g)[2]
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_rejects_non_solenoidal(self):
        f = sp.random_band_limited(G, seed=13, ncomp=2)  # not projected
        g = sp.random_band_limited(G, seed=14)
        message = r"^advecting field f is not solenoidal \(Leray residual"
        with pytest.raises(sp.SpectralError, match=message):
            commutator_family(f, g)
        with pytest.raises(sp.SpectralError, match=message):
            commutator_split_family(f, g)

    def test_split_reconstructs_direct(self):
        for seed in range(5):
            f = sp.random_solenoidal(G, seed=100 + seed, decay=2.0)
            g = sp.random_band_limited(G, seed=200 + seed, decay=2.0)
            fam = commutator_family(f, g)
            splits = commutator_split_family(f, g)
            for k in G.js:
                direct = fam[k]
                total = splits[k].total
                denom = np.linalg.norm(direct.values)
                if denom > 1e-14:
                    assert rel_l2(total.values, direct.values) <= 1e-10
                else:
                    assert np.max(np.abs(total.values)) <= 1e-12

    def test_vector_argument(self):
        f = sp.random_solenoidal(G, seed=19)
        g = sp.random_band_limited(G, seed=20, ncomp=2)
        direct = commutator_family(f, g)[1]
        split = commutator_split_family(f, g)[1]
        assert direct.ncomp == 2
        assert rel_l2(split.total.values, direct.values) <= 1e-10

    @pytest.mark.parametrize("kmax", [None, 3], ids=["full", "kmax3"])
    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)])
    def test_vector_argument_matches_components(self, grid, kmax):
        # g's components ride one batch axis: component c must equal the
        # family of the scalar g_c bit for bit
        band = {} if kmax is None else {"kmax": kmax}
        f = sp.random_solenoidal(grid, seed=24, decay=2.0, **band)
        g = sp.random_band_limited(grid, seed=25, ncomp=grid.dimension, decay=2.0, **band)
        direct = commutator_family(f, g)
        split = commutator_split_family(f, g)
        for c in range(g.ncomp):
            direct_c = commutator_family(f, g.component(c))
            split_c = commutator_split_family(f, g.component(c))
            for k in grid.js:
                assert np.array_equal(direct[k].coeffs[c], direct_c[k].coeffs[0])
                for name, term in split[k].terms.items():
                    assert np.array_equal(term.coeffs[c], split_c[k].terms[name].coeffs[0])

    def test_block_range_bookkeeping(self):
        # f carrying only blocks below k-5 makes II and IV vanish and the
        # commutator reduce to I + III
        grid = sp.Grid(2, 128)
        k = 5
        raw = sp.random_band_limited(grid, seed=21, ncomp=2, decay=0.5)
        # S_0 keeps only |xi| <= 1, i.e. exactly the j = -1 block: all of f
        # sits strictly below block k - 5 = 0
        f = sp.leray_project(sp.low_pass(raw, 0))
        g = sp.dyadic_block(sp.random_band_limited(grid, seed=22, decay=0.5), k)
        split = commutator_split_family(f, g)[k]
        direct = commutator_family(f, g)[k]
        scale = np.linalg.norm(direct.values)
        assert scale > 0
        assert np.linalg.norm(split.term_ii.values) <= 1e-10 * scale
        assert np.linalg.norm(split.term_iv.values) <= 1e-10 * scale
        combined = split.term_i + split.term_iii
        assert rel_l2(combined.values, direct.values) <= 1e-10

    def test_zero_advector_gives_zero_terms(self):
        f = sp.zero_field(G, 2)
        g = sp.random_band_limited(G, seed=23)
        split = commutator_split_family(f, g)[1]
        for term in split.terms.values():
            assert np.max(np.abs(term.values)) == 0.0


class TestEmptyBlocks:
    # kmax = 10 leaves shells j >= 4 empty (|xi| <= 10*sqrt(2) < 16), and
    # kmax = 6 in 3D leaves j >= 4 empty (|xi| <= 6*sqrt(3) < 16): their
    # blocks are never transformed and their products never formed.  Each
    # commutator sum (the whole f . grad g, a direct shell, a p1/q/p2 entry,
    # the product parts of terms I and II) is forward-transformed once.
    # The direct family transforms every nonempty block of f and of d_i g:
    # f_i and the whole d_i g are their top low passes, sums of those
    # blocks.  The split pin counts the split family after the direct one on
    # the same pair, which is the lab's order: it reuses the workspace, so
    # no block of f or of d_i g is transformed again, and every low pass
    # above S_{j0} is a sum of blocks already transformed.
    @pytest.mark.parametrize(
        "d, n, kmax, ncomp, direct_xf, split_xf",
        [
            pytest.param(2, 64, 10, 1, 26, 50, id="64-26-50"),
            pytest.param(2, 128, 10, 1, 26, 50, id="128-26-50"),
            pytest.param(2, 128, 10, 2, 42, 100, id="128-vector-42-100"),
            pytest.param(3, 32, 6, 1, 36, 65, id="3d-32-36-65"),
        ],
    )
    def test_transform_count(
        self, count_transforms, d, n, kmax, ncomp, direct_xf, split_xf
    ):
        grid = sp.Grid(d, n)
        f = sp.random_solenoidal(grid, seed=40, kmax=kmax)
        g = sp.random_band_limited(grid, seed=41, kmax=kmax, ncomp=ncomp)
        counts = count_transforms()
        commutator_family(f, g)
        assert sum(counts) == direct_xf
        counts.clear()
        commutator_split_family(f, g)
        assert sum(counts) == split_xf

    @pytest.mark.parametrize("grid", [sp.Grid(2, 128), sp.Grid(3, 16)])
    def test_split_reconstructs_direct_with_empty_shells(self, grid):
        f = sp.random_solenoidal(grid, seed=42, kmax=3)
        g = sp.random_band_limited(grid, seed=43, kmax=3)
        assert not np.any(sp.dyadic_block(g, 3).coeffs)
        fam = commutator_family(f, g)
        splits = commutator_split_family(f, g)
        scale = max(np.linalg.norm(fam[k].values) for k in grid.js)
        for k in grid.js:
            err = np.linalg.norm(splits[k].total.values - fam[k].values)
            assert err <= 1e-12 * scale


class TestZeroFactor:
    # f_2 of a shear flow f = (u(x_2), 0) is exactly zero, and f of band 3
    # has no shell above j = 2 while d_i g has all of them: a factor whose
    # shell is zero keeps a None block and is not inverted, each shell with
    # a nonempty factor is one inverse of the workspace's cache, and the
    # families have the frozen full-lattice workspace's bits
    @pytest.mark.parametrize("case", ["shear", "band3"])
    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)], ids=["2d-64", "3d-16"])
    def test_zero_factor_shell_is_none(self, grid, case, monkeypatch):
        d = grid.dimension
        if case == "shear":

            def shear(*x):
                return np.sin(x[1]) + 0.3 * np.cos(5 * x[1])

            f = sp.from_function(grid, shear, *[lambda *x: 0.0] * (d - 1))
        else:
            f = sp.random_solenoidal(grid, seed=46, kmax=3)
        g = sp.random_band_limited(grid, seed=47)
        calls = []
        inverse = paracalc._inverse

        def counted(grid, spectrum, k=None):
            calls.append(len(spectrum))
            return inverse(grid, spectrum, k)

        monkeypatch.setattr(paracalc, "_inverse", counted)
        ws = paracalc._workspace(f, g)
        got, expect = family_arrays(f, g)
        for new, old in zip(got, expect, strict=True):
            assert sp._gather(grid, new).tobytes() == sp._gather(grid, old).tobytes()
            assert np.array_equal(new, old)
        bank, factors = sp.make_filter_bank(grid), ws.f + ws.dg

        def live_rows(multiplier):
            # the rows of the factors whose product with the multiplier is
            # not exactly zero, or None when there are none
            live = [
                len(x.coeffs) if x.coeffs.ndim > d else 1
                for x in factors
                if (multiplier * sp._scatter(grid, x.coeffs)).any()
            ]
            return sum(live) if live else None

        for j in grid.js:
            for x in factors:
                zero = not (bank.phi[j] * sp._scatter(grid, x.coeffs)).any()
                assert (x.block(j) is None) == zero, j
        assert any(ws.f[-1].block(j) is None and ws.dg[0].block(j) is not None for j in grid.js)
        # S_{j0} first (the top low passes telescope down to it), then one
        # inverse of the live rows per nonempty shell
        expected = [live_rows(bank.chi[grid.j0])] + [live_rows(bank.phi[j]) for j in grid.js]
        assert calls == [rows for rows in expected if rows is not None]


class TestBlockKernel:
    # the workspace's one block cache reads spectral's single-shell product:
    # a finite pair's cache holds the 2/3 cube, whose box rule gives every
    # shell whose box lies in the cube its box, j = -1..4 at 2D N=128 and
    # j = -1..2 at 3D N=32, for the whole stack of f_i (no batch axis) and
    # d_i g (one or two components); the next shell is inverted from the
    # whole cube.  Each shell is one inverse of the stack's nonempty slices
    @pytest.mark.parametrize("ncomp", [1, 2])
    @pytest.mark.parametrize("d, n, boxed", [(2, 128, 6), (3, 32, 4)], ids=["2d-128", "3d-32"])
    def test_boxed_block_matches_full_inverse(
        self, count_transforms, box_passes, d, n, boxed, ncomp
    ):
        grid = sp.Grid(d, n)
        bank = sp.make_filter_bank(grid)
        f = sp.random_solenoidal(grid, seed=80)
        g = sp.random_band_limited(grid, seed=81, ncomp=ncomp)
        ws = paracalc._CommutatorWorkspace(f, g)
        boxes = ws.blocks._boxes
        assert len(boxes) == boxed
        counts = count_transforms()
        # the boxed shells, then the first one from the whole cube
        for j in grid.js[: boxed + 1]:
            counts.clear()
            box_passes.clear()
            ws.blocks.block(j)
            k = boxes[j - grid.j0].shape[-1] - 1 if j < grid.j0 + boxed else n // 3
            assert set(box_passes) == {k + 1}, j
            # one box inverse of the shell's batch: d slices of f and
            # d * ncomp of the d_i g, flattened on the leading axis
            assert counts == [d + d * ncomp], j
            for factor in ws.f + ws.dg:
                expect = sp._inverse(grid, bank.phi[j] * sp._scatter(grid, factor.coeffs))
                assert np.array_equal(factor.block(j), expect), j

    def test_nonfinite_mode_outside_the_boxes_poisons_every_block(self):
        # a NaN at a mode that no small box holds makes every full block
        # product NaN (NaN * 0 is NaN); a non-finite spectrum takes no box,
        # so the boxed shells are NaN too, and so is every family shell
        grid = sp.Grid(2, 128)
        f = sp.random_solenoidal(grid, seed=84)
        g = sp.random_band_limited(grid, seed=85)
        coeffs = f.coeffs.copy()
        coeffs[0, 40, 30] = np.nan
        f = sp.RealField(grid, coeffs=coeffs, solenoidal=True)
        ws = paracalc._CommutatorWorkspace(f, g)
        assert all(np.isnan(ws.f[0].block(j)).all() for j in grid.js)
        family = commutator_family(f, g)
        assert all(np.isnan(family[k].coeffs).all() for k in grid.js)
        u = f.component(0)
        a, _ = paracalc._scalar_blocks(u, g)
        assert all(np.isnan(a.block(j)).all() for j in grid.js)
        assert np.isnan(bony_reconstruction(u, g).coeffs).all()
        assert np.isnan(bony_reconstruction(g, u).coeffs).all()


def chi_path_families(f, g):
    """The direct family and the split terms of (f, g) from a fresh
    workspace whose low passes are each inverse-transformed from chi_j."""
    grid = f.grid
    ws = paracalc._CommutatorWorkspace(f, g)
    ws.blocks.telescoped = False
    split = ws.split_family()
    direct = ws.direct_family()
    return [{k: sp._scatter(grid, direct[k]) for k in grid.js}] + [
        {k: sp._scatter(grid, split[k][t]) for k in grid.js} for t in range(4)
    ]


class TestSharedWorkspace:
    @pytest.mark.parametrize("kmax", [None, 3], ids=["full", "kmax3"])
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize(
        "grid",
        [sp.Grid(2, 64), sp.Grid(2, 128), sp.Grid(3, 16), sp.Grid(3, 32)],
        ids=["2d-64", "2d-128", "3d-16", "3d-32"],
    )
    def test_matches_chi_path(self, grid, vector, kmax):
        # telescoped low passes move each family array by round-off only,
        # relative to the largest coefficient of its family
        band = {} if kmax is None else {"kmax": kmax}
        f = sp.random_solenoidal(grid, seed=60, decay=2.0, **band)
        g = sp.random_band_limited(
            grid, seed=61, decay=2.0, ncomp=grid.dimension if vector else 1, **band
        )
        direct = commutator_family(f, g)
        split = commutator_split_family(f, g)
        got = [{k: direct[k].coeffs for k in grid.js}] + [
            {k: split[k].terms[key].coeffs for k in grid.js}
            for key in ("I", "II", "III", "IV")
        ]
        for new, old in zip(got, chi_path_families(f, g)):
            scale = max(np.max(np.abs(old[k])) for k in grid.js)
            assert scale > 0
            for k in grid.js:
                assert np.max(np.abs(new[k] - old[k])) <= 1e-12 * scale

    def test_one_workspace_per_pair(self, monkeypatch):
        built = []

        class Counted(paracalc._CommutatorWorkspace):
            def __init__(self, f, g):
                built.append((f, g))
                super().__init__(f, g)

        monkeypatch.setattr(paracalc, "_CommutatorWorkspace", Counted)
        f = sp.random_solenoidal(G, seed=62)
        g = sp.random_band_limited(G, seed=63)
        commutator_family(f, g)
        commutator_split_family(f, g)
        commutator_family(f, g)
        assert len(built) == 1
        # another pair evicts it, and the first pair then builds afresh
        other = sp.random_band_limited(G, seed=64)
        commutator_family(f, other)
        commutator_split_family(f, g)
        assert len(built) == 3

    def test_workspace_freed_without_gc(self):
        # the block memos hold no reference cycle, and the cache refers to
        # its fields weakly: a workspace and its block caches are freed at
        # once when another pair evicts it, or when a field of its pair is
        # dropped, as at the end of a lab trial
        f = sp.random_solenoidal(G, seed=65)
        g = sp.random_band_limited(G, seed=66)
        other = sp.random_band_limited(G, seed=67)

        def filled(f, g):
            ws = paracalc._workspace(f, g)
            ws.direct_family()
            ws.split_family()
            return [weakref.ref(x) for x in [ws] + ws.f + ws.dg]

        gc.disable()
        try:
            refs = filled(f, g)
            paracalc._workspace(f, other)
            assert all(ref() is None for ref in refs)
            refs = filled(f, other)
            del other
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


TERMS = ("I", "II", "III", "IV")


def family_arrays(f, g):
    """The public direct family and split terms of (f, g), then the same
    from the frozen full-lattice oracle, as two lists of coefficient arrays
    in one order."""
    grid = f.grid
    direct, split = commutator_family(f, g), commutator_split_family(f, g)
    got = [direct[k].coeffs for k in grid.js]
    got += [split[k].terms[t].coeffs for k in grid.js for t in TERMS]
    direct, split = oracles.commutator_families(f, g)
    expect = [direct[k] for k in grid.js] + [split[k][i] for k in grid.js for i in range(4)]
    return got, expect


def bony_arrays(u, v):
    got = [op(u, v).coeffs for op in (paraproduct, remainder, bony_reconstruction)]
    expect = oracles.bony_operators(u, v)
    return got, [expect[op] for op in ("paraproduct", "remainder", "bony_reconstruction")]


class TestCubeLayout:
    # a finite pair is gathered to the 2/3 cube once: every family array
    # and Bony operator has the frozen full-lattice workspace's bytes on the
    # cube, exact zeros outside it, and equals it on the whole lattice
    # (outside the cube the oracle's terms III and IV hold -0.0 real parts,
    # from (-phi_k) * (+0), where the cube results scatter +0.0).  "wide"
    # data reach N/2 - 1 and are dealiased on entry; kmax = 10 is not
    # representable at 3D N=16
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize(
        "grid, kmax",
        [
            pytest.param(sp.Grid(d, n), kmax, id=f"{d}d-{n}-{label}")
            for d, n in ((2, 64), (2, 128), (3, 16), (3, 32))
            for label, kmax in (
                ("full", None), ("kmax3", 3), ("kmax10", 10), ("wide", n // 2 - 1)
            )
            if kmax is None or kmax <= n // 2 - 1
        ],
    )
    def test_matches_full_lattice_oracle(self, grid, kmax, vector):
        band = {} if kmax is None else {"kmax": kmax}
        f = sp.random_solenoidal(grid, seed=90, decay=2.0, **band)
        g = sp.random_band_limited(
            grid, seed=91, decay=2.0, ncomp=grid.dimension if vector else 1, **band
        )
        assert paracalc._workspace(f, g).width == grid.dealias_limit
        got, expect = family_arrays(f, g)
        if not vector:
            for u, v in ((f.component(0), g), (g, f.component(1))):
                more_got, more_expect = bony_arrays(u, v)
                got, expect = got + more_got, expect + more_expect
        for new, old in zip(got, expect, strict=True):
            assert sp._cube_supported(grid, new)
            assert sp._gather(grid, new).tobytes() == sp._gather(grid, old).tobytes()
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("where", ["f", "g"])
    def test_nonfinite_mode_outside_the_cube_keeps_the_full_layout(self, where):
        # a NaN at (60, 50), outside the cube at 2D N=128, survives dealiasing
        # (NaN * 0 is NaN); a gather would drop it, so the pair stays on the
        # full half spectrum, every direct shell and Bony operator is NaN,
        # and the bytes are the oracle's.  A split term is NaN too unless it
        # has no nonempty product, as term II at j_max, whose block
        # Delta_{j_max} d_i g is empty: it is then exactly zero
        grid = sp.Grid(2, 128)
        fields = {
            "f": sp.random_solenoidal(grid, seed=84),
            "g": sp.random_band_limited(grid, seed=85),
        }
        coeffs = fields[where].coeffs.copy()
        coeffs[0, 60, 50] = np.nan
        fields[where] = sp.RealField(grid, coeffs=coeffs, solenoidal=where == "f")
        f, g = fields["f"], fields["g"]
        assert paracalc._workspace(f, g).width is None
        got, expect = family_arrays(f, g)
        more_got, more_expect = bony_arrays(f.component(0), g)
        for new, old in zip(got + more_got, expect + more_expect, strict=True):
            assert new.tobytes() == old.tobytes()
            assert np.isnan(new).all() or not new.any()
        assert all(np.isnan(new).all() for new in got[: len(grid.js)] + more_got)

    @pytest.mark.parametrize("grid", [sp.Grid(2, 128), sp.Grid(3, 16)], ids=["2d-128", "3d-16"])
    def test_finite_pair_runs_no_full_transform(self, grid, monkeypatch):
        import scipy.fft

        f = sp.random_solenoidal(grid, seed=86)
        g = sp.random_band_limited(grid, seed=87, ncomp=grid.dimension)

        def full_transform(*args, **kwargs):
            raise AssertionError("full transform called")

        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(scipy.fft, name, full_transform)
        commutator_family(f, g)
        commutator_split_family(f, g)
        bony_reconstruction(f.component(0), g.component(1))
