import math
import tracemalloc

import numpy as np
import pytest

from lpmhd import mhd
from lpmhd import spectral as sp
from lpmhd.spaces import NormSpec, lp_norm, tl_norm
from oracles import elsasser_step, orszag_tang_by_function, taylor_green_by_function

G = sp.Grid(2, 64)


def transport_tendency_oracle(w_values, z_values, n):
    """Independently coded advective-form right side -P((w . grad) z) in 2D,
    using raw numpy FFTs and its own 2/3 mask."""
    k = np.fft.fftfreq(n, 1.0 / n)
    kx = k[:, None]
    ky = k[None, :]
    limit = n // 3
    mask = (np.abs(kx) <= limit) & (np.abs(ky) <= limit)

    def ddx(vals, kk):
        return np.real(np.fft.ifft2(1j * kk * np.fft.fft2(vals)))

    adv = np.zeros_like(z_values)
    for c in range(2):
        term = w_values[0] * ddx(z_values[c], kx) + w_values[1] * ddx(
            z_values[c], ky
        )
        adv[c] = np.real(np.fft.ifft2(np.fft.fft2(term) * mask))
    # Leray projection of the advection term
    ahat = [np.fft.fft2(adv[c]) for c in range(2)]
    k2 = kx**2 + ky**2
    safe = np.where(k2 == 0, 1.0, k2)
    dot = kx * ahat[0] + ky * ahat[1]
    out = np.zeros_like(z_values)
    out[0] = -np.real(np.fft.ifft2(ahat[0] - np.where(k2 == 0, 0, kx * dot / safe)))
    out[1] = -np.real(np.fft.ifft2(ahat[1] - np.where(k2 == 0, 0, ky * dot / safe)))
    return out


def picard_oracle(z0_plus, z0_minus, s, p, q, t_final, dt, n_max):
    """Reference Picard scheme: every iterate, iterate 1 included, advanced
    through its own RK4 loop of `RealField` arithmetic, each stage advected
    by the previous iterate's matching stage."""
    grid = z0_plus.grid
    spec = NormSpec(s - 1.0, p, q, homogeneous=False)
    n_steps = round(t_final / dt)

    def tendency(zp, zm, wp, wm):
        return (sp.leray_project(-mhd.advection(wm, zp)),
                sp.leray_project(-mhd.advection(wp, zm)))

    def diff_norm(a, b):
        return tl_norm(a[0] - b[0], spec) + tl_norm(a[1] - b[1], spec)

    z0p, z0m = sp.dealias(z0_plus), sp.dealias(z0_minus)
    states = [(sp.zero_field(grid, grid.dimension), sp.zero_field(grid, grid.dimension))]
    for n in range(1, n_max + 1):
        j = min(n + 1, grid.j_max + 1)
        states.append((sp.low_pass(z0p, j), sp.low_pass(z0m, j)))
    diffs = np.zeros((n_max + 1, n_steps + 1))
    for n in range(1, n_max + 1):
        diffs[n, 0] = diff_norm(states[n], states[n - 1])
    half = 0.5 * dt
    for m in range(n_steps):
        prev_stages = [states[0]] * 4
        for n in range(1, n_max + 1):
            yp, ym = states[n]
            w1, w2, w3, w4 = prev_stages
            g1p, g1m = tendency(yp, ym, *w1)
            y2 = (yp + half * g1p, ym + half * g1m)
            g2p, g2m = tendency(*y2, *w2)
            y3 = (yp + half * g2p, ym + half * g2m)
            g3p, g3m = tendency(*y3, *w3)
            y4 = (yp + dt * g3p, ym + dt * g3m)
            g4p, g4m = tendency(*y4, *w4)
            prev_stages = [(yp, ym), y2, y3, y4]
            states[n] = (
                yp + (dt / 6.0) * (g1p + 2.0 * g2p + 2.0 * g3p + g4p),
                ym + (dt / 6.0) * (g1m + 2.0 * g2m + 2.0 * g3m + g4m),
            )
        for n in range(1, n_max + 1):
            diffs[n, m + 1] = diff_norm(states[n], states[n - 1])
    return [(diffs[n], states[n]) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("amplitude", [1.0, 0.3])
@pytest.mark.parametrize("n", [64, 128])
def test_initial_data_matches_sampled_functions(n, amplitude):
    # the catalog's 2D data have the bits of `from_function` sampling and
    # are flagged solenoidal
    grid = sp.Grid(2, n)
    u, b = mhd.taylor_green(grid, amplitude)
    assert u.solenoidal and b.solenoidal
    assert np.array_equal(u.values, taylor_green_by_function(grid, amplitude))
    assert not b.values.any()
    u, b = mhd.orszag_tang(grid, amplitude)
    assert u.solenoidal and b.solenoidal
    for got, want in zip((u, b), orszag_tang_by_function(grid, amplitude), strict=True):
        assert np.array_equal(got.values, want)


class TestElsasser:
    def test_euler_reduction(self):
        u = sp.random_solenoidal(G, seed=1)
        state = mhd.to_elsasser(u, sp.zero_field(G, 2))
        scale = np.max(np.abs(u.values))
        assert np.max(np.abs(state.z_plus.values - u.values)) <= 1e-14 * scale
        assert np.max(np.abs(state.z_minus.values - u.values)) <= 1e-14 * scale

    def test_aligned_fields(self):
        u = sp.random_solenoidal(G, seed=2)
        state = mhd.to_elsasser(u, u)
        assert np.max(np.abs(state.z_minus.values)) == 0.0

    def test_round_trip(self):
        u, b = mhd.random_pair(G, seed=3)
        u2, b2 = mhd.from_elsasser(mhd.to_elsasser(u, b))
        assert np.max(np.abs(u2.values - u.values)) <= 1e-14
        assert np.max(np.abs(b2.values - b.values)) <= 1e-14

    def test_rejects_grid_mismatch(self):
        u = sp.random_solenoidal(G, seed=4)
        b = sp.random_solenoidal(sp.Grid(2, 32), seed=4, kmax=10)
        with pytest.raises(sp.SpectralError):
            mhd.to_elsasser(u, b)

    def test_rejects_non_solenoidal(self):
        u = sp.random_band_limited(G, seed=5, ncomp=2)
        with pytest.raises(sp.SpectralError):
            mhd.to_elsasser(u, u)

    @pytest.mark.parametrize(
        "name,call",
        [
            ("z_plus", lambda bad, good: mhd.ElsasserState(bad, good)),
            ("z_minus", lambda bad, good: mhd.ElsasserState(good, bad)),
            ("u", lambda bad, good: mhd.to_elsasser(bad, good)),
            ("b", lambda bad, good: mhd.to_elsasser(good, bad)),
            ("z0_plus", lambda bad, good: mhd.picard_iterate(bad, good, 2.5, 2, 2, 0.01, 0.01, 2)),
            ("z0_minus", lambda bad, good: mhd.picard_iterate(good, bad, 2.5, 2, 2, 0.01, 0.01, 2)),
        ],
        ids=["z_plus", "z_minus", "u", "b", "z0_plus", "z0_minus"],
    )
    def test_non_solenoidal_message_names_argument(self, name, call):
        bad = sp.random_band_limited(G, seed=5, ncomp=2)
        good = sp.random_solenoidal(G, seed=6)
        with pytest.raises(sp.SpectralError, match=rf"^{name} is not solenoidal \(Leray residual"):
            call(bad, good)


class TestPressure:
    def test_constant_minus_field(self):
        zm = sp.RealField(
            G, values=np.stack([np.full(G.shape, 0.7), np.full(G.shape, -0.3)]),
            solenoidal=True,
        )
        zp = sp.random_solenoidal(G, seed=6)
        state = mhd.ElsasserState(zp, zm)
        out = mhd.pressure_gradient(state)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_poisson_residual(self):
        u, b = mhd.random_pair(G, seed=7)
        state = mhd.to_elsasser(u, b)
        grad_pi = mhd.pressure_gradient(state)
        lap_pi = sp.divergence(grad_pi)
        # d_i d_j (zm_i zp_j) from the same dealiased quadratic products
        freqs = sp.frequencies(G)
        quad = np.zeros(G.spectral_shape, dtype=complex)
        for i in range(2):
            for j in range(2):
                prod = sp.multiply(
                    state.z_minus.component(i), state.z_plus.component(j)
                )
                quad += (1j * freqs[i]) * (1j * freqs[j]) * prod.coeffs[0]
        rhs = sp.RealField(G, coeffs=quad[np.newaxis])
        resid = lp_norm(lap_pi + rhs, 2)
        assert resid <= 1e-10 * lp_norm(rhs, 2)

    def test_leray_complement(self):
        u, b = mhd.random_pair(G, seed=8)
        state = mhd.to_elsasser(u, b)
        total = mhd.advection(state.z_minus, state.z_plus) + mhd.pressure_gradient(
            state
        )
        assert sp.solenoidal_residual(total) <= 1e-10


class TestAdvection:
    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)], ids=["2d-64", "3d-16"])
    def test_matches_masked_product_form(self, grid):
        # advection dealiases by gathering the product's coefficients to the
        # 2/3 cube and scattering the result into zeros; the oracle multiplies
        # by the 0/1 mask instead, and the two agree bit for bit
        w = sp.random_solenoidal(grid, seed=50)
        z = sp.random_solenoidal(grid, seed=51)
        freqs = sp.frequencies(grid)
        d = grid.dimension
        expect = np.stack([
            sum(1j * freqs[j] * sp._masked_product(grid, z.values[i], w.values[j])
                for j in range(d))
            for i in range(d)
        ])
        assert np.array_equal(mhd.advection(w, z).coeffs, expect)


class TestTendency:
    def test_alfven_steady(self):
        u, b = mhd.alfven_state(G, seed=9)
        fp, fm = mhd.mhd_tendency(mhd.to_elsasser(u, b))
        assert np.max(np.abs(fp.values)) == 0.0
        assert np.max(np.abs(fm.values)) == 0.0

    def test_zero_state(self):
        state = mhd.ElsasserState(sp.zero_field(G, 2), sp.zero_field(G, 2))
        fp, fm = mhd.mhd_tendency(state)
        assert np.max(np.abs(fp.values)) == 0.0

    def test_taylor_green_is_steady(self):
        u, b = mhd.taylor_green(G)
        fp, _ = mhd.mhd_tendency(mhd.to_elsasser(u, b))
        assert np.max(np.abs(fp.values)) <= 1e-12

    def test_euler_oracle(self):
        # dz+/dt = -P((z- . grad) z+) and dz-/dt = -P((z+ . grad) z-),
        # cross-checked against the independent advective-form oracle; with
        # b = 0 both are the velocity-form Euler right side
        cases = (
            mhd.taylor_green(G),
            (sp.random_solenoidal(G, seed=10), sp.zero_field(G, 2)),
            mhd.random_pair(G, seed=21),
        )
        for u, b in cases:
            state = mhd.to_elsasser(u, b)
            fp, fm = mhd.mhd_tendency(state)
            zp, zm = state.z_plus.values, state.z_minus.values
            for got, oracle in (
                (fp, transport_tendency_oracle(zm, zp, G.points)),
                (fm, transport_tendency_oracle(zp, zm, G.points)),
            ):
                scale = max(np.max(np.abs(oracle)), 1e-12)
                assert np.max(np.abs(got.values - oracle)) <= 1e-10 * max(scale, 1.0)


def divergence_form_oracle(state):
    """(dz+/dt, dz-/dt) coefficients as -P(sum_j i xi_j M_ij) and
    -P(sum_j i xi_j M_ji), from one dealiased product per pair
    M_ij = z+_i z-_j and a projection that divides by |xi|^2."""
    grid = state.grid
    d = grid.dimension
    freqs = sp.frequencies(grid)
    r2 = sum(f**2 for f in freqs)
    safe = np.where(r2 == 0.0, 1.0, r2)
    m = [[sp.multiply(state.z_plus.component(i), state.z_minus.component(j)).coeffs[0]
          for j in range(d)] for i in range(d)]
    out = []
    for dyads in (m, [list(col) for col in zip(*m)]):
        div = [-sum(1j * freqs[j] * dyads[i][j] for j in range(d)) for i in range(d)]
        dot = sum(freqs[a] * div[a] for a in range(d))
        out.append([div[a] - np.where(r2 == 0.0, 0.0, freqs[a] * dot / safe)
                    for a in range(d)])
    return np.array(out)


class TestOnePassTendency:
    @pytest.mark.parametrize(
        "grid", [sp.Grid(2, 64), sp.Grid(2, 128), sp.Grid(3, 16), sp.Grid(3, 32)],
        ids=["2d-64", "2d-128", "3d-16", "3d-32"],
    )
    def test_matches_divergence_form(self, grid):
        u, b = mhd.random_pair(grid, seed=23)
        state = mhd.to_elsasser(u, b)
        got = np.stack([rate.coeffs for rate in mhd.mhd_tendency(state)])
        expect = divergence_form_oracle(state)
        assert got.shape == (2, grid.dimension) + grid.spectral_shape
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))
        mean = (slice(None), slice(None)) + (0,) * grid.dimension
        assert np.all(got[mean] == 0.0)
        for side in got:
            field = sp.RealField(grid, coeffs=side)
            assert sp.solenoidal_residual(field) <= sp.SOLENOIDAL_TOL

    def test_step_peak_memory(self):
        # traced peak of one 2D N=128 step, caches warm: 3.596-3.597 MB
        # before the tendency was fused into one output array, 3.05 MB after;
        # the bound is the former, rounded up to 3.60 MB
        grid = sp.Grid(2, 128)
        state = mhd.to_elsasser(*mhd.orszag_tang(grid))
        mhd.step(state, 1e-3)
        tracemalloc.start()
        try:
            mhd.step(state, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3_600_000


def full_lattice_step(state, dt):
    """One RK4 step as it ran on the full half spectrum before the step moved
    to the 2/3 cube: every stage and tendency spans all modes, and the 2/3
    mask is folded into a derivative table -i xi_j built here."""
    grid = state.grid
    d = grid.dimension
    mask = sp.dealias_mask(grid)
    factors = np.stack([-1j * f * mask for f in sp.frequencies(grid)])

    def tendency(zp, zm):
        m = sp._forward(grid, zp[:, np.newaxis] * zm[np.newaxis, :])
        out = np.empty((2,) + m.shape[1:], dtype=complex)
        term = np.empty_like(out[0, 0])
        for half, dyads in zip(out, (m, m.swapaxes(0, 1))):
            for row, side in zip(dyads, half):
                np.multiply(factors[0], row[0], out=side)
                for j in range(1, d):
                    side += np.multiply(factors[j], row[j], out=term)
        out -= sp._leray_complement(grid, out[0])
        return out

    y = (state.z_plus.coeffs, state.z_minus.coeffs)

    def ahead(c, k):
        out = c * k
        for i, part in enumerate(y):
            out[i] += part
        return out

    k = total = tendency(state.z_plus.values, state.z_minus.values)
    for frac, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        k = tendency(*sp._inverse(grid, ahead(frac * dt, k)))
        total += weight * k
    new = ahead(dt / 6.0, total)
    return mhd.ElsasserState(
        sp.RealField(grid, coeffs=new[0], solenoidal=True),
        sp.RealField(grid, coeffs=new[1], solenoidal=True),
        state.t + dt,
    )


def _inner(grid, a, b):
    """<a, b> of real fields from their rfft coefficients."""
    return float(np.sum(sp.spectral_weights(grid) * (a.conj() * b).real))


def _cosine(grid, z, dz):
    """|<z, dz>| / (||z|| ||dz||)."""
    return abs(_inner(grid, z, dz)) / math.sqrt(_inner(grid, z, z) * _inner(grid, dz, dz))


def _pair_reaching_outside_cube(grid, seed):
    """An Elsasser pair with modes up to |xi_i| = N/2 - 1, outside the 2/3
    cube."""
    kmax = grid.points // 2 - 1
    u = sp.random_solenoidal(grid, seed=seed, kmax=kmax, amplitude=0.3)
    b = sp.random_solenoidal(grid, seed=seed + 1, kmax=kmax, amplitude=0.3)
    return mhd.to_elsasser(u, b)


def _assert_steps_match_oracle(grid, pair, cached):
    """Three steps of the coefficient pair by `mhd.step` and by the frozen
    full-buffer step have equal bytes.  Each side starts from its own
    coefficient-only fields, whose values are cached first if `cached`."""

    def start():
        fields = [sp.RealField(grid, coeffs=c, solenoidal=True) for c in pair]
        if cached:
            for f in fields:
                f.values
        return mhd.ElsasserState(*fields)

    got, expect = start(), start()
    for _ in range(3):
        got, expect = mhd.step(got, 1e-3), elsasser_step(expect, 1e-3)
        for a, b in ((got.z_plus, expect.z_plus), (got.z_minus, expect.z_minus)):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()


CUBE_GRIDS = pytest.mark.parametrize(
    "grid", [sp.Grid(2, 64), sp.Grid(2, 128), sp.Grid(3, 16), sp.Grid(3, 32)],
    ids=["2d-64", "2d-128", "3d-16", "3d-32"],
)


class TestCube:
    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)], ids=["2d-64", "3d-16"])
    @pytest.mark.parametrize("dealiased", [True, False], ids=["dealiased", "outside-cube"])
    def test_matches_full_lattice_step(self, grid, dealiased):
        if dealiased:
            u, b = mhd.random_pair(grid, seed=70, amplitude=0.3)
            state = mhd.to_elsasser(u, b)
        else:
            state = _pair_reaching_outside_cube(grid, 70)
        got = expect = state
        for _ in range(3):
            got, expect = mhd.step(got, 1e-3), full_lattice_step(expect, 1e-3)
            assert np.array_equal(got.z_plus.coeffs, expect.z_plus.coeffs)
            assert np.array_equal(got.z_minus.coeffs, expect.z_minus.coeffs)

    @CUBE_GRIDS
    def test_elsasser_rhs_is_galerkin(self, grid):
        # the dealiased tendency conserves each Elsasser energy exactly
        u, b = mhd.random_pair(grid, seed=72)
        state = mhd.to_elsasser(u, b)
        rates = np.stack([rate.coeffs for rate in mhd.mhd_tendency(state)])
        for z, dz in zip((state.z_plus, state.z_minus), rates):
            assert _cosine(grid, z.coeffs, dz) <= 1e-15

    @CUBE_GRIDS
    def test_picard_stage_is_galerkin(self, grid, monkeypatch):
        # every transport-stage tendency -P((w . grad) z) of a Picard run is
        # orthogonal to the stage state z it advances; the stage returns its
        # tendency on the 2/3 cube, which the spy scatters to the full
        # spectrum
        states, rates = [], []
        advection, rk4 = mhd.advection, mhd._rk4

        def spy_advection(w, z):
            states.append(z.coeffs)
            return advection(w, z)

        def spy_rk4(y, k1, dt, rhs):
            def spy_rhs(c):
                out = rhs(c)
                rates.extend(sp._scatter(grid, out))
                return out

            rates.extend(sp._scatter(grid, k1))
            return rk4(y, k1, dt, spy_rhs)

        monkeypatch.setattr(mhd, "advection", spy_advection)
        monkeypatch.setattr(mhd, "_rk4", spy_rk4)
        zp, zm = _picard_pair(grid, 74)
        mhd.picard_iterate(zp, zm, s=2.5, p=2, q=2, t_final=1e-3, dt=1e-3, n_max=3)
        assert len(states) == len(rates) == 2 * 4 * 2
        for z, dz in zip(states, rates):
            assert _cosine(grid, z, dz) <= 1e-15

    @CUBE_GRIDS
    def test_modes_outside_cube_pass_through(self, grid):
        state = _pair_reaching_outside_cube(grid, 76)
        outside = ~np.broadcast_to(sp.dealias_mask(grid), grid.spectral_shape)
        assert np.any(state.z_plus.coeffs[:, outside])
        new = mhd.step(state, 1e-3)
        for before, after in ((state.z_plus, new.z_plus), (state.z_minus, new.z_minus)):
            assert after.coeffs[:, outside].tobytes() == before.coeffs[:, outside].tobytes()
        for rate in mhd.mhd_tendency(state):
            assert np.all(rate.coeffs[:, outside] == 0.0)

    @CUBE_GRIDS
    @pytest.mark.parametrize("case", ["dealiased", "nan-in-cube", "outside-cube"])
    @pytest.mark.parametrize("cached", [False, True], ids=["coeffs-only", "cached-values"])
    def test_matches_frozen_step(self, grid, case, cached):
        # three steps have the bytes of the full-buffer step frozen in the
        # oracles, whether the input's values come from the fields or from
        # the step's own inverse; a NaN inside the cube keeps the cube path
        if case == "outside-cube":
            state = _pair_reaching_outside_cube(grid, 78)
        else:
            u, b = mhd.random_pair(grid, seed=78, amplitude=0.3)
            state = mhd.to_elsasser(sp.dealias(u), sp.dealias(b))
        pair = [state.z_plus.coeffs, state.z_minus.coeffs]
        if case == "nan-in-cube":
            pair[0] = pair[0].copy()
            pair[0][(1,) + (2,) * grid.dimension] = np.nan
        assert sp._cube_supported(grid, np.stack(pair)) == (case != "outside-cube")
        _assert_steps_match_oracle(grid, pair, cached)

    def test_dealiased_orszag_tang_keeps_signed_zeros(self):
        # dealiasing Orszag-Tang leaves -0.0 at modes outside the cube; the
        # step passes them through byte for byte
        grid = sp.Grid(2, 128)
        state = mhd.to_elsasser(*(sp.dealias(f) for f in mhd.orszag_tang(grid)))
        pair = [state.z_plus.coeffs, state.z_minus.coeffs]
        outside = ~np.broadcast_to(sp.dealias_mask(grid), grid.spectral_shape)
        assert any(np.signbit(c[:, outside].real).any() for c in pair)
        assert sp._cube_supported(grid, np.stack(pair))
        for cached in (False, True):
            _assert_steps_match_oracle(grid, pair, cached)

    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)], ids=["2d-64", "3d-16"])
    def test_cube_step_runs_no_full_transform(self, grid, monkeypatch):
        import scipy.fft

        u, b = mhd.random_pair(grid, seed=80, amplitude=0.3)
        state = mhd.to_elsasser(u, b)
        coeff_only = mhd.ElsasserState(*(
            sp.RealField(grid, coeffs=z.coeffs, solenoidal=True)
            for z in (state.z_plus, state.z_minus)))

        def full_transform(*args, **kwargs):
            raise AssertionError("full transform called")

        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(scipy.fft, name, full_transform)
        mhd.step(coeff_only, 1e-3)


class TestStep:
    def test_euler_step_oracle(self):
        # b = 0: one RK4 step must match an independently coded
        # velocity-form Euler RK4 step
        u = sp.random_solenoidal(G, seed=30, amplitude=0.5)
        state = mhd.to_elsasser(u, sp.zero_field(G, 2))
        dt = 1e-3
        out = mhd.step(state, dt)
        u_pkg, _ = mhd.from_elsasser(out)

        def euler(vals):
            return transport_tendency_oracle(vals, vals, G.points)

        def rk4_oracle(vals):
            k1 = euler(vals)
            k2 = euler(vals + 0.5 * dt * k1)
            k3 = euler(vals + 0.5 * dt * k2)
            k4 = euler(vals + dt * k3)
            return vals + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        expect = rk4_oracle(u.values)
        assert np.max(np.abs(u_pkg.values - expect)) <= 1e-10

    def test_steady_state_unchanged(self):
        u, b = mhd.alfven_state(G, seed=11)
        state = mhd.to_elsasser(u, b)
        out = mhd.step(state, 1e-3)
        assert np.max(np.abs(out.z_plus.values - state.z_plus.values)) <= 1e-12
        assert out.t == pytest.approx(1e-3)

    def test_zero_state(self):
        state = mhd.ElsasserState(sp.zero_field(G, 2), sp.zero_field(G, 2))
        out = mhd.step(state, 1e-2)
        assert np.max(np.abs(out.z_plus.values)) == 0.0

    def test_cfl_warning(self):
        u, b = mhd.orszag_tang(G)
        state = mhd.to_elsasser(u, b)
        with pytest.warns(mhd.CflWarning):
            mhd.step(state, 1.0)

    @pytest.mark.parametrize(
        "grid, expected", [(sp.Grid(2, 64), 32), (sp.Grid(3, 16), 60)]
    )
    def test_transform_count(self, monkeypatch, count_transforms, grid, expected):
        # 4 stages x (2d inverse + d^2 forward) on coefficient-only input,
        # CFL check included; the pressure is never solved for
        def no_pressure(state):
            raise AssertionError("pressure_gradient called")

        monkeypatch.setattr(mhd, "pressure_gradient", no_pressure)
        u, b = mhd.random_pair(grid, seed=22)
        state = mhd.to_elsasser(u, b)
        coeff_only = mhd.ElsasserState(
            sp.RealField(grid, coeffs=state.z_plus.coeffs, solenoidal=True),
            sp.RealField(grid, coeffs=state.z_minus.coeffs, solenoidal=True),
        )
        counts = count_transforms()
        mhd.step(coeff_only, 1e-3)
        assert sum(counts) == expected
        mhd.mhd_tendency(state)

    def test_richardson_order(self):
        u, b = mhd.orszag_tang(G)
        state = mhd.to_elsasser(u, b)
        big = mhd.step(state, 1e-2)
        small = mhd.step(mhd.step(state, 5e-3), 5e-3)
        ref = state
        for _ in range(8):
            ref = mhd.step(ref, 1.25e-3)
        e1 = np.max(np.abs(big.z_plus.values - ref.z_plus.values))
        e2 = np.max(np.abs(small.z_plus.values - ref.z_plus.values))
        assert math.log2(e1 / e2) >= 3.8

    def test_solenoidal_preserved(self):
        u, b = mhd.orszag_tang(G)
        state = mhd.to_elsasser(u, b)
        for _ in range(5):
            state = mhd.step(state, 1e-3)
        assert sp.solenoidal_residual(state.z_plus) <= 1e-10
        assert sp.solenoidal_residual(state.z_minus) <= 1e-10

    def test_conservation_short(self):
        from lpmhd.diagnostics import cross_helicity, energy

        u, b = mhd.orszag_tang(G)
        state = mhd.to_elsasser(u, b)
        e0, h0 = energy(state), cross_helicity(state)
        for _ in range(20):
            state = mhd.step(state, 1e-3)
        assert abs(energy(state) - e0) <= 1e-10 * e0
        assert abs(cross_helicity(state) - h0) <= 1e-10 * max(abs(h0), e0)


class TestTimeGrid:
    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    @pytest.mark.parametrize("call", ["step", "run", "picard_iterate", "trajectory_map"])
    def test_rejects_bad_dt(self, call, dt):
        grid = sp.Grid(2, 16)
        zero = sp.zero_field(grid, 2)
        state = mhd.ElsasserState(zero, zero)
        # "run" is the step count of a simulate run, whose loop is in cli
        calls = {
            "step": lambda: mhd.step(state, dt),
            "run": lambda: mhd._step_count(0.1, dt),
            "picard_iterate": lambda: mhd.picard_iterate(
                zero, zero, s=2.5, p=2, q=2, t_final=0.1, dt=dt, n_max=2
            ),
            "trajectory_map": lambda: mhd.trajectory_map(zero, grid, t_final=0.1, dt=dt),
        }
        with pytest.raises(sp.SpectralError, match="dt must be positive"):
            calls[call]()

    @pytest.mark.parametrize("t_final", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("call", ["run", "picard_iterate", "trajectory_map"])
    def test_rejects_non_finite_t_final(self, call, t_final):
        grid = sp.Grid(2, 16)
        zero = sp.zero_field(grid, 2)
        calls = {
            "run": lambda: mhd._step_count(t_final, 0.1),
            "picard_iterate": lambda: mhd.picard_iterate(
                zero, zero, s=2.5, p=2, q=2, t_final=t_final, dt=0.1, n_max=2
            ),
            "trajectory_map": lambda: mhd.trajectory_map(zero, grid, t_final=t_final, dt=0.1),
        }
        with pytest.raises(sp.SpectralError, match="is not finite"):
            calls[call]()


def _picard_pair(grid, seed):
    return (
        sp.random_solenoidal(grid, seed=seed, amplitude=0.1),
        sp.random_solenoidal(grid, seed=seed + 1, amplitude=0.1),
    )


class TestPicard:
    def test_first_iterate_frozen(self):
        # with the zero advector, iterate 1 is S_2 z0 frozen in time
        zp, zm = _picard_pair(G, 12)
        its = mhd.picard_iterate(zp, zm, s=2.5, p=2, q=2, t_final=0.01,
                                 dt=1e-3, n_max=2)
        first = its[0]
        init_p = sp.low_pass(sp.dealias(zp), 2)
        init_m = sp.low_pass(sp.dealias(zm), 2)
        assert np.array_equal(first.final_state.z_plus.values, init_p.values)
        assert np.array_equal(first.final_state.z_minus.values, init_m.values)
        assert np.all(first.diff_norms == first.diff_norms[0])

    @pytest.mark.parametrize(
        "grid, n_max, p",
        [(sp.Grid(2, 64), 4, 2), (sp.Grid(2, 64), 3, 3), (sp.Grid(3, 16), 2, 2)],
    )
    def test_matches_oracle(self, grid, n_max, p):
        zp, zm = _picard_pair(grid, 40)
        args = dict(s=2.5, p=p, q=2, t_final=0.005, dt=1e-3, n_max=n_max)
        its = mhd.picard_iterate(zp, zm, **args)
        ref = picard_oracle(zp, zm, **args)
        for it, (diffs, (rp, rm)) in zip(its, ref, strict=True):
            assert np.array_equal(it.diff_norms, diffs)
            assert np.array_equal(it.final_state.z_plus.coeffs, rp.coeffs)
            assert np.array_equal(it.final_state.z_minus.coeffs, rm.coeffs)

    @pytest.mark.parametrize(
        "grid, n_max, expected", [(sp.Grid(2, 64), 4, 728), (sp.Grid(3, 16), 2, 492)]
    )
    def test_transform_count(self, count_transforms, grid, n_max, expected):
        # coefficient-only input: the CFL check and iterate 1's values once
        # (2d + 2d inverse), then 5 steps x (n_max - 1) iterates x 4 stages x
        # (2d inverse + 2d^2 forward); the p = q = 2 norms need none
        zp, zm = _picard_pair(grid, 42)
        counts = count_transforms()
        mhd.picard_iterate(zp, zm, s=2.5, p=2, q=2, t_final=0.005, dt=1e-3,
                           n_max=n_max)
        assert sum(counts) == expected

    @pytest.mark.parametrize("grid, n_max", [(sp.Grid(2, 64), 4), (sp.Grid(3, 16), 2)])
    def test_stages_take_the_box_inverse(self, box_passes, grid, n_max):
        # every stage of every advanced iterate inverse-transforms its (2, d)
        # cube by d - 1 pruned passes; the p = q = 2 norms take none
        zp, zm = _picard_pair(grid, 42)
        n_steps = 5
        mhd.picard_iterate(zp, zm, s=2.5, p=2, q=2, t_final=n_steps * 1e-3, dt=1e-3,
                           n_max=n_max)
        assert len(box_passes) == (n_max - 1) * n_steps * 4 * (grid.dimension - 1)

    def test_advection_calls(self, monkeypatch):
        # iterate 1 is never advanced, so no advector is the zero pair
        nonzero = []
        original = mhd.advection

        def spy(w, z):
            nonzero.append(bool(np.any(w.values)))
            return original(w, z)

        monkeypatch.setattr(mhd, "advection", spy)
        zp, zm = _picard_pair(G, 44)
        n_max, n_steps = 4, 3
        mhd.picard_iterate(zp, zm, s=2.5, p=2, q=2, t_final=n_steps * 1e-3,
                           dt=1e-3, n_max=n_max)
        assert len(nonzero) == (n_max - 1) * 4 * 2 * n_steps
        assert all(nonzero)

    def test_one_rk4(self, monkeypatch):
        calls = []
        original = mhd._rk4

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mhd, "_rk4", spy)
        zp, zm = _picard_pair(G, 46)
        mhd.step(mhd.ElsasserState(zp, zm), 1e-3)
        assert len(calls) == 1
        n_max, n_steps = 4, 3
        mhd.picard_iterate(zp, zm, s=2.5, p=2, q=2, t_final=n_steps * 1e-3,
                           dt=1e-3, n_max=n_max)
        assert len(calls) == 1 + (n_max - 1) * n_steps
        small = sp.Grid(2, 16)
        mhd.trajectory_map(sp.zero_field(small, 2), small, t_final=n_steps * 1e-3, dt=1e-3)
        assert len(calls) == 1 + n_max * n_steps

    def test_contraction_ratios(self):
        zp = sp.random_solenoidal(G, seed=14, decay=3.0, amplitude=0.05)
        zm = sp.random_solenoidal(G, seed=15, decay=3.0, amplitude=0.05)
        its = mhd.picard_iterate(zp, zm, s=2.5, p=2, q=2, t_final=0.05,
                                 dt=5e-3, n_max=4)
        rows = mhd.picard_contraction_table(its)
        assert rows[0][2] is None
        for _, _, ratio in rows[1:]:
            assert ratio < 1.0

    def test_iterates_approach_nonlinear(self):
        zp = sp.random_solenoidal(G, seed=16, decay=3.0, amplitude=0.05)
        zm = sp.random_solenoidal(G, seed=17, decay=3.0, amplitude=0.05)
        its = mhd.picard_iterate(zp, zm, s=2.5, p=2, q=2, t_final=0.05,
                                 dt=5e-3, n_max=5)
        state = mhd.ElsasserState(sp.dealias(zp), sp.dealias(zm))
        for _ in range(10):
            state = mhd.step(state, 5e-3)
        spec = NormSpec(1.5, 2, 2, homogeneous=False)
        errs = [
            tl_norm(it.final_state.z_plus - state.z_plus, spec)
            + tl_norm(it.final_state.z_minus - state.z_minus, spec)
            for it in its
        ]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0]

    def test_validation(self):
        zp = sp.random_solenoidal(G, seed=18)
        with pytest.raises(sp.SpectralError):
            mhd.picard_iterate(zp, zp, s=2.5, p=2, q=2, t_final=0.01,
                               dt=1e-3, n_max=0)
        bad = sp.random_band_limited(G, seed=19, ncomp=2)
        with pytest.raises(sp.SpectralError):
            mhd.picard_iterate(bad, bad, s=2.5, p=2, q=2, t_final=0.01,
                               dt=1e-3, n_max=1)


def refine_oracle(v, factor):
    """Zero-padded spectral upsampling by the full inverse: the coarse
    spectrum scattered into a zeroed fine spectrum at its wrapped modes."""
    n, d = v.grid.points, v.grid.dimension
    m = n * factor
    out = np.zeros((v.ncomp,) + (m,) * (d - 1) + (m // 2 + 1,), dtype=complex)
    wrapped = np.mod(np.fft.fftfreq(n, 1.0 / n).astype(int), m)
    out[np.ix_(np.arange(v.ncomp), *[wrapped] * (d - 1), np.arange(n // 2 + 1))] = v.coeffs
    return sp._inverse(sp.Grid(d, m), out) * float(factor) ** d


class TestTrajectory:
    def test_zero_velocity(self):
        tm = mhd.trajectory_map(sp.zero_field(G, 2), G, t_final=1.0, dt=0.25)
        assert np.max(np.abs(tm.displacement)) == 0.0
        assert np.max(np.abs(tm.jacobian_determinant() - 1.0)) == 0.0

    def test_final_time_on_grid(self):
        grid = sp.Grid(2, 16)
        tm = mhd.trajectory_map(sp.zero_field(grid, 2), grid, t_final=2.0, dt=0.1)
        assert tm.t == 2.0

    def test_constant_velocity(self):
        c = sp.RealField(
            G, values=np.stack([0.4 * np.ones(G.shape), -0.1 * np.ones(G.shape)]),
            solenoidal=True,
        )
        tm = mhd.trajectory_map(c, G, t_final=2.0, dt=0.5)
        expect = tm.labels + np.array([0.8, -0.2]).reshape(2, 1, 1)
        assert np.max(np.abs(tm.positions - expect)) <= 1e-12

    def test_shear_closed_form(self):
        shear = sp.from_function(
            G, lambda x, y: np.sin(y), lambda x, y: np.zeros_like(x)
        )
        shear = sp.RealField(G, values=shear.values, solenoidal=True)
        tm = mhd.trajectory_map(shear, G, t_final=1.0, dt=0.1)
        exact = tm.labels.copy()
        exact[0] = exact[0] + np.sin(tm.labels[1])
        assert np.max(np.abs(tm.positions - exact)) <= 1e-9
        assert np.max(np.abs(tm.jacobian_determinant() - 1.0)) <= 1e-10

    def test_volume_preservation_broadband(self):
        v = sp.random_solenoidal(G, seed=20, decay=3.0, amplitude=0.3)
        tm = mhd.trajectory_map(v, G, t_final=0.5, dt=0.05)
        assert np.max(np.abs(tm.jacobian_determinant() - 1.0)) <= 5e-3

    @pytest.mark.parametrize("d,n", [(2, 16), (2, 128), (3, 16)])
    @pytest.mark.parametrize("factor", [2, mhd._REFINE])
    def test_refine_matches_oracle(self, d, n, factor):
        # white-noise values fill every mode, the Nyquist planes included
        grid = sp.Grid(d, n)
        v = sp.RealField(grid, values=np.random.default_rng(n + d).standard_normal(
            (d,) + grid.shape))
        assert np.abs(v.coeffs[..., n // 2]).min() > 0.0
        assert np.abs(v.coeffs[:, n // 2]).min() > 0.0
        assert np.array_equal(mhd._fourier_refine(v, factor), refine_oracle(v, factor))

    def test_steady_velocity_refined_once(self, monkeypatch):
        calls = []
        refine = mhd._fourier_refine

        def spy(v, factor):
            calls.append(v)
            return refine(v, factor)

        monkeypatch.setattr(mhd, "_fourier_refine", spy)
        v = sp.random_solenoidal(G, seed=20, decay=3.0, amplitude=0.3)
        mhd.trajectory_map(v, G, t_final=1.0, dt=0.1)
        assert calls == [v]

    def test_history_refines_each_snapshot_once(self, monkeypatch):
        calls = []
        refine = mhd._fourier_refine

        def spy(v, factor):
            calls.append(v)
            return refine(v, factor)

        monkeypatch.setattr(mhd, "_fourier_refine", spy)
        grid = sp.Grid(2, 32)
        v0 = sp.random_solenoidal(grid, seed=20, decay=3.0, amplitude=0.3)
        v1 = sp.random_solenoidal(grid, seed=21, decay=3.0, amplitude=0.3)
        mhd.trajectory_map([(1.0, v1), (0.0, v0)], grid, t_final=1.0, dt=0.1)
        assert calls == [v0, v1]

    @pytest.mark.parametrize("grid", [sp.Grid(2, 32), sp.Grid(3, 16)], ids=["2d", "3d"])
    def test_jacobian_determinant_cofactors(self, grid):
        d = grid.dimension
        disp = sp.random_band_limited(grid, seed=22, ncomp=d)
        disp = sp.RealField(grid, values=0.3 * disp.values / np.max(np.abs(disp.values)))
        labels = np.stack(grid.coordinates())
        tm = mhd.TrajectoryMap(grid, 1.0, labels + disp.values, labels)
        j = sp.jacobian(disp).values.reshape((d, d) + grid.shape) + np.eye(d).reshape(
            (d, d) + (1,) * d)
        if d == 2:
            expect = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        else:
            expect = (j[0, 0] * (j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1])
                      - j[0, 1] * (j[1, 0] * j[2, 2] - j[1, 2] * j[2, 0])
                      + j[0, 2] * (j[1, 0] * j[2, 1] - j[1, 1] * j[2, 0]))
        got = tm.jacobian_determinant()
        assert np.max(np.abs(expect - 1.0)) > 0.1  # the map is far from rigid
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("case", ["coarse-field", "scalar", "empty", "mixed-grids"])
    def test_rejects_velocity_it_cannot_sample(self, case):
        coarse, fine = sp.Grid(2, 32), sp.Grid(2, 64)
        v = sp.random_solenoidal(coarse, seed=20, decay=3.0, amplitude=0.3)
        velocity, grid = {
            "coarse-field": (v, fine),
            "scalar": (sp.random_band_limited(coarse, seed=1), coarse),
            "empty": ([], coarse),
            "mixed-grids": ([(0.0, v), (1.0, sp.zero_field(fine, 2))], coarse),
        }[case]
        with pytest.raises(sp.SpectralError, match="velocity must be a vector field"):
            mhd.trajectory_map(velocity, grid, t_final=0.5, dt=0.05)

    def test_snapshot_history_interpolation(self):
        a = sp.RealField(
            G, values=np.stack([np.ones(G.shape), np.zeros(G.shape)]),
            solenoidal=True,
        )
        snaps = [(0.0, 0.0 * a), (1.0, 2.0 * a)]  # v(t) = 2t in x only
        tm = mhd.trajectory_map(snaps, G, t_final=1.0, dt=0.125)
        expect = tm.labels.copy()
        expect[0] = expect[0] + 1.0  # integral of 2t over [0,1]
        assert np.max(np.abs(tm.positions - expect)) <= 1e-12


class TestCatalog:
    @pytest.mark.parametrize("kind", sorted(mhd.INITIAL_DATA))
    def test_solenoidal(self, kind):
        maker = mhd.INITIAL_DATA[kind]
        if kind in ("alfven", "random"):
            u, b = maker(G, seed=1)
        else:
            u, b = maker(G)
        assert sp.solenoidal_residual(u) <= 1e-10
        if b.magnitude().max() > 0:
            assert sp.solenoidal_residual(b) <= 1e-10
