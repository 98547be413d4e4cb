import dataclasses
import math

import numpy as np
import pytest

from lpmhd import diagnostics as diag
from lpmhd import mhd
from lpmhd import spectral as sp
from lpmhd.spaces import NormSpec, lp_norm, tl_norm
from oracles import block_kernel_constant, diagnostics_record

G = sp.Grid(2, 64)
SPECS = (NormSpec(1.5, 2, 2, homogeneous=False),)


def csv_text(records, grid, specs, timestamp):
    return diag.csv_header(grid, specs, timestamp) + "".join(
        diag.csv_line(rec, specs) for rec in records
    )


def run_stream(state, n_steps, dt, specs=SPECS, cadence=1):
    stream = diag.DiagnosticsStream(specs)
    stream.append(state)
    for m in range(1, n_steps + 1):
        state = mhd.step(state, dt)
        if m % cadence == 0:
            stream.append(state)
    return stream


class TestRecord:
    def test_zero_state(self):
        state = mhd.ElsasserState(sp.zero_field(G, 2), sp.zero_field(G, 2))
        rec = diag.record(state, SPECS)
        assert rec.energy == 0.0
        assert rec.cross_helicity == 0.0
        assert rec.grad_sup_z_plus == 0.0
        assert rec.blowup_integrand == 0.0
        assert all(v == 0.0 for v in rec.block_sup_curl_u)
        assert all(v == 0.0 for v in rec.norms.values())

    def test_alfven_constants(self):
        u, b = mhd.alfven_state(G, seed=1)
        stream = run_stream(mhd.to_elsasser(u, b), 5, 1e-3)
        energies = [r.energy for r in stream.records]
        helicities = [r.cross_helicity for r in stream.records]
        assert max(energies) - min(energies) <= 1e-12 * max(energies)
        assert max(helicities) - min(helicities) <= 1e-12 * max(abs(h) for h in helicities)

    def test_blowup_matches_direct_block_evaluation(self):
        # b = 0: B(t) = sup_j ||Delta_j omega||_inf, recomputed here from the
        # snapshot with raw numpy
        u, _ = mhd.taylor_green(G, 0.9)
        state = mhd.to_elsasser(u, sp.zero_field(G, 2))
        rec = diag.record(state, ())
        k = np.fft.fftfreq(G.points, 1.0 / G.points)
        omega = np.real(
            np.fft.ifft2(
                1j * k[:, None] * np.fft.fft2(u.values[1])
                - 1j * k[None, :] * np.fft.fft2(u.values[0])
            )
        )
        radius = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
        best = 0.0
        for j in G.js:
            mult = sp.phi_profile(radius / 2.0**j)
            blk = np.real(np.fft.ifft2(mult * np.fft.fft2(omega)))
            best = max(best, np.max(np.abs(blk)))
        assert abs(rec.blowup_integrand - best) <= 1e-12 * best

    def test_per_block_consistency_with_norm(self):
        # sup_j of the recorded blocks equals the (0, inf, inf) norm exactly
        u, b = mhd.orszag_tang(G)
        state = mhd.to_elsasser(u, b)
        rec = diag.record(state, ())
        wu, _ = diag.curl_pair(state)
        assert max(rec.block_sup_curl_u) == tl_norm(wu, NormSpec(0.0, math.inf, math.inf))

    def test_bounded_by_kernel_constant(self):
        c = block_kernel_constant(G)
        u, b = mhd.orszag_tang(G)
        state = mhd.to_elsasser(u, b)
        rec = diag.record(state, ())
        wu, wb = diag.curl_pair(state)
        bound = c * (lp_norm(wu, math.inf) + lp_norm(wb, math.inf))
        assert rec.blowup_integrand <= bound


def _with_nan(state):
    # one non-finite coefficient in each field
    grid = state.grid
    pair = []
    for z in (state.z_plus, state.z_minus):
        coeffs = z.coeffs.copy()
        coeffs[(1,) + (2,) * grid.dimension] = np.nan
        pair.append(sp.RealField(grid, coeffs=coeffs, solenoidal=True))
    return mhd.ElsasserState(*pair, state.t)


class TestLayouts:
    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize(
        "grid", [sp.Grid(2, 64), sp.Grid(2, 128), sp.Grid(3, 16), sp.Grid(3, 32)],
        ids=["2d-64", "2d-128", "3d-16", "3d-32"],
    )
    def test_cube_and_full_layouts_match_oracle(self, grid, nan, monkeypatch):
        # the same two records from the 2/3 cube and, with the support check
        # turned off, from the full half spectrum: every CSV field has the
        # repr of the frozen full-lattice record (the NaN lies inside the
        # cube, which then takes no sub-box)
        state = mhd.to_elsasser(*mhd.random_pair(grid, seed=27))
        states = [state, mhd.step(state, 1e-3)]
        if nan:
            states = [_with_nan(s) for s in states]
        assert all(sp._cube_supported(grid, z.coeffs)
                   for s in states for z in (s.z_plus, s.z_minus))
        specs = SPECS + (NormSpec(2.5, 3, 2),)

        def lines(record):
            prev, out = None, []
            for s in states:
                prev = record(s, specs, prev)
                out.append(diag.csv_line(prev, specs).rstrip("\n").split(","))
            return out

        cube = lines(diag.record)
        monkeypatch.setattr(diag, "_cube_supported", lambda grid, c: False)
        full = lines(diag.record)
        assert cube == full == lines(diagnostics_record)
        if nan:
            columns = diag.csv_columns(grid, specs)
            sups = [v for c, v in zip(columns, cube[-1]) if "sup" in c or "blowup" in c]
            assert sups and all(v == "nan" for v in sups)


class TestSinglePass:
    @staticmethod
    def coeff_only(state, t):
        return mhd.ElsasserState(
            sp.RealField(state.grid, coeffs=state.z_plus.coeffs, solenoidal=True),
            sp.RealField(state.grid, coeffs=state.z_minus.coeffs, solenoidal=True),
            t,
        )

    @pytest.mark.parametrize(
        "grid, expected",
        [(sp.Grid(2, 64), 24), (sp.Grid(3, 16), 54), (sp.Grid(2, 128), 26), (sp.Grid(3, 32), 60)],
    )
    def test_transform_count(self, count_transforms, grid, expected):
        # per record: 2d state values, 2 d^2 gradients, and per nonempty
        # shell 2nc curl components (the dealiased 2D state's shell j_max
        # lies outside the 2/3 cube and is skipped; 3D has no empty shell);
        # the curls are decomposed once, whether or not a trapezoid step is
        # taken, and the p = q = 2 norm is a Plancherel sum over the
        # coefficients, with no transform.  2D N=128 and 3D N=32 inverse-
        # transform their leading shells from boxes, each counted as its
        # 2nc components
        u, b = mhd.random_pair(grid, seed=23)
        state = mhd.to_elsasser(u, b)
        stream = diag.DiagnosticsStream(SPECS)
        counts = count_transforms()
        for t in (0.0, 1e-3):
            recorded = self.coeff_only(state, t)
            counts.clear()
            stream.append(recorded)
            assert sum(counts) == expected
            # the record caches the values the next RK4 step reads
            assert recorded.z_plus._values is not None
            assert recorded.z_minus._values is not None

    def test_empty_shell_skipped(self, count_transforms):
        # shell j_max of a dealiased 2D state lies outside the 2/3 cube: its
        # sups are the 0.0 its inverse gives, read without a transform; a
        # state reaching past the cube transforms every shell
        grid = sp.Grid(2, 64)
        rec = diag.record(mhd.to_elsasser(*mhd.random_pair(grid, seed=23)))
        assert rec.block_sup_curl_u[-1] == rec.block_sup_curl_b[-1] == 0.0
        kmax = grid.points // 2 - 1
        u, b = (sp.random_solenoidal(grid, seed=seed, kmax=kmax) for seed in (23, 24))
        state = self.coeff_only(mhd.to_elsasser(u, b), 0.0)
        counts = count_transforms()
        rec = diag.record(state)
        assert sum(counts) == 26
        assert rec.block_sup_curl_u[-1] > 0.0

    def test_nonfinite_mode_outside_every_box_poisons_every_sup(self, box_passes):
        # 3D N=32 takes the box path for its leading shells; a NaN at a high
        # mode of z+, outside each box, still makes every sup NaN, as in the
        # full product of every shell
        grid = sp.Grid(3, 32)
        state = mhd.to_elsasser(*mhd.random_pair(grid, seed=25))
        rec = diag.record(state)
        assert box_passes and np.isfinite(rec.blowup_integrand)
        coeffs = state.z_plus.coeffs.copy()
        coeffs[1, 14, 14, 12] = np.nan
        bad = mhd.ElsasserState(sp.RealField(grid, coeffs=coeffs), state.z_minus, 0.0)
        rec = diag.record(bad)
        assert math.isnan(rec.blowup_integrand)
        assert np.isnan(rec.block_sup_curl_u).all()
        assert np.isnan(rec.block_sup_curl_b).all()

    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)])
    def test_matches_separate_evaluations(self, grid):
        u, b = mhd.random_pair(grid, seed=24)
        state = mhd.to_elsasser(u, b)
        rec = diag.record(state, ())
        wu, wb = diag.curl_pair(state)
        stacked = sp.RealField(grid, coeffs=np.concatenate([wu.coeffs, wb.coeffs]))
        assert rec.blowup_integrand == tl_norm(stacked, NormSpec(0.0, math.inf, math.inf))
        for sups, w in ((rec.block_sup_curl_u, wu), (rec.block_sup_curl_b, wb)):
            mags = sp.block_magnitudes(w)
            assert len(sups) == len(mags)
            for j, sup in enumerate(sups):
                assert sup == float(mags[j].max())


class TestStream:
    def test_integral_nondecreasing(self):
        u, b = mhd.orszag_tang(G)
        stream = run_stream(mhd.to_elsasser(u, b), 10, 1e-3)
        integrals = [r.blowup_integral for r in stream.records]
        assert all(b >= a for a, b in zip(integrals, integrals[1:]))
        assert all(r.blowup_integrand >= 0 for r in stream.records)

    def test_trapezoid_cadence_convergence(self):
        # the integral changes O(cadence^2) on smooth runs
        u, b = mhd.orszag_tang(G, amplitude=0.8)
        state = mhd.to_elsasser(u, b)
        totals = {}
        for cadence in (4, 2, 1):
            stream = run_stream(state, 16, 2e-3, specs=(), cadence=cadence)
            totals[cadence] = stream.records[-1].blowup_integral
        e_coarse = abs(totals[4] - totals[1])
        e_fine = abs(totals[2] - totals[1])
        if e_coarse > 1e-14:
            assert e_fine <= 0.5 * e_coarse


class TestGronwall:
    def test_constant_state(self):
        u, b = mhd.alfven_state(G, seed=2)
        stream = run_stream(mhd.to_elsasser(u, b), 5, 1e-3)
        c, violation = diag.gronwall_check(stream.records, SPECS[0].label)
        assert c == 0.0
        assert violation <= 1e-12

    def test_single_record(self):
        u, b = mhd.orszag_tang(G)
        rec = diag.record(mhd.to_elsasser(u, b), SPECS)
        c, violation = diag.gronwall_check([rec], SPECS[0].label)
        assert c == 0.0 and violation == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_single_record_any_norm_value(self, value):
        # the general fit has no pair to fit on one record: (0.0, 0.0) even
        # when y - envelope is NaN (inf - inf warns, as on any stream)
        u, b = mhd.orszag_tang(G)
        rec = diag.record(mhd.to_elsasser(u, b), SPECS)
        rec = dataclasses.replace(rec, norms={SPECS[0].label: value})
        assert diag.gronwall_check([rec], SPECS[0].label) == (0.0, 0.0)

    @pytest.mark.parametrize("field", ["norm", "grad"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_stream(self, field, value):
        # a stream whose norm or gradient sup turns non-finite has no
        # envelope: (nan, nan), as Python floats
        u, b = mhd.orszag_tang(sp.Grid(2, 32))
        stream = run_stream(mhd.to_elsasser(u, b), 1, 2e-3)
        last = stream.records[-1]
        if field == "norm":
            last = dataclasses.replace(last, norms={SPECS[0].label: value})
        else:
            last = dataclasses.replace(last, grad_sup_z_minus=value)
        c, violation = diag.gronwall_check([stream.records[0], last], SPECS[0].label)
        assert type(c) is float and type(violation) is float
        assert math.isnan(c) and math.isnan(violation)

    def test_empty_stream(self):
        with pytest.raises(sp.SpectralError):
            diag.gronwall_check([], SPECS[0].label)

    def test_envelope_dominates(self):
        u, b = mhd.orszag_tang(G)
        stream = run_stream(mhd.to_elsasser(u, b), 20, 2e-3)
        c, violation = diag.gronwall_check(stream.records, SPECS[0].label)
        assert c >= 0.0 and math.isfinite(c)
        assert violation <= 1e-9

    def test_taylor_green_run_fitted_constant_stable(self):
        # steady data: the fitted constant is 0 at every dt, trivially stable
        u, b = mhd.taylor_green(G)
        cs = []
        for dt, steps in ((2e-3, 20), (1e-3, 40)):
            stream = run_stream(mhd.to_elsasser(u, b), steps, dt)
            c, _ = diag.gronwall_check(stream.records, SPECS[0].label)
            cs.append(c)
        assert all(c <= 1e-6 for c in cs)

    def test_dynamic_run_fitted_constant_stable(self):
        u, b = mhd.orszag_tang(G)
        cs = []
        for dt, steps in ((4e-3, 25), (2e-3, 50)):
            stream = run_stream(mhd.to_elsasser(u, b), steps, dt)
            c, _ = diag.gronwall_check(stream.records, SPECS[0].label)
            cs.append(c)
        assert cs[0] > 0
        assert abs(cs[1] - cs[0]) <= 0.2 * cs[0]


class TestEmission:
    def test_csv_columns_and_rows(self):
        u, b = mhd.orszag_tang(G)
        stream = run_stream(mhd.to_elsasser(u, b), 3, 1e-3)
        lines = csv_text(stream.records, G, SPECS, "T0").splitlines()
        assert lines[0] == "# created: T0"
        header = lines[1].split(",")
        assert header[:7] == [
            "t", "energy", "cross_helicity", "grad_sup_z_plus",
            "grad_sup_z_minus", "blowup_integrand", "blowup_integral",
        ]
        assert len(lines) == 2 + len(stream.records)
        assert len(lines[2].split(",")) == len(header)

    def test_deterministic_emission(self):
        u, b = mhd.orszag_tang(G)
        stream = run_stream(mhd.to_elsasser(u, b), 2, 1e-3)
        a = csv_text(stream.records, G, SPECS, "A").splitlines()[1:]
        b2 = csv_text(stream.records, G, SPECS, "B").splitlines()[1:]
        assert a == b2
