import math

import numpy as np
import pytest

from lpmhd import diagnostics as diag
from lpmhd import mhd
from lpmhd import spectral as sp
from lpmhd.spaces import NormSpec, lp_norm, sup_block_norm

G = sp.Grid(2, 64)
SPECS = (NormSpec(1.5, 2, 2, homogeneous=False),)


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
        from lpmhd.spaces import sup_block_norm

        assert max(rec.block_sup_curl_u) == sup_block_norm(wu)

    def test_bounded_by_kernel_constant(self):
        c = diag.block_kernel_constant(G)
        u, b = mhd.orszag_tang(G)
        state = mhd.to_elsasser(u, b)
        rec = diag.record(state, ())
        wu, wb = diag.curl_pair(state)
        bound = c * (lp_norm(wu, math.inf) + lp_norm(wb, math.inf))
        assert rec.blowup_integrand <= bound


class TestSinglePass:
    @staticmethod
    def coeff_only(state, t):
        return mhd.ElsasserState(
            sp.RealField(state.grid, coeffs=state.z_plus.coeffs, solenoidal=True),
            sp.RealField(state.grid, coeffs=state.z_minus.coeffs, solenoidal=True),
            t,
        )

    @pytest.mark.parametrize(
        "grid, expected", [(sp.Grid(2, 64), 26), (sp.Grid(3, 16), 54)]
    )
    def test_transform_count(self, count_transforms, grid, expected):
        # per record: 2d state values, 2 d^2 gradients, and per shell 2nc
        # curl components; the curls are decomposed once, whether or not a
        # trapezoid step is taken, and the p = q = 2 norm is a Plancherel
        # sum over the coefficients, with no transform
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

    @pytest.mark.parametrize("grid", [sp.Grid(2, 64), sp.Grid(3, 16)])
    def test_matches_separate_evaluations(self, grid):
        u, b = mhd.random_pair(grid, seed=24)
        state = mhd.to_elsasser(u, b)
        rec = diag.record(state, ())
        wu, wb = diag.curl_pair(state)
        stacked = sp.RealField(grid, coeffs=np.concatenate([wu.coeffs, wb.coeffs]))
        assert rec.blowup_integrand == sup_block_norm(stacked)
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
    def test_csv_columns_and_rows(self, tmp_path):
        u, b = mhd.orszag_tang(G)
        stream = run_stream(mhd.to_elsasser(u, b), 3, 1e-3)
        path = tmp_path / "diag.csv"
        diag.write_csv(stream.records, G, path, SPECS, timestamp="T0")
        lines = path.read_text().splitlines()
        assert lines[0] == "# created: T0"
        header = lines[1].split(",")
        assert header[:7] == [
            "t", "energy", "cross_helicity", "grad_sup_z_plus",
            "grad_sup_z_minus", "blowup_integrand", "blowup_integral",
        ]
        assert len(lines) == 2 + len(stream.records)
        assert len(lines[2].split(",")) == len(header)

    def test_deterministic_emission(self, tmp_path):
        u, b = mhd.orszag_tang(G)
        stream = run_stream(mhd.to_elsasser(u, b), 2, 1e-3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        diag.write_csv(stream.records, G, p1, SPECS, timestamp="A")
        diag.write_csv(stream.records, G, p2, SPECS, timestamp="B")
        a = p1.read_text().splitlines()[1:]
        b2 = p2.read_text().splitlines()[1:]
        assert a == b2
