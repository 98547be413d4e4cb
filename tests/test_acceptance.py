"""Acceptance criteria, one test per criterion, each at its stated
tolerance, printing one PASS line per criterion (run with -s to see them
inline)."""

import math
import time

import numpy as np
import pytest

from lpmhd import diagnostics as diag
from lpmhd import lab, mhd
from lpmhd import spectral as sp
from lpmhd.paracalc import commutator_family, commutator_split_family
from lpmhd.spaces import NormSpec, lp_norm, tl_norm
from oracles import block_kernel_constant, partition_defect


def report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


# ---------------------------------------------------------------------------
# shared unit-time Orszag-Tang run (criteria 7, 11, 12)
# ---------------------------------------------------------------------------

OT_POINTS = 128
OT_DT = 1e-3
OT_T = 1.0
OT_CADENCE = 10
OT_SPECS = (NormSpec(2.5, 2, 2, homogeneous=False),)


def orszag_tang_run():
    """The criterion-7 run; returns (records, per-record curl sup norms,
    csv body text, wall time)."""
    grid = sp.Grid(2, OT_POINTS)
    u, b = mhd.orszag_tang(grid)
    state = mhd.to_elsasser(u, b)
    stream = diag.DiagnosticsStream(OT_SPECS)
    curl_sups = []

    def note(s):
        stream.append(s)
        wu, wb = diag.curl_pair(s)
        curl_sups.append(lp_norm(wu, math.inf) + lp_norm(wb, math.inf))

    t0 = time.time()
    note(state)
    n_steps = round(OT_T / OT_DT)
    for m in range(1, n_steps + 1):
        state = mhd.step(state, OT_DT)
        if m % OT_CADENCE == 0:
            note(state)
    elapsed = time.time() - t0
    import io

    buf = io.StringIO()
    lines = [",".join(diag.csv_columns(grid, OT_SPECS))]
    for rec in stream.records:
        lines.append(",".join(repr(float(x)) for x in diag.record_row(rec, OT_SPECS)))
    buf.write("\n".join(lines))
    return stream.records, curl_sups, buf.getvalue(), elapsed


@pytest.fixture(scope="module")
def ot_run():
    return orszag_tang_run()


# ---------------------------------------------------------------------------


def test_criterion_01_partition_of_unity():
    t0 = time.time()
    grid = sp.Grid(2, 128)
    defect = partition_defect(sp.make_filter_bank(grid))
    elapsed = time.time() - t0
    assert defect <= 1e-12
    assert elapsed < 1.0
    report(1, f"partition defect {defect:.2e} (limit 1e-12), {elapsed:.2f}s")


def test_criterion_02_support_identities():
    t0 = time.time()
    grid = sp.Grid(2, 128)
    bank = sp.make_filter_bank(grid)
    worst_prod = 0.0
    for seed in range(50):
        f = sp.random_band_limited(grid, seed=seed, decay=1.5)
        sup = float(np.max(np.abs(f.values)))
        # first identity: exactly zero composition
        for j in grid.js:
            for k in grid.js:
                if abs(j - k) >= 2:
                    out = sp.dyadic_block(sp.dyadic_block(f, k), j)
                    assert np.all(out.coeffs == 0.0)
                    assert np.all(out.values == 0.0)
        # second identity: dealiased paraproduct pieces
        lows = {k: sp.low_pass(f, k - 1) for k in range(grid.j0 + 1, grid.j_max + 1)}
        blocks = {k: sp.dyadic_block(f, k) for k in grid.js}
        for k in range(grid.j0 + 1, grid.j_max + 1):
            prod = sp.multiply(lows[k], blocks[k])
            for j in grid.js:
                if abs(j - k) >= 5:
                    out = sp.apply_multiplier(prod, bank.phi[j])
                    val = float(np.max(np.abs(out.values)))
                    worst_prod = max(worst_prod, val / sup**2)
                    assert val <= 1e-10 * sup**2
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"block identities: worst scaled residual {worst_prod:.2e} "
              f"(limit 1e-10), {elapsed:.1f}s")


def test_criterion_03_commutator_split_exactness():
    t0 = time.time()
    grid = sp.Grid(2, 128)
    worst = 0.0
    for trial in range(100):
        f = sp.random_solenoidal(grid, seed=2 * trial, decay=2.0)
        g = sp.random_band_limited(grid, seed=2 * trial + 1, decay=2.0)
        direct = commutator_family(f, g)
        splits = commutator_split_family(f, g)
        for k in grid.js:
            ref = direct[k]
            total = splits[k].total
            denom = lp_norm(ref, 2)
            if denom > 0.0:
                err = lp_norm(total - ref, 2) / denom
                worst = max(worst, err)
                assert err <= 1e-10
            else:
                assert lp_norm(total, 2) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(3, f"four-term split vs direct commutator: worst rel {worst:.2e} "
              f"(limit 1e-10), 100 pairs x all k, {elapsed:.1f}s")


def test_criterion_04_sobolev_oracle_band():
    def oracle(field, s):
        w = sp.spectral_weights(field.grid)
        r = sp.radius(field.grid)
        c = field.coeffs[0] / field.grid.points**field.grid.dimension
        return math.sqrt(float(np.sum(w * r ** (2 * s) * np.abs(c) ** 2)))

    max_ratio = {}
    for n in (64, 256):
        grid = sp.Grid(2, n)
        for s in (0.5, 1.5, 2.5):
            ratios = []
            for seed in range(100):
                f = sp.random_band_limited(grid, seed=seed, decay=2.0, kmax=21)
                ratios.append(tl_norm(f, NormSpec(s, 2, 2)) / oracle(f, s))
            assert all(1 / 3 <= r <= 3 for r in ratios)
            max_ratio[(n, s)] = max(ratios)
    for s in (0.5, 1.5, 2.5):
        a, b = max_ratio[(64, s)], max_ratio[(256, s)]
        assert abs(b - a) <= 0.10 * a
    report(4, "F^s_{2,2} within [1/3,3] of the Fourier-sum oracle; "
              "per-s max ratio moves <= 10% from N=64 to N=256")


def test_criterion_05_commutator_estimates_sweep():
    t0 = time.time()
    # 13 (id, params) jobs in one call: every job shares each trial's
    # (f, g) and its two commutator families
    all_ids = ("commutator-A2", "commutator-A3", "term-I", "term-II",
               "term-III", "term-IV")
    jobs = (
        [(iid, {"s": 1.5, "p": 2.0, "q": 2.0}) for iid in all_ids]
        + [(iid, {"s": 2.5, "p": 4.0, "q": 2.0}) for iid in all_ids]
        + [("commutator-A3", {"s": -0.5, "p": 2.0, "q": 2.0})]
    )
    sweeps = lab.stability_sweeps(jobs, resolutions=(64, 128), trials=200, seed=42)
    worst_growth = 0.0
    for (iid, params), sweep in zip(jobs, sweeps):
        assert all(rep.finite for rep in sweep.reports), (iid, params)
        assert sweep.max_growth <= 1.2, (iid, params, sweep.max_growth)
        worst_growth = max(worst_growth, sweep.max_growth)
    elapsed = time.time() - t0
    report(5, f"A.2/A.3 and per-term bounds finite, worst 64->128 growth "
              f"{worst_growth:.3f} (limit 1.2), 200 trials each, {elapsed:.0f}s")


def test_criterion_06_lemma_harness():
    # single-mode Bernstein ratio is exactly 1
    grid = sp.Grid(2, 128)
    for j in range(0, 6):
        f = sp.from_function(grid, lambda x, y, j=j: np.cos(2.0**j * x))
        ratio = lp_norm(sp.spectral_derivative(f, (1, 0)), 2) / (
            2.0**j * lp_norm(f, 2)
        )
        assert abs(ratio - 1.0) <= 1e-12

    for iid in ("bernstein", "deriv-equiv", "product"):
        rep = lab.run_inequalities([(iid, {"n": 64})], trials=200, seed=7)[0]
        assert rep.finite

    for n in (64, 128):
        rep = lab.run_inequalities([("majorant", {"n": n})], trials=200, seed=7)[0]
        assert rep.finite
        assert rep.max_ratio <= 1.05, rep.max_ratio

    # three (p, q) jobs in one call: one draw and one maximization per trial
    worst = 0.0
    pqs = ((2.0, 2.0), (4.0, 2.0), (2.0, math.inf))
    sweeps = lab.stability_sweeps(
        [("vector-maximal", {"p": p, "q": q}) for p, q in pqs],
        resolutions=(64, 128), trials=200, seed=7,
    )
    for (p, q), sweep in zip(pqs, sweeps):
        assert all(rep.finite for rep in sweep.reports)
        assert sweep.max_growth <= 1.2, (p, q, sweep.max_growth)
        worst = max(worst, sweep.max_growth)

    sweep = lab.stability_sweeps([("bernstein", {})], resolutions=(64, 128, 256),
                                 trials=200, seed=7)[0]
    assert sweep.max_growth <= 1.05

    report(6, f"Bernstein single-mode ratio exact; majorant slack <= 5%; "
              f"vector-maximal growth <= {worst:.3f} (limit 1.2)")


def test_criterion_07_conservation(ot_run):
    records, _, _, elapsed = ot_run
    energies = np.array([r.energy for r in records])
    helicities = np.array([r.cross_helicity for r in records])
    e_drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    h_scale = max(abs(helicities[0]), energies[0])
    h_drift = float(np.max(np.abs(helicities - helicities[0])) / h_scale)
    assert e_drift <= 1e-6
    assert h_drift <= 1e-6
    assert elapsed <= 300.0
    report(7, f"Orszag-Tang N=128 t in [0,1]: energy drift {e_drift:.2e}, "
              f"cross-helicity drift {h_drift:.2e} (limits 1e-6), {elapsed:.0f}s")


def test_criterion_08_alfven_steady_state():
    grid = sp.Grid(2, 128)
    u0, b0 = mhd.alfven_state(grid, seed=11, amplitude=0.5)
    state = mhd.to_elsasser(u0, b0)
    dt = 1e-2
    for _ in range(round(1.0 / dt)):
        state = mhd.step(state, dt)
    u_t, _ = mhd.from_elsasser(state)
    drift = float(np.max(np.abs(u_t.values - u0.values)))
    assert drift <= 1e-10
    report(8, f"Alfven steady state: max |u(1) - u0| = {drift:.2e} (limit 1e-10)")


def test_criterion_09_picard_contraction():
    grid = sp.Grid(2, 128)
    zp0 = sp.random_solenoidal(grid, seed=100, decay=3.0, amplitude=0.05, kmax=21)
    zm0 = sp.random_solenoidal(grid, seed=101, decay=3.0, amplitude=0.05, kmax=21)
    iterates = mhd.picard_iterate(zp0, zm0, s=2.5, p=2, q=2,
                                  t_final=0.1, dt=1e-3, n_max=7)
    sups = {it.n: it.sup_diff_norm for it in iterates}
    ratios = {n: sups[n + 1] / sups[n] for n in range(1, 7)}
    assert all(r < 1.0 for r in ratios.values()), ratios

    state = mhd.ElsasserState(sp.dealias(zp0), sp.dealias(zm0))
    for _ in range(round(0.1 / 1e-3)):
        state = mhd.step(state, 1e-3)
    spec = NormSpec(1.5, 2, 2, homogeneous=False)
    final6 = next(it.final_state for it in iterates if it.n == 6)
    gap = (
        tl_norm(final6.z_plus - state.z_plus, spec)
        + tl_norm(final6.z_minus - state.z_minus, spec)
    )
    assert gap <= 5.0 * sups[5]
    report(9, f"Picard ratios n=1..6 all < 1 (max {max(ratios.values()):.3f}); "
              f"|z6 - nonlinear| = {gap:.2e} <= 5 x delta5 = {5 * sups[5]:.2e}")


def test_criterion_10_trajectory_volume_preservation():
    grid = sp.Grid(2, 128)
    shear = sp.from_function(
        grid, lambda x, y: np.sin(y), lambda x, y: np.zeros_like(x)
    )
    shear = sp.RealField(grid, values=shear.values, solenoidal=True)
    tm = mhd.trajectory_map(shear, grid, t_final=1.0, dt=0.05)
    exact = tm.labels.copy()
    exact[0] = exact[0] + np.sin(tm.labels[1])
    form_err = float(np.max(np.abs(tm.positions - exact)))
    det_err = float(np.max(np.abs(tm.jacobian_determinant() - 1.0)))
    assert form_err <= 1e-8
    assert det_err <= 1e-4
    report(10, f"shear trajectory: closed-form error {form_err:.2e} (limit 1e-8), "
               f"max |det - 1| = {det_err:.2e} (limit 1e-4)")


def test_criterion_11_blowup_monitor(ot_run):
    records, curl_sups, _, _ = ot_run
    grid = sp.Grid(2, OT_POINTS)
    c = block_kernel_constant(grid)
    integrals = [r.blowup_integral for r in records]
    assert all(math.isfinite(r.blowup_integrand) for r in records)
    assert all(b >= a for a, b in zip(integrals, integrals[1:]))
    for rec, sups in zip(records, curl_sups):
        assert rec.blowup_integrand <= c * sups
    report(11, f"blow-up monitor: B finite, integral nondecreasing up to "
               f"{integrals[-1]:.3f}, B <= C(curl sups) with C = {c:.3f}")


def test_criterion_12_determinism(ot_run):
    _, _, csv_first, _ = ot_run
    _, _, csv_second, _ = orszag_tang_run()
    assert csv_first == csv_second
    report(12, "repeating the conservation run reproduces its CSV byte for byte")
