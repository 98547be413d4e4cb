"""3D coverage: the machinery is dimension-generic, exercised here on a
small 16^3 grid."""

import math

import numpy as np

from lpmhd import diagnostics as diag
from lpmhd import mhd
from lpmhd import spectral as sp
from lpmhd.paracalc import commutator_family, commutator_split_family
from lpmhd.spaces import NormSpec, lp_norm, maximal_function, tl_norm
from oracles import partition_defect

G3 = sp.Grid(3, 16)


def test_grid_and_partition():
    assert G3.j_max == 3
    bank = sp.make_filter_bank(G3)
    assert partition_defect(bank) <= 1e-12


def test_reconstruction():
    f = sp.random_band_limited(G3, seed=1)
    total = sp.low_pass(f, G3.j0)
    for j in G3.js:
        total = total + sp.dyadic_block(f, j)
    assert np.max(np.abs(total.values - f.values)) <= 1e-12 * np.max(
        np.abs(f.values)
    )


def test_curl_identities():
    psi = sp.random_band_limited(G3, seed=2, ncomp=3)
    w = sp.curl(psi)
    assert w.ncomp == 3
    # div curl = 0
    assert np.max(np.abs(sp.divergence(w).values)) <= 1e-11 * np.max(
        np.abs(psi.values)
    )
    # curl grad = 0
    g = sp.gradient(sp.random_band_limited(G3, seed=3))
    assert np.max(np.abs(sp.curl(g).values)) <= 1e-11 * np.max(np.abs(g.values))


def test_leray_and_riesz():
    v = sp.random_band_limited(G3, seed=4, ncomp=3)
    pv = sp.leray_project(v)
    assert sp.solenoidal_residual(pv) <= 1e-10
    f = sp.random_band_limited(G3, seed=5)
    total = sp.zero_field(G3)
    for axis in range(3):
        total = total + sp.riesz(sp.riesz(f, axis), axis)
    mean = f.mean()[0]
    assert np.max(np.abs(total.values + (f.values - mean))) <= 1e-12


def test_norms_and_maximal():
    f = sp.random_band_limited(G3, seed=6)
    assert tl_norm(f, NormSpec(1.5, 2, 2)) > 0
    assert tl_norm(f, NormSpec(0.0, math.inf, math.inf)) > 0
    m = maximal_function(f)
    assert np.all(m.values[0] >= np.abs(f.values[0]) - 1e-13)


def test_commutator_split_exact():
    f = sp.random_solenoidal(G3, seed=7)
    g = sp.random_band_limited(G3, seed=8)
    direct = commutator_family(f, g)
    splits = commutator_split_family(f, g)
    for k in G3.js:
        denom = lp_norm(direct[k], 2)
        if denom > 0:
            err = lp_norm(splits[k].total - direct[k], 2) / denom
            assert err <= 1e-10
        else:
            assert lp_norm(splits[k].total, 2) <= 1e-12


def test_conservation_and_blowup_monitor():
    u, b = mhd.random_pair(G3, seed=9, amplitude=0.3)
    state = mhd.to_elsasser(u, b)
    e0 = diag.energy(state)
    h0 = diag.cross_helicity(state)
    stream = diag.DiagnosticsStream(())
    stream.append(state)
    for _ in range(10):
        state = mhd.step(state, 2e-3)
        stream.append(state)
    assert abs(diag.energy(state) - e0) <= 1e-9 * e0
    assert abs(diag.cross_helicity(state) - h0) <= 1e-9 * max(abs(h0), e0)
    integrals = [r.blowup_integral for r in stream.records]
    assert all(b2 >= a for a, b2 in zip(integrals, integrals[1:]))
    # the 3D blow-up integrand uses the vector curls of both fields
    rec = stream.records[-1]
    assert rec.blowup_integrand > 0
    assert len(rec.block_sup_curl_u) == len(list(G3.js))


def test_trajectory_shear_3d():
    shear = sp.from_function(
        G3,
        lambda x, y, z: np.sin(z),
        lambda x, y, z: np.zeros_like(x),
        lambda x, y, z: np.zeros_like(x),
    )
    shear = sp.RealField(G3, values=shear.values, solenoidal=True)
    tm = mhd.trajectory_map(shear, G3, t_final=0.5, dt=0.125)
    exact = tm.labels.copy()
    exact[0] = exact[0] + 0.5 * np.sin(tm.labels[2])
    assert np.max(np.abs(tm.positions - exact)) <= 1e-8
    assert np.max(np.abs(tm.jacobian_determinant() - 1.0)) <= 1e-8


def test_lab_runs_3d():
    from lpmhd import lab

    for iid in ("commutator-A2", "bernstein"):
        rep = lab.run_inequalities([(iid, {"d": 3, "n": 16})], trials=3, seed=10)[0]
        assert rep.finite
