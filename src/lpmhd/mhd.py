"""Ideal MHD in Elsasser form on the periodic grid: divergence-form
tendency, RK4 stepping, the linearized Picard approximation scheme, and
particle trajectory maps.

The system is d_t z+ + (z- . grad) z+ = -grad pi, d_t z- + (z+ . grad) z- =
-grad pi with div z+ = div z- = 0.  Because both advectors are solenoidal,
(w . grad) z = div(z (x) w), so both equations are built from the same d^2
products M_ij = z+_i z-_j: dz+_i/dt = -d_j M_ij - d_i pi and
dz-_i/dt = -d_j M_ji - d_i pi.  One total pressure pi serves both, because
d_i d_j M_ij is unchanged by M -> M^T: grad pi is the gradient part of
either rate -d_j M_ij or -d_j M_ji, the part the Leray projection removes,
so it is formed once per tendency, by the same kernel as `leray_project`
(`spectral._leray_complement`), and subtracted from both halves.
A dealiased tendency is zero outside the 2/3 cube |xi_i| <= N/3, so its
arithmetic runs on the cube alone: the dyads are forward-transformed to the
cube only (which dealiases them) and differentiated by the cached cube
table -i xi_j.  `step` keeps its RK4 stages on the cube of the pair and,
when the pair vanishes outside the cube, inverse-transforms them straight
from it; `mhd_tendency`, `pressure_gradient` and `advection` scatter the
same cube kernel's output into zeroed full arrays.  `pressure_gradient`
returns grad pi as a field for the lab's pressure estimate.  The
linearized Picard systems define their per-iterate pressures the same way,
as the Leray complement of the advection term, and step through the
nonlinear system's RK4 on the cube (iterate 1, advected by the zero pair,
is held fixed), each stage inverse-transformed straight from its cube by
the box inverse (`spectral._inverse` with k = N // 3), which also refines
the trajectory map's velocity snapshots.
There is no explicit dissipation: products are 2/3-dealiased and runs are
meant to stay smooth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spaces import NormSpec, lp_norm, tl_norm
from .spectral import (
    Grid,
    RealField,
    SpectralError,
    _cube_supported,
    _cube_tables,
    _forward,
    _gather,
    _inverse,
    _leray_complement,
    _require_solenoidal,
    _scatter,
    dealias,
    jacobian,
    low_pass,
    random_solenoidal,
    zero_field,
)


class CflWarning(UserWarning):
    """Advective CFL bound dt <= 0.5 h / max|z| violated."""


@dataclass(frozen=True)
class ElsasserState:
    """The pair (z+, z-) of solenoidal vector fields at time t."""

    z_plus: RealField
    z_minus: RealField
    t: float = 0.0

    def __post_init__(self):
        if self.z_plus.grid != self.z_minus.grid:
            raise SpectralError("Elsasser pair must share a grid")
        _require_solenoidal(self.z_plus, "z_plus")
        _require_solenoidal(self.z_minus, "z_minus")

    @property
    def grid(self) -> Grid:
        return self.z_plus.grid


def to_elsasser(u: RealField, b: RealField) -> ElsasserState:
    """(u, b) -> (z+, z-) = (u + b, u - b)."""
    if u.grid != b.grid:
        raise SpectralError("u and b must share a grid")
    _require_solenoidal(u, "u")
    _require_solenoidal(b, "b")
    return ElsasserState(u + b, u - b)


def from_elsasser(state: ElsasserState):
    """(z+, z-) -> (u, b); exact inverse of to_elsasser."""
    return _from_elsasser(state.z_plus, state.z_minus)


def _from_elsasser(zp, zm):
    """(u, b) = ((z+ + z-) / 2, (z+ - z-) / 2) of two fields or of two
    coefficient arrays, by one arithmetic: a field's difference is its sum
    with -1.0 times the other, spelled out here so that arrays take the
    same bits."""
    return 0.5 * (zp + zm), 0.5 * (zp + (-1.0) * zm)


# ---------------------------------------------------------------------------
# tendency
# ---------------------------------------------------------------------------


def _dyads(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_i b_j of stacked values a (m,) + shape and b (n,) + shape,
    as their coefficients on the 2/3 cube, shape (m, n) + the cube's shape,
    from one batched forward transform pruned to the cube (the bits of the
    cube gathered from the full transform): keeping the cube dealiases
    them."""
    return _forward(grid, a[:, np.newaxis] * b[np.newaxis, :], grid.dealias_limit)


def _divergence(grid: Grid, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """-sum_j d_j of the cube dyads m (k, d) + the cube's shape, written
    into out (k,) + the cube's shape (by default a new array) and returned,
    in whole (k,) + cube passes."""
    factors = _cube_tables(grid).derivative
    if out is None:
        out = np.empty(m.shape[:1] + m.shape[2:], dtype=m.dtype)
    np.multiply(factors[0], m[:, 0], out=out)
    term = np.empty_like(out)
    for j in range(1, grid.dimension):
        out += np.multiply(factors[j], m[:, j], out=term)
    return out


def advection(w: RealField, z: RealField) -> RealField:
    """(w . grad) z, computed in divergence form sum_j d_j (z_i w_j) with
    dealiased products.  Equal to the advective form only when w is
    solenoidal (the divergence form adds z div w)."""
    grid = w.grid
    out = _divergence(grid, _dyads(grid, z.values, w.values))
    out *= -1.0  # numpy's complex multiply is vectorized, its negative is not
    return RealField(grid, coeffs=_scatter(grid, out))


def pressure_gradient(state: ElsasserState) -> RealField:
    """grad pi with pi = (-Laplace)^-1 d_i d_j (zm_i zp_j), zero mean;
    exactly the Leray complement of the advection term, read from the same
    kernel as the tendency."""
    grid = state.grid
    rate = _divergence(grid, _dyads(grid, state.z_plus.values, state.z_minus.values))
    return RealField(grid, coeffs=_scatter(grid, _leray_complement(grid, rate)))


def _cube_rhs(grid: Grid, zp: np.ndarray, zm: np.ndarray) -> np.ndarray:
    """Cube coefficients of (dz+/dt, dz-/dt), shape (2, d) + the cube's
    shape, from the values of z+ and z-.  Both equations read the same dyads
    M_ij = z+_i z-_j: -d_j M_ij and -d_j M_ji fill the two halves of one
    output array.  One pressure serves both: xi_a xi_j M_aj is unchanged by
    M -> M^T, so xi . (dz+/dt) equals xi . (dz-/dt), and grad pi, formed
    once from the first half, is subtracted from both."""
    m = _dyads(grid, zp, zm)
    out = np.empty((2,) + m.shape[1:], dtype=m.dtype)
    for side, dyads in zip(out, (m, m.swapaxes(0, 1))):
        _divergence(grid, dyads, side)
    del m, dyads  # freed before the pressure's own temporaries
    out -= _leray_complement(grid, out[0])
    return out


def mhd_tendency(state: ElsasserState):
    """Right sides (dz+/dt, dz-/dt) of the Elsasser system, both
    Leray-projected (solenoidal): `_cube_rhs` scattered to the full half
    spectrum, zero outside the 2/3 cube."""
    grid = state.grid
    k = _scatter(grid, _cube_rhs(grid, state.z_plus.values, state.z_minus.values))
    return (
        RealField(grid, coeffs=k[0], solenoidal=True),
        RealField(grid, coeffs=k[1], solenoidal=True),
    )


def cfl_bound(state: ElsasserState) -> float:
    """Advective bound 0.5 h / max(|z+|, |z-|); inf for the zero state."""
    vmax = max(lp_norm(z, math.inf) for z in (state.z_plus, state.z_minus))
    if vmax == 0.0:
        return math.inf
    return 0.5 * state.grid.spacing / vmax


def _rk4(y, k1: np.ndarray, dt: float, rhs) -> np.ndarray:
    """One classical RK4 step of y' = rhs(y), given the first-stage tendency
    k1 (accumulated in place); y is an array shaped like k1.  Returns the
    new y."""

    def ahead(c, k):
        # y + c k in one fresh array
        out = c * k
        out += y
        return out

    k = total = k1
    for frac, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        k = rhs(ahead(frac * dt, k))
        total += weight * k
    return ahead(dt / 6.0, total)


def _require_dt(dt: float):
    if not (math.isfinite(dt) and dt > 0.0):
        raise SpectralError("dt must be positive")


def _cfl_violation(state: ElsasserState, dt: float, name: str = "z"):
    """The message for a dt above cfl_bound(state), or None."""
    bound = cfl_bound(state)
    if dt > bound:
        return f"dt = {dt:g} violates the advective CFL bound 0.5*h/max|{name}| = {bound:g}"
    return None


def _warn_cfl(state: ElsasserState, dt: float, name: str):
    message = _cfl_violation(state, dt, name)
    if message:
        warnings.warn(message, CflWarning, stacklevel=3)


def step(state: ElsasserState, dt: float) -> ElsasserState:
    """One classical RK4 step of the nonlinear system.

    RK4 runs on the 2/3 cube of the stacked (2, d) coefficient array of the
    pair, where every tendency lives; each stage gathers the cube of the d^2
    dyads from one batched forward transform pruned to the cube.  The new
    cube is written into a copy of the input coefficients, so the modes
    outside the cube pass through the step unchanged.  When the pair has no
    mode outside the cube (`_cube_supported`; every state `simulate` steps),
    each stage is inverse-transformed straight from its cube by the box
    inverse, and the input's values, unless both fields hold them, come
    from one batched box inverse that is cached on the fields.  An input
    reaching past the cube writes each stage into the copy and
    inverse-transforms the full buffer.  The first stage and the CFL check
    both read the values of the input state, so they are transformed at
    most once.  Either path has the bits of the other.
    """
    _require_dt(dt)
    grid = state.grid
    zp, zm = state.z_plus, state.z_minus
    full = np.stack([zp.coeffs, zm.coeffs])
    cube = _gather(grid, full)
    k = grid.dealias_limit if _cube_supported(grid, full) else None
    if k is not None and (zp._values is None or zm._values is None):
        # the values `RealField.values` would cache, from the pair's cube
        values = _inverse(grid, cube, k)
        values.flags.writeable = False
        zp._values, zm._values = values
    _warn_cfl(state, dt, "z")

    def rhs(y):
        if k is None:  # the stage's cube, written into the full buffer
            y = _scatter(grid, y, full)
        values = _inverse(grid, y, k)
        del y  # the stage's cube is freed before the dyads are formed
        return _cube_rhs(grid, *values)

    k1 = _cube_rhs(grid, zp.values, zm.values)
    _scatter(grid, _rk4(cube, k1, dt, rhs), full)
    return ElsasserState(
        RealField(grid, coeffs=full[0], solenoidal=zp.solenoidal),
        RealField(grid, coeffs=full[1], solenoidal=zm.solenoidal),
        state.t + dt,
    )


def _step_count(span: float, dt: float) -> int:
    """The number of dt steps that make up `span`, which must be a whole
    number of them (to 1e-9 relative)."""
    _require_dt(dt)
    if not math.isfinite(span):
        raise SpectralError(f"time span {span} is not finite")
    n = round(span / dt)
    if n < 1 or abs(n * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise SpectralError(f"time span {span} is not an integer multiple of dt={dt}")
    return n


# ---------------------------------------------------------------------------
# Picard approximation scheme
# ---------------------------------------------------------------------------


@dataclass
class PicardIterate:
    """Record of one Picard iterate: difference norms against the previous
    iterate over the shared time grid, their sup, and the final state."""

    n: int
    times: np.ndarray
    diff_norms: np.ndarray
    final_state: ElsasserState

    @property
    def sup_diff_norm(self) -> float:
        return float(self.diff_norms.max())


def picard_iterate(
    z0_plus: RealField,
    z0_minus: RealField,
    s: float,
    p: float,
    q: float,
    t_final: float,
    dt: float,
    n_max: int,
) -> list[PicardIterate]:
    """Run the linearized approximation scheme.

    Iterate 0 is the zero pair; iterate n >= 1 solves the linear transport
    system advected by iterate n-1, with initial data S_{n+1} applied to the
    (dealiased) true initial pair.  All iterates advance on the same RK4 time
    grid, each stage advected by the previous iterate's matching stage state,
    so the fixed point of the scheme is exactly the nonlinear RK4 trajectory.
    Low-pass truncation indices saturate at j_max + 1, where S_j is the
    identity on the lattice.

    Iterate 1 is advected by the zero pair, so it stays S_2 z0 for all time
    and is never advanced.  Iterates n >= 2 step through `step`'s RK4 on
    the 2/3 cube of their stacked coefficient pair, where the data and every
    transport tendency live: a stage inverse-transforms its (2, d) cube
    straight into the stage pair's values (the pruned box inverse), and
    gathers the cube of its two `advection` terms.

    Difference norms are recorded in the inhomogeneous F^{s-1}_{p,q} norm of
    the pair at every grid time; sup over the grid is the reported per-n
    norm.
    """
    _require_solenoidal(z0_plus, "z0_plus")
    _require_solenoidal(z0_minus, "z0_minus")
    if z0_plus.grid != z0_minus.grid:
        raise SpectralError("initial pair must share a grid")
    if n_max < 1:
        raise SpectralError("n_max must be at least 1")
    grid = z0_plus.grid
    spec = NormSpec(s - 1.0, p, q, homogeneous=False)
    n_steps = _step_count(t_final, dt)

    z0p, z0m = dealias(z0_plus), dealias(z0_minus)
    _warn_cfl(ElsasserState(z0p, z0m), dt, "z0")
    flags = (z0p.solenoidal, z0m.solenoidal)

    def pair(c):
        # the field pair of stacked cube coefficients c
        return tuple(RealField(grid, coeffs=ci, solenoidal=f)
                     for ci, f in zip(_scatter(grid, c), flags))

    def pair_norm(c):
        zp, zm = pair(c)
        return tl_norm(zp, spec) + tl_norm(zm, spec)

    def transport_step(y, advectors):
        # one RK4 step of iterate y, each stage advected by the matching pair
        # of `advectors`; returns the new y and y's own stage pairs
        stages = []
        ws = iter(advectors)

        def rhs(c):
            zp, zm = (RealField(grid, values=v, solenoidal=f)
                      for v, f in zip(_inverse(grid, c, grid.dealias_limit), flags))
            wp, wm = next(ws)
            stages.append((zp, zm))
            k = np.stack([_gather(grid, advection(wm, zp).coeffs),
                          _gather(grid, advection(wp, zm).coeffs)])
            # -P k: the projection of the negated advection terms
            return _leray_complement(grid, k) - k

        return _rk4(y, rhs(y), dt, rhs), stages

    # ys[n]: the stacked (2, d) cube coefficients of iterate n; every mode
    # outside the cube of the dealiased data is zero, and so is every
    # tendency there
    ys = [None] + [_gather(grid, np.stack([low_pass(z, min(n + 1, grid.j_max + 1)).coeffs
                                           for z in (z0p, z0m)]))
                   for n in range(1, n_max + 1)]
    first = pair(ys[1])
    times = np.arange(n_steps + 1) * dt
    diffs = np.zeros((n_max + 1, n_steps + 1))
    diffs[1] = pair_norm(ys[1])
    for n in range(2, n_max + 1):
        diffs[n, 0] = pair_norm(ys[n] - ys[n - 1])
    for m in range(n_steps):
        stages = [first] * 4
        for n in range(2, n_max + 1):
            ys[n], stages = transport_step(ys[n], stages)
            diffs[n, m + 1] = pair_norm(ys[n] - ys[n - 1])

    out = []
    for n in range(1, n_max + 1):
        final = first if n == 1 else pair(ys[n])
        out.append(PicardIterate(n, times, diffs[n].copy(),
                                 ElsasserState(*final, float(times[-1]))))
    return out


def picard_contraction_table(iterates: list[PicardIterate]):
    """Rows (n, sup diff norm, ratio to previous); ratio is None for the
    first row."""
    rows = []
    prev = None
    for it in iterates:
        ratio = None if prev is None or prev == 0.0 else it.sup_diff_norm / prev
        rows.append((it.n, it.sup_diff_norm, ratio))
        prev = it.sup_diff_norm
    return rows


# ---------------------------------------------------------------------------
# particle trajectories
# ---------------------------------------------------------------------------

_REFINE = 4
_SPLINE_ORDER = 5


def _fourier_refine(v: RealField, factor: int) -> np.ndarray:
    """Zero-padded spectral upsampling to a factor-times finer lattice: with
    a zero row at +N/2 on each leading axis (the coarse Nyquist row is
    -N/2), the coarse spectrum is the fine lattice's box of half-width N/2."""
    n, d = v.grid.points, v.grid.dimension
    box = v.coeffs
    for axis in range(1, d):
        box = np.insert(box, n // 2, 0.0, axis=axis)
    return _inverse(Grid(d, n * factor), box, n // 2) * float(factor) ** d


@dataclass
class TrajectoryMap:
    """Particle positions X(alpha, t) over the Lagrangian label lattice,
    with the Jacobian determinant of the (unwrapped) map."""

    grid: Grid
    t: float
    positions: np.ndarray
    labels: np.ndarray

    @property
    def displacement(self) -> np.ndarray:
        return self.positions - self.labels

    def jacobian_determinant(self) -> np.ndarray:
        """det grad X via spectral differentiation of the displacement."""
        grid = self.grid
        d = grid.dimension
        disp = RealField(grid, values=self.displacement)
        jac = _inverse(grid, jacobian(disp).coeffs).reshape((d, d) + grid.shape)
        return np.linalg.det(np.moveaxis(jac, (0, 1), (-2, -1)) + np.eye(d))


def trajectory_map(
    velocity,
    grid: Grid,
    t_final: float,
    dt: float,
) -> TrajectoryMap:
    """Integrate dX/dt = v(X, t) with RK4 from X(alpha, 0) = alpha.

    `velocity` may be a steady RealField or a nonempty sequence of
    (t, RealField) snapshots; each field must be a vector field on `grid`.
    The labels are the full lattice, which is what the spectral Jacobian
    determinant requires.  Fields are sampled by spectral zero-padding
    refinement and quintic splines on the refined lattice.  Each snapshot is
    refined once; a stage between two snapshot times blends their samples
    linearly in time (outside the history the nearest snapshot holds), which
    is, as both steps are linear, the sample of the blended field.
    """
    from scipy import ndimage  # its only user; kept off the import path

    snaps = ([(0.0, velocity)] if isinstance(velocity, RealField)
             else sorted(velocity, key=lambda item: item[0]))
    if not snaps or not all(isinstance(f, RealField) and f.grid == grid
                            and f.ncomp == grid.dimension for _, f in snaps):
        raise SpectralError(
            f"velocity must be a vector field on {grid}, or a nonempty list of "
            "(t, field) snapshots of such fields")
    ts = np.array([t for t, _ in snaps])
    to_index = grid.points * _REFINE / (2.0 * math.pi)

    # stage times only increase and a stage reads at most two snapshots
    @lru_cache(maxsize=2)
    def tables(i):
        return [ndimage.spline_filter(comp, order=_SPLINE_ORDER, mode="grid-wrap")
                for comp in _fourier_refine(snaps[i][1], _REFINE)]

    def sample(i, points):
        flat = (np.mod(points, 2.0 * math.pi) * to_index).reshape(grid.dimension, -1)
        return np.stack([
            ndimage.map_coordinates(tab, flat, order=_SPLINE_ORDER, mode="grid-wrap",
                                    prefilter=False)
            for tab in tables(i)
        ]).reshape(points.shape)

    def velocity_at(t, points):
        i = int(np.searchsorted(ts, t))
        if i < len(ts) and abs(ts[i] - t) < 1e-12 or i == 0:
            return sample(i, points)
        if i == len(ts):
            return sample(i - 1, points)
        w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
        return (1.0 - w) * sample(i - 1, points) + w * sample(i, points)

    labels = np.stack(grid.coordinates())
    x = labels.copy()
    n_steps = _step_count(t_final, dt)
    for m in range(n_steps):
        t = m * dt
        stage_times = iter((t + 0.5 * dt, t + 0.5 * dt, t + dt))
        x = _rk4(x, velocity_at(t, x), dt, lambda y: velocity_at(next(stage_times), y))
    return TrajectoryMap(grid=grid, t=n_steps * dt, positions=x, labels=labels)


# ---------------------------------------------------------------------------
# initial-data catalog
# ---------------------------------------------------------------------------


def taylor_green(grid: Grid, amplitude: float = 1.0):
    """2D Taylor-Green vortex velocity with zero magnetic field."""
    if grid.dimension != 2:
        raise SpectralError("taylor-green initial data is 2D")
    x, y = grid.coordinates()
    u = np.stack([-amplitude * np.cos(x) * np.sin(y), amplitude * np.sin(x) * np.cos(y)])
    return RealField(grid, values=u, solenoidal=True), zero_field(grid, 2)


def orszag_tang(grid: Grid, amplitude: float = 1.0):
    """Orszag-Tang-type 2D MHD data."""
    if grid.dimension != 2:
        raise SpectralError("orszag-tang initial data is 2D")
    x, y = grid.coordinates()
    u = np.stack([-amplitude * np.sin(y), amplitude * np.sin(x)])
    b = np.stack([-amplitude * np.sin(y), amplitude * np.sin(2.0 * x)])
    return (RealField(grid, values=u, solenoidal=True),
            RealField(grid, values=b, solenoidal=True))


def alfven_state(grid: Grid, seed: int = 0, amplitude: float = 1.0, decay: float = 3.0):
    """Steady state u = b built from a random solenoidal field."""
    u = random_solenoidal(grid, seed=seed, decay=decay, amplitude=amplitude)
    return u, u


def random_pair(grid: Grid, seed: int = 0, amplitude: float = 1.0, decay: float = 3.0):
    """Independent random solenoidal (u, b)."""
    u = random_solenoidal(grid, seed=seed, decay=decay, amplitude=amplitude)
    b = random_solenoidal(grid, seed=seed + 1, decay=decay, amplitude=amplitude)
    return u, b


INITIAL_DATA = {
    "taylor-green": taylor_green,
    "orszag-tang": orszag_tang,
    "alfven": alfven_state,
    "random": random_pair,
}
