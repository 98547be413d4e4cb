"""Periodic pseudospectral core: grids, fields, the Littlewood-Paley filter
bank, and the multiplier operators built on them.

Everything lives on the torus [0, 2pi)^d sampled on an N^d lattice (N a power
of two), so every operator here is an exact Fourier multiplier.  Fields carry
both a physical representation and a lazily cached half-complex spectrum
(scipy rfftn layout); operators work on whichever representation is cheapest
and cache the result, which keeps support identities exact to the zero bit
rather than to round-off.

Frequency conventions: integer wavenumbers, full fftfreq ordering on the
leading axes and non-negative rfft ordering on the last axis.  Pointwise
products of fields use the 2/3-rule (modes with any |xi_i| > floor(N/3) are
discarded), which makes products of dealiased inputs exact truncations of the
true product.

`_forward` and `_inverse` are the only transform entry points of the
package: every other module transforms through them, so the layout (rfft
over the trailing d axes, every leading axis a batch axis) is decided in one
place.  Both take a half-width k.  `_inverse` then reads the box
|xi_i| <= k of a spectrum that vanishes outside it and inverse-transforms
it by pruned one-axis passes, with the bits of the full inverse: dyadic
blocks, the RK4 and Picard stages and the trajectory map's refinement all
take it.  `_forward` then returns that box only, by the same pruning, with
the bits of the box gathered from the full transform: the MHD dyads take
it with the 2/3 cube's half-width.  Both reach scipy.fft as module
attributes (`sfft.rfftn`) at call time, which is what lets a transform
counter patch those attributes.

`_partial` is the one first-order symbol, i xi_b c: `jacobian`, `divergence`,
`curl`, the gradient sups and paracalc's d_i g form every entry with it.

`_shell_product` is the one dyadic-block kernel, phi_j times a spectrum
on the shell's box or the whole layout, with `_block_boxes` its box rule.
The shell sweep `_shell_blocks` (`block_magnitudes`, the record) inverts
it shell by shell; paracalc's block caches (the commutator workspace, the
Bony operators) take it of all their factors stacked and invert each
shell in one call.  The rule depends on the layout.  On the full half spectrum
(`block_magnitudes`, and paracalc's pairs with a non-finite coefficient) a
shell takes its box when it pays for the box path's extra calls: j =
-1..3 at 2D N=128 and j = -1..1 at 3D N=32 for one to six components; at
2D N=64 none for one component.  On the 2/3 cube (the record, and
every finite paracalc pair) every shell whose box lies in the cube takes
it (j = -1..4 at 2D N=128, j = -1..2 at 3D N=32), and the other shells
invert the whole cube, with phi_j from the filter bank gathered to the
cube (`_layout_bank`).

`_leray_complement` is the one Leray kernel: `leray_project` subtracts it,
and the MHD pressure gradient grad pi is it.  It runs on the full half
spectrum or on the 2/3 cube, whose tables are gathered from the full ones;
`_gather` and `_scatter` move coefficients between the two layouts (the
cube is the box of half-width N // 3) by `Grid._box_blocks`' slices.  The
shell sweep, `_partial`, `_curl` and `_gradient_sup` take either layout
too, told apart by the last axis (`_cube_width`): the diagnostics record
runs on the cube when `_cube_supported` finds the state inside it, and
paracalc's block caches whenever their dealiased pair is finite.
"""

from __future__ import annotations

import itertools
import math
import zipfile
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import fft as sfft

TWO_PI = 2.0 * math.pi


class SpectralError(ValueError):
    """Invalid grid, field, or operator usage."""


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Periodic grid: `dimension` in {2, 3}, `points` per axis (power of two,
    >= 16), period 2pi per axis.  Frozen and hashable, so every lattice table
    (frequencies, masks, filter bank, ...) is cached per grid, read-only.

    Dyadic shell indices run over [j0, j_max] with j0 = -1 and
    j_max = log2(points/2); the low-pass ladder extends one step further to
    j_max + 1, which is the identity on the lattice.
    """

    dimension: int
    points: int

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise SpectralError(f"dimension must be 2 or 3, got {self.dimension}")
        n = self.points
        if n < 16 or (n & (n - 1)) != 0:
            raise SpectralError(f"points must be a power of two >= 16, got {n}")

    @property
    def j0(self) -> int:
        return -1

    @property
    def j_max(self) -> int:
        return (self.points // 2).bit_length() - 1

    @property
    def js(self) -> range:
        """Dyadic shell indices [j0, j_max]."""
        return range(self.j0, self.j_max + 1)

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dimension

    @property
    def spectral_shape(self) -> tuple:
        return (self.points,) * (self.dimension - 1) + (self.points // 2 + 1,)

    @property
    def spacing(self) -> float:
        return TWO_PI / self.points

    @property
    def dealias_limit(self) -> int:
        """Largest |xi_i| kept by the 2/3 rule."""
        return self.points // 3

    def _box_shape(self, k: int) -> tuple:
        """Shape of the box |xi_i| <= k (k < N/2) of the half spectrum:
        (2k+1,)*(d-1) + (k+1,), its modes in fftfreq order."""
        return (2 * k + 1,) * (self.dimension - 1) + (k + 1,)

    def _box_axis(self, k: int, n: int | None = None) -> tuple:
        """The (source, box) slice pairs of one leading axis of the box
        |xi_i| <= k: modes 0..k, then -k..-1, in fftfreq order both sides.
        The source axis holds n modes (by default N, the full lattice; the
        cube's axis holds 2 (N // 3) + 1)."""
        n = self.points if n is None else n
        return ((slice(0, k + 1), slice(0, k + 1)), (slice(n - k, n), slice(k + 1, 2 * k + 1)))

    @lru_cache(maxsize=None)
    def _box_blocks(self, k: int, n: int | None = None) -> tuple:
        """The box |xi_i| <= k as (source, box) index pairs, one per
        rectangular block, cached per (grid, k, n).  The box is a product of
        index sets, `_box_axis` on each leading axis and {0..k} on the last,
        so it is 2^(d-1) blocks, and slice copies move it."""
        last = (slice(0, k + 1),)
        return tuple(((...,) + tuple(f for f, _ in block) + last,
                      (...,) + tuple(c for _, c in block) + last)
                     for block in itertools.product(self._box_axis(k, n),
                                                    repeat=self.dimension - 1))

    def coordinates(self):
        """d arrays of shape `shape` with the lattice coordinates."""
        x = np.arange(self.points) * self.spacing
        return np.meshgrid(*([x] * self.dimension), indexing="ij")


@lru_cache(maxsize=None)
def frequencies(grid: Grid):
    """Integer frequency arrays, each shaped to broadcast over spectral_shape."""
    n = grid.points
    axes = [np.fft.fftfreq(n, 1.0 / n)] * (grid.dimension - 1)
    out = np.meshgrid(*axes, np.arange(n // 2 + 1, dtype=float), indexing="ij", sparse=True)
    for arr in out:
        arr.flags.writeable = False
    return tuple(out)


@lru_cache(maxsize=None)
def radius(grid: Grid) -> np.ndarray:
    """|xi| on the spectral lattice."""
    r = np.sqrt(sum(f**2 for f in frequencies(grid)))
    r.flags.writeable = False
    return r


@lru_cache(maxsize=None)
def dealias_mask(grid: Grid) -> np.ndarray:
    xi = np.abs(np.broadcast_arrays(*frequencies(grid)))
    mask = np.logical_and.reduce(xi <= grid.dealias_limit)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def spectral_weights(grid: Grid) -> np.ndarray:
    """Multiplicity of each rfft mode in the full spectrum (2 for interior
    last-axis modes, 1 for xi_d = 0 and the Nyquist plane)."""
    w = np.full(grid.spectral_shape, 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _forward(grid: Grid, values: np.ndarray, k: int | None = None) -> np.ndarray:
    """rfft over the trailing d axes; every leading axis is a batch axis.

    With k (k < N/2), only the box |xi_i| <= k is returned, laid out
    (...) + `grid._box_shape(k)` as `_gather` writes it, by a pruned
    transform with the bits of `_gather(grid, _forward(grid, values), k)`.
    rfftn runs a real transform over the last axis, then unscaled complex
    transforms over the leading axes, first to last.  The same passes run
    here, in place on views of the one rfft output: each keeps the box's
    k + 1 last-axis columns and the box rows of the axes already
    transformed, so leading axis a takes 2^(a-1) views.  The passes see the
    batch axes flattened to one."""
    if k is None:
        return sfft.rfftn(values, axes=tuple(range(-grid.dimension, 0)))
    d = grid.dimension
    batch = values.shape[:-d]
    out = sfft.rfft(values.reshape((-1,) + grid.shape), axis=-1)
    del values  # a caller's temporary is freed before the box is gathered
    rows = [f for f, _ in grid._box_axis(k)]
    for axis in range(1, d):
        tail = (slice(None),) * (d - axis) + (slice(0, k + 1),)
        for head in itertools.product(rows, repeat=axis - 1):
            _pass_in_place(sfft.fft, out[(slice(None),) + head + tail], axis)
    return _gather(grid, out, k).reshape(batch + grid._box_shape(k))


def _pass_in_place(transform, view: np.ndarray, axis: int, **kwargs) -> None:
    """One complex pass of `transform` (scipy.fft's fft or ifft) along
    `axis`, written into `view`: scipy transforms an overwritable complex
    input in place, and a result that does not share memory with the view
    is copied back."""
    out = transform(view, axis=axis, overwrite_x=True, **kwargs)
    if not np.may_share_memory(out, view):
        view[...] = out


def _inverse(grid: Grid, coeffs: np.ndarray, k: int | None = None) -> np.ndarray:
    """Inverse of _forward, batched over the leading axes.

    With k, `coeffs` is the box |xi_i| <= k (k < N/2) of a spectrum that
    vanishes outside it, laid out (...) + `grid._box_shape(k)` as `_gather`
    writes it, and the inverse is a pruned transform with the bits of the
    full one.  irfftn runs unscaled complex inverses over the leading axes,
    first to last, then a real inverse over the last axis, which scales by
    N^-d.  The same passes run here, each in place on the columns the box
    touches only, zero-padded to N along its own axis; the columns it skips
    are zero in irfftn too.  The last leading pass runs on the box columns
    of a zeroed (m, N, .., N, N/2+1) buffer, so the real inverse pads
    nothing.  The passes see the batch axes flattened to one."""
    if k is None:
        return sfft.irfftn(coeffs, s=grid.shape, axes=tuple(range(-grid.dimension, 0)))
    n, d = grid.points, grid.dimension
    batch = coeffs.shape[:-d]
    coeffs = coeffs.reshape((-1,) + coeffs.shape[-d:])
    for axis in range(1, d):
        width = n // 2 + 1 if axis == d - 1 else k + 1
        pad = np.zeros(coeffs.shape[:axis] + (n,) + coeffs.shape[axis + 1:-1] + (width,),
                       dtype=complex)
        cols = pad[..., :k + 1]
        head = (slice(None),) * axis
        for f, c in grid._box_axis(k):
            cols[head + (f,)] = coeffs[head + (c,)]
        _pass_in_place(sfft.ifft, cols, axis, norm="forward")
        coeffs = pad
    out = sfft.irfft(coeffs, n=n, axis=-1, norm="forward")
    out *= 1.0 / float(n) ** d
    return out.reshape(batch + grid.shape)


def _stored(array, dtype, shape: tuple, name: str) -> np.ndarray:
    """`array` as a field stores one representation: of `dtype`, with the
    component axis added to a bare `shape` array, contiguous and read-only.
    Any other shape is an error that names the representation."""
    out = np.asarray(array, dtype=dtype)
    if out.shape == shape:
        out = out[np.newaxis]
    if out.shape[1:] != shape:
        raise SpectralError(f"{name} shape {out.shape} does not match grid {shape}")
    out = np.ascontiguousarray(out)
    out.flags.writeable = False
    return out


class RealField:
    """Scalar or vector field on a Grid.

    Values are stored with an explicit leading component axis
    (shape ``(ncomp,) + grid.shape``); the rfft spectrum is cached on first
    use and carried through multiplier operators so that exact spectral
    identities survive in floating point.  Fields are treated as immutable:
    both representations are marked read-only and every operator returns a
    new field.
    """

    # weak references let paracalc cache a workspace per pair of fields
    # without keeping the fields alive
    __slots__ = ("grid", "ncomp", "_values", "_coeffs", "solenoidal", "__weakref__")

    def __init__(self, grid, values=None, coeffs=None, solenoidal=False):
        if values is None and coeffs is None:
            raise SpectralError("RealField needs values or coefficients")
        self.grid = grid
        if values is not None:
            values = _stored(values, float, grid.shape, "value")
            self.ncomp = values.shape[0]
        if coeffs is not None:
            coeffs = _stored(coeffs, complex, grid.spectral_shape, "coefficient")
            if values is not None and coeffs.shape[0] != self.ncomp:
                raise SpectralError("component count mismatch between representations")
            self.ncomp = coeffs.shape[0]
        self._values = values
        self._coeffs = coeffs
        self.solenoidal = bool(solenoidal)

    # -- representations ----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            v = _inverse(self.grid, self._coeffs)
            v.flags.writeable = False
            self._values = v
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = _forward(self.grid, self._values)
            c.flags.writeable = False
            self._coeffs = c
        return self._coeffs

    @property
    def is_scalar(self) -> bool:
        return self.ncomp == 1

    @property
    def is_vector(self) -> bool:
        return self.ncomp == self.grid.dimension

    def component(self, i: int) -> "RealField":
        return RealField(
            self.grid,
            values=None if self._values is None else self._values[i : i + 1],
            coeffs=None if self._coeffs is None else self._coeffs[i : i + 1],
        )

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean magnitude over components, shape grid.shape."""
        if self.ncomp == 1:
            return np.abs(self.values[0])
        return np.sqrt(np.sum(self.values**2, axis=0))

    def mean(self) -> np.ndarray:
        """Per-component mean values, shape (ncomp,)."""
        return self.values.reshape(self.ncomp, -1).mean(axis=1)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if self.grid != other.grid:
            raise SpectralError("grid mismatch")
        if self.ncomp != other.ncomp:
            raise SpectralError("component count mismatch")
        sol = self.solenoidal and other.solenoidal
        if self._coeffs is not None and other._coeffs is not None:
            return RealField(self.grid, coeffs=self._coeffs + other._coeffs, solenoidal=sol)
        return RealField(self.grid, values=self.values + other.values, solenoidal=sol)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return RealField(
            self.grid,
            values=None if self._values is None else c * self._values,
            coeffs=None if self._coeffs is None else c * self._coeffs,
            solenoidal=self.solenoidal,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __repr__(self):
        kind = "scalar" if self.is_scalar else f"{self.ncomp}-component"
        return f"RealField({kind}, d={self.grid.dimension}, N={self.grid.points})"


def from_function(grid: Grid, *component_functions) -> RealField:
    """Sample callables f(x1, .., xd) on the lattice, one per component."""
    coords = grid.coordinates()
    values = np.stack([np.broadcast_to(fn(*coords), grid.shape) for fn in component_functions])
    return RealField(grid, values=values)


def zero_field(grid: Grid, ncomp: int = 1) -> RealField:
    return RealField(
        grid,
        values=np.zeros((ncomp,) + grid.shape),
        coeffs=np.zeros((ncomp,) + grid.spectral_shape, dtype=complex),
        solenoidal=True,
    )


SOLENOIDAL_TOL = 1e-10  # residual below which a vector field counts as solenoidal


def solenoidal_residual(field: RealField) -> float:
    """max_xi |xi . v_hat| / max_xi |v_hat| for a vector field."""
    if not field.is_vector:
        raise SpectralError("solenoidal residual requires a vector field")
    denom = max(np.max(np.abs(comp)) for comp in field.coeffs)
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(divergence(field).coeffs)) / denom)


def _require_solenoidal(v: RealField, name: str):
    """Raise unless v is a vector field flagged solenoidal or within
    SOLENOIDAL_TOL of one; the message names the argument."""
    if not v.is_vector:
        raise SpectralError(f"{name} must be a vector field")
    if not v.solenoidal:
        residual = solenoidal_residual(v)
        if residual > SOLENOIDAL_TOL:
            raise SpectralError(
                f"{name} is not solenoidal "
                f"(Leray residual {residual:.2e} > {SOLENOIDAL_TOL})"
            )


# ---------------------------------------------------------------------------
# multipliers and dealiasing
# ---------------------------------------------------------------------------


def apply_multiplier(field: RealField, mult: np.ndarray, solenoidal=None) -> RealField:
    """Apply a (possibly complex) Fourier multiplier, broadcast over components.

    Real radial multipliers preserve solenoidality; pass `solenoidal` to
    override the inherited flag.
    """
    out = field.coeffs * mult
    if solenoidal is None:
        solenoidal = field.solenoidal and np.isrealobj(mult)
    return RealField(field.grid, coeffs=out, solenoidal=solenoidal)


def dealias(field: RealField) -> RealField:
    return apply_multiplier(field, dealias_mask(field.grid))


def multiply(u: RealField, v: RealField) -> RealField:
    """Dealiased pointwise product of two scalar fields.

    Exact truncation of the true product when both inputs are supported in
    the 2/3 ball.
    """
    if u.grid != v.grid:
        raise SpectralError("grid mismatch")
    if not (u.is_scalar and v.is_scalar):
        raise SpectralError("multiply expects scalar fields")
    coeffs = _masked_product(u.grid, u.values[0], v.values[0])
    return RealField(u.grid, coeffs=coeffs[np.newaxis])


def _masked_product(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rfft of a*b truncated to the 2/3 ball (array-level workhorse)."""
    prod = _forward(grid, a * b)
    prod *= dealias_mask(grid)
    return prod


# ---------------------------------------------------------------------------
# Littlewood-Paley filter bank
# ---------------------------------------------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def chi_profile(r) -> np.ndarray:
    """Smooth radial low-pass profile: 1 on [0, 1], 0 on [4/3, inf)."""
    r = np.asarray(r, dtype=float)
    out = np.ones(r.shape)
    out[r >= 4.0 / 3.0] = 0.0
    mid = (r > 1.0) & (r < 4.0 / 3.0)
    t = 3.0 * (r[mid] - 1.0)
    up, down = _bump(t), _bump(1.0 - t)
    out[mid] = down / (down + up)
    return out


def phi_profile(r) -> np.ndarray:
    """Annulus profile chi(r/2) - chi(r), supported exactly on [1, 8/3]."""
    r = np.asarray(r, dtype=float)
    return chi_profile(r / 2.0) - chi_profile(r)


@dataclass(frozen=True)
class FilterBank:
    """Sampled dyadic multipliers for one grid.

    phi[j] (j in [j0, j_max]) are the annulus multipliers phi(2^-j |xi|);
    chi[j] (j in [j0, j_max+1]) the low-pass multipliers chi(2^-j |xi|).
    chi[j_max+1] is identically 1 on the lattice, so the partition
    chi_{j0} + sum_j phi_j = 1 telescopes exactly.
    """

    grid: Grid
    phi: dict
    chi: dict

    @property
    def j0(self) -> int:
        return self.grid.j0

    @property
    def j_max(self) -> int:
        return self.grid.j_max


@lru_cache(maxsize=None)
def make_filter_bank(grid: Grid) -> FilterBank:
    """The filter bank of a grid, built once per grid."""
    r = radius(grid)
    phi = {}
    chi = {}
    for j in range(grid.j0, grid.j_max + 1):
        m = phi_profile(r / 2.0**j)
        m.flags.writeable = False
        phi[j] = m
    for j in range(grid.j0, grid.j_max + 2):
        m = chi_profile(r / 2.0**j)
        m.flags.writeable = False
        chi[j] = m
    return FilterBank(grid=grid, phi=phi, chi=chi)


def _filtered(f: RealField, table: str, j, name: str) -> RealField:
    """f times the multiplier j of the filter bank's `table` ("phi" or
    "chi"); an index that is no key of that table, such as 0.5, is an
    error that names the table's range."""
    mults = getattr(make_filter_bank(f.grid), table)
    if j not in mults:
        raise SpectralError(f"{name} index {j} outside [{min(mults)}, {max(mults)}]")
    return apply_multiplier(f, mults[j])


def dyadic_block(f: RealField, j: int) -> RealField:
    """Frequency-annulus projection Delta_j f."""
    return _filtered(f, "phi", j, "dyadic block")


def low_pass(f: RealField, j: int) -> RealField:
    """Frequency-ball projection S_j f; j = j_max+1 recovers f exactly."""
    return _filtered(f, "chi", j, "low-pass")


@lru_cache(maxsize=None)
def _shell_boxes(grid: Grid) -> tuple:
    """phi_j gathered to its box |xi_i| <= k_j, with k_j the largest |xi_i|
    on the support of phi_j (the box's last axis holds k_j + 1 modes), for
    the shells j = j0, j0 + 1, .. whose box spans no whole leading axis
    (2 k_j + 1 < N)."""
    bank, freqs = make_filter_bank(grid), frequencies(grid)
    boxes = []
    for j in grid.js:
        support = bank.phi[j] != 0.0
        k = max(int(np.abs(np.broadcast_to(f, support.shape)[support]).max())
                for f in freqs)
        if 2 * k + 1 >= grid.points:
            break
        phi = _gather(grid, bank.phi[j], k)
        phi.flags.writeable = False
        boxes.append(phi)
    return tuple(boxes)


def _block_boxes(grid: Grid, coeffs: np.ndarray) -> tuple:
    """The leading `_shell_boxes` that the blocks of `coeffs` take.  On the
    full half spectrum (...) + spectral_shape a shell takes its box when
    m (modes - 4 box modes) >= 2^12, m the product of the leading axes, a
    margin that pays for the box path's extra calls (fitted to per-shell
    timings in CHANGES.md).  On the 2/3 cube every shell whose box fits in
    the cube takes it, since the rest run pruned too, from the whole cube.
    A NaN makes every whole-layout shell product NaN (NaN * 0 is NaN) but
    may lie outside a box, so a non-finite spectrum takes no box (the
    check sums the coefficients: an overflow only costs the boxes)."""
    k = _cube_width(grid, coeffs)
    m, modes = math.prod(coeffs.shape[:-grid.dimension]), math.prod(grid.spectral_shape)

    def takes(phi):
        if k is None:
            return m * (modes - 4 * phi.size) >= 2**12
        return phi.shape[-1] <= k + 1

    boxes = tuple(itertools.takewhile(takes, _shell_boxes(grid)))
    return boxes if not boxes or np.isfinite(coeffs.sum()) else ()


def _nonzero_inverse(grid: Grid, spectrum: np.ndarray, k: int | None = None):
    """`_inverse(grid, spectrum, k)`, or None for an exactly zero spectrum,
    checked one leading-axis entry at a time; a None block's products are
    exact zeros, so skipping them keeps every sum's bits."""
    parts = spectrum.reshape((-1,) + spectrum.shape[-grid.dimension:])
    return _inverse(grid, spectrum, k) if any(part.any() for part in parts) else None


def _shell_product(grid: Grid, coeffs: np.ndarray, j: int, boxes: tuple) -> tuple:
    """phi_j times coefficients (...) + either layout of `_cube_width`, as
    (product, k) for `_inverse(grid, product, k)`: on the shell's box of
    half-width k when `boxes` holds one, and otherwise on the whole layout,
    with the bits of the full product."""
    i = j - grid.j0
    if i >= len(boxes):
        phi = _layout_bank(grid, coeffs).phi[j]
        return coeffs * phi, _cube_width(grid, coeffs)
    k = boxes[i].shape[-1] - 1
    shell = _gather(grid, coeffs, k)
    shell *= boxes[i]
    return shell, k


def _shell_blocks(grid: Grid, coeffs: np.ndarray):
    """The shell sweep: for each j in grid.js, one at a time, Delta_j of
    stacked coefficients (...) + either layout of `_cube_width` as a new
    (...) + grid.shape array, or None for an empty shell: the inverse of
    `_shell_product`, with the bits of the full product and inverse, each
    shell product freed before the next."""
    boxes = _block_boxes(grid, coeffs)
    return (_nonzero_inverse(grid, *_shell_product(grid, coeffs, j, boxes)) for j in grid.js)


def block_magnitudes(f: RealField) -> np.ndarray:
    """Stack of pointwise magnitudes |Delta_j f|, shape (n_shells,) + grid.shape:
    one block of every component per shell (`_shell_blocks`), written into
    the stack.  An empty shell is written as zeros, the bits of its inverse;
    a non-finite coefficient makes every shell NaN.  (One inverse of all
    shells at once gives the same bits but measured up to 1.7x slower past
    a 1 MB stack, as at 2D N=128 and 3D N=32: its temporaries miss cache.)
    """
    grid = f.grid
    out = np.empty((len(grid.js),) + grid.shape)
    for i, blk in enumerate(_shell_blocks(grid, f.coeffs)):
        if blk is None:
            out[i] = 0.0
        elif f.ncomp == 1:
            np.abs(blk[0], out=out[i])
        else:
            np.square(blk, out=blk)
            np.sqrt(blk.sum(axis=0), out=out[i])
    return out


@lru_cache(maxsize=None)
def _plancherel_weights(grid: Grid) -> np.ndarray:
    """Rows w * phi_j^2 for j in [j0, j_max], then w alone (w the rfft
    multiplicities), each flattened over the spectral lattice and divided by
    N^{2d}: shape (n_shells + 1, prod(spectral_shape))."""
    bank, w = make_filter_bank(grid), spectral_weights(grid)
    rows = [w * bank.phi[j] ** 2 for j in grid.js] + [w]
    out = np.stack(rows).reshape(len(rows), -1)
    out /= float(grid.points) ** (2 * grid.dimension)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _edge_mirror(grid: Grid) -> np.ndarray:
    """The flat index of -xi for each xi of an edge plane's d-1 leading axes
    flattened (xi -> -xi mod N on each axis), read-only."""
    n, lead = grid.points, (grid.points,) * (grid.dimension - 1)
    out = np.ravel_multi_index(np.ix_(*[(-np.arange(n)) % n] * len(lead)), lead).ravel()
    out.flags.writeable = False
    return out


def _component_energy(c: np.ndarray) -> np.ndarray:
    """sum over the leading (component) axis of |c|^2, as re^2 + im^2; one
    component is its own sum, with no copy."""
    out = np.square(c.real)
    out += np.square(c.imag)
    return out[0] if len(out) == 1 else out.sum(axis=0)


def _realized_energy(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """sum over components of |c(xi)|^2 for the spectrum that `_inverse`
    realizes, flattened over the spectral lattice.

    irfftn reads a real signal off the xi_d = 0 and xi_d = N/2 planes, i.e.
    only their Hermitian part (c(xi) + conj c(-xi)) / 2; a field whose
    coefficients are not Hermitian there (the Nyquist line of a derivative,
    for one) would otherwise be credited with energy its values do not have.
    The two planes are the last axis's entries 0 and N/2, a view whose
    leading axes `_edge_mirror` indexes flattened.
    """
    out = _component_energy(coeffs)
    step = grid.points // 2
    edges = coeffs[..., ::step]
    edges = edges.reshape(edges.shape[:-grid.dimension] + (-1, 2))
    hermitian = np.take(edges, _edge_mirror(grid), axis=-2)
    np.conjugate(hermitian, out=hermitian)
    # c(xi) + conj c(-xi) in this order: at a self-mirrored mode with a NaN
    # imaginary part the two NaNs differ in sign, and the first one wins
    np.add(edges, hermitian, out=hermitian)
    hermitian *= 0.5
    out[..., ::step] = _component_energy(hermitian).reshape(out[..., ::step].shape)
    return out.ravel()


def shell_energies(f: RealField):
    """Plancherel energies, with no transform once f has coefficients:
    (e, total) with e[j - j0] = ||Delta_j f||_2^2 for j in [j0, j_max] and
    total = ||f||_2^2, in the normalized measure."""
    sums = _plancherel_weights(f.grid) @ _realized_energy(f.grid, f.coeffs)
    return sums[:-1], float(sums[-1])


# ---------------------------------------------------------------------------
# differential and singular-integral multipliers
# ---------------------------------------------------------------------------


def spectral_derivative(f: RealField, multi_index) -> RealField:
    """Apply (i xi)^alpha for a multi-index alpha with |alpha| <= 4."""
    alpha = tuple(int(a) for a in multi_index)
    if len(alpha) != f.grid.dimension or any(a < 0 for a in alpha):
        raise SpectralError(f"bad multi-index {multi_index} for d={f.grid.dimension}")
    if sum(alpha) > 4:
        raise SpectralError(f"|alpha| = {sum(alpha)} exceeds the supported order 4")
    freqs = frequencies(f.grid)
    mult = np.ones((1,) * f.grid.dimension, dtype=complex)
    for a, order in enumerate(alpha):
        if order:
            mult = mult * (1j * freqs[a]) ** order
    return apply_multiplier(f, mult, solenoidal=False)


def gradient(f: RealField) -> RealField:
    """Gradient of a scalar field as a d-component vector field."""
    if not f.is_scalar:
        raise SpectralError("gradient expects a scalar field")
    return jacobian(f)


def _partial(grid: Grid, c: np.ndarray, b: int, out: np.ndarray | None = None) -> np.ndarray:
    """The first-order symbol: coefficients of d_b of the spectrum c (any
    leading axes, either layout of `_cube_width`), i xi_b c, written into
    `out` when one is given."""
    xi = frequencies(grid) if _cube_width(grid, c) is None else _cube_tables(grid).xi
    return np.multiply(1j * xi[b], c, out=out)


def divergence(v: RealField) -> RealField:
    if not v.is_vector:
        raise SpectralError("divergence expects a vector field")
    out = sum(_partial(v.grid, v.coeffs[a], a) for a in range(v.grid.dimension))
    return RealField(v.grid, coeffs=out[np.newaxis])


def _curl(grid: Grid, c: np.ndarray) -> np.ndarray:
    """The curl of stacked vector coefficients c, (d,) + either layout of
    `_cube_width`, as a new (1,) or (3,) + that layout array: component
    d_b c_a - d_a c_b for each (a, b) of the dimension's pairs."""
    pairs = {2: ((1, 0),), 3: ((2, 1), (0, 2), (1, 0))}[grid.dimension]
    return np.stack([_partial(grid, c[a], b) - _partial(grid, c[b], a) for a, b in pairs])


def curl(v: RealField) -> RealField:
    """Scalar d1 v2 - d2 v1 in 2D; the full vector curl in 3D."""
    if not v.is_vector:
        raise SpectralError("curl expects a vector field")
    return RealField(v.grid, coeffs=_curl(v.grid, v.coeffs))


def jacobian(v: RealField) -> RealField:
    """All component gradients d_b v_a stacked into one (ncomp*d)-component
    field; its pointwise magnitude is the Frobenius norm of grad v."""
    grid, c = v.grid, v.coeffs
    out = np.stack([_partial(grid, c[a], b)
                    for a in range(v.ncomp) for b in range(grid.dimension)])
    return RealField(grid, coeffs=out)


def _gradient_sup(grid: Grid, coeffs: np.ndarray) -> float:
    """max over the grid of the Frobenius norm of the component gradients
    d_b c_a of stacked coefficients (ncomp,) + either layout of
    `_cube_width` (the cube's is a pruned inverse).  The d rows of one
    component are built into a reused buffer and inverse-transformed in one
    batch, and their squares are added in (a, b) order: numpy sums axis 0
    row after row, so this gives the bits of the sum over one batched
    inverse of all ncomp*d components, with a working set of two d-row
    batches."""
    k, d = _cube_width(grid, coeffs), grid.dimension
    buf = np.empty((d,) + coeffs.shape[1:], dtype=complex)
    total = None
    for c in coeffs:
        for b in range(d):
            _partial(grid, c, b, out=buf[b])
        rows = _inverse(grid, buf, k)
        np.square(rows, out=rows)
        if total is None:
            total, rows = rows[0], rows[1:]
        for row in rows:
            total += row
    return float(np.sqrt(total.max()))


def jacobian_sup_norm(v: RealField) -> float:
    """max over the grid of the Frobenius norm of the component gradients."""
    return _gradient_sup(v.grid, v.coeffs)


def riesz(f: RealField, axis: int) -> RealField:
    """Riesz transform, multiplier i xi_l / |xi| with the mean mode sent to 0."""
    if not f.is_scalar:
        raise SpectralError("riesz expects a scalar field")
    r = radius(f.grid)
    mult = np.divide(1j * frequencies(f.grid)[axis], r,
                     out=np.zeros(r.shape, dtype=complex), where=r != 0.0)
    return apply_multiplier(f, mult, solenoidal=False)


@lru_cache(maxsize=None)
def _leray_factors(grid: Grid) -> np.ndarray:
    """xi_a |xi|^-2 stacked over a, shape (d,) + spectral_shape, 0 at the
    mean mode."""
    r2 = sum(f * f for f in frequencies(grid))
    inv = np.divide(1.0, r2, out=np.zeros(grid.spectral_shape), where=r2 != 0.0)
    out = np.stack([f * inv for f in frequencies(grid)])
    out.flags.writeable = False
    return out


def _leray_complement(grid: Grid, c: np.ndarray) -> np.ndarray:
    """The gradient part xi_a |xi|^-2 (xi . c), 0 at the mean mode, of
    stacked vector coefficients c, shape (..., d) + spectral_shape or
    + the cube's shape (told apart by the last axis, N // 2 + 1 against
    N // 3 + 1), as a new array of that shape: the component axis is the
    one just before the spectral axes, and every axis before it is a batch
    axis."""
    d = grid.dimension
    if _cube_width(grid, c) is None:
        freqs, factors = frequencies(grid), _leray_factors(grid)
    else:
        tables = _cube_tables(grid)
        freqs, factors = tables.xi, tables.leray
    parts = [c[(..., a) + (slice(None),) * d] for a in range(d)]
    dot = freqs[0] * parts[0]
    term = np.empty_like(dot)
    for a in range(1, d):
        dot += np.multiply(freqs[a], parts[a], out=term)
    return np.multiply(factors, np.expand_dims(dot, -d - 1))


def _leray(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Leray projection of stacked vector coefficients c (laid out as for
    `_leray_complement`), written over c and returned: c loses its gradient
    part; the mean mode is left as it is."""
    c -= _leray_complement(grid, c)
    return c


def leray_project(v: RealField) -> RealField:
    """Divergence-free (Leray) projection; the mean mode is left untouched."""
    if not v.is_vector:
        raise SpectralError("leray projection expects a vector field")
    return RealField(v.grid, coeffs=_leray(v.grid, v.coeffs.copy()), solenoidal=True)


# ---------------------------------------------------------------------------
# the 2/3 cube
# ---------------------------------------------------------------------------


def _cube_width(grid: Grid, c: np.ndarray) -> int | None:
    """The layout of coefficients c, told apart by the last axis (N // 2 + 1
    against N // 3 + 1): None for (...) + spectral_shape, N // 3 for the
    2/3 cube (...) + `grid._box_shape(N // 3)`.  It is the half-width that
    `_inverse` takes to invert c."""
    return None if c.shape[-1] == grid.spectral_shape[-1] else grid.dealias_limit


def _cube_supported(grid: Grid, c: np.ndarray) -> bool:
    """Whether coefficients c, laid out (...) + spectral_shape, are exactly
    zero outside the 2/3 cube (a NaN is not zero).  The outside is d slabs,
    one per axis, of the modes with |xi_i| > N // 3 on that axis; each is
    checked as a view, with no copy."""
    k, n, d = grid.dealias_limit, grid.points, grid.dimension
    for axis in range(d):
        past = slice(k + 1, None) if axis == d - 1 else slice(k + 1, n - k)
        if c[(...,) + (slice(None),) * axis + (past,) + (slice(None),) * (d - 1 - axis)].any():
            return False
    return True


def _gather(grid: Grid, src: np.ndarray, k: int | None = None) -> np.ndarray:
    """The box of half-width k (by default the 2/3 cube) of coefficients
    laid out (...) + spectral_shape or on the cube (`_cube_width`), as a
    new (...) + box-shaped array, by one slice copy per block."""
    k = grid.dealias_limit if k is None else k
    out = np.empty(src.shape[:-grid.dimension] + grid._box_shape(k), dtype=src.dtype)
    for f, c in grid._box_blocks(k, src.shape[-grid.dimension]):
        out[c] = src[f]
    return out


def _scatter(grid: Grid, cube: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cube coefficients written into the cube of `out` (by default a zeroed
    full array), whose other modes are left as they are; returns `out`."""
    if out is None:
        out = np.zeros(cube.shape[:-grid.dimension] + grid.spectral_shape, dtype=cube.dtype)
    for f, c in grid._box_blocks(grid.dealias_limit):
        out[f] = cube[c]
    return out


class _CubeTables(NamedTuple):
    """Multiplier tables on the 2/3 cube, each (d,) + the cube's shape: xi_a
    and the Leray factors xi_a |xi|^-2, gathered from the full-lattice
    tables (so each entry has the bits of its full-lattice twin), and the
    factors -i xi_j of -d_j.  The cube is the 2/3 mask, so a product's
    coefficients gathered to it and multiplied by `derivative` are its
    dealiased derivatives."""

    xi: np.ndarray
    derivative: np.ndarray
    leray: np.ndarray


@lru_cache(maxsize=None)
def _cube_tables(grid: Grid) -> _CubeTables:
    xi = _gather(grid, np.stack(np.broadcast_arrays(*frequencies(grid))))
    tables = _CubeTables(xi, -1j * xi, _gather(grid, _leray_factors(grid)))
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _cube_bank(grid: Grid) -> FilterBank:
    """The filter bank gathered to the 2/3 cube: every phi_j and chi_j with
    the bits of its full-lattice twin, read-only."""
    bank = make_filter_bank(grid)

    def gathered(table):
        out = {j: _gather(grid, m) for j, m in table.items()}
        for m in out.values():
            m.flags.writeable = False
        return out

    return FilterBank(grid=grid, phi=gathered(bank.phi), chi=gathered(bank.chi))


def _layout_bank(grid: Grid, c: np.ndarray) -> FilterBank:
    """The filter bank on the layout of coefficients c (`_cube_width`):
    `make_filter_bank`'s on the full half spectrum, `_cube_bank` on the
    cube."""
    return make_filter_bank(grid) if _cube_width(grid, c) is None else _cube_bank(grid)


# ---------------------------------------------------------------------------
# seeded random fields
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _half_lattice_modes(dimension: int, kmax: int):
    """Deterministically ordered representatives of the conjugate mode pairs
    with 0 < |xi|_inf <= kmax: the lexicographically positive half, whose
    first nonzero entry is positive (xi = 0 has none); cached and read-only."""
    axes = [np.arange(-kmax, kmax + 1)] * dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    first = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    modes = flat[first > 0]
    modes = modes[np.lexsort(tuple(modes[:, a] for a in reversed(range(dimension))))]
    modes.flags.writeable = False
    return modes


def random_band_limited(
    grid: Grid,
    seed: int,
    ncomp: int = 1,
    decay: float = 2.0,
    kmax: int | None = None,
    amplitude: float = 1.0,
) -> RealField:
    """Seeded Gaussian random field with |xi|^-decay spectral envelope,
    supported on |xi|_inf <= kmax (default: the 2/3 ball).

    The coefficients are drawn per mode in a fixed, resolution-independent
    order and the L2 normalization is computed spectrally, so the same
    (seed, kmax, decay, amplitude) describes the same continuum function at
    every resolution that can represent it.  The field is returned by its
    rfft coefficients (values are one inverse transform away), and every
    mode outside the band is an exact zero.
    """
    if kmax is None:
        kmax = grid.dealias_limit
    if kmax < 1 or kmax > grid.points // 2 - 1:
        raise SpectralError(f"kmax {kmax} not representable on N={grid.points}")
    modes = _half_lattice_modes(grid.dimension, kmax)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((ncomp, len(modes), 2))
    coeff = (draws[..., 0] + 1j * draws[..., 1]) / math.sqrt(2.0)
    envelope = np.sqrt((modes.astype(float) ** 2).sum(axis=1)) ** (-float(decay))
    coeff = coeff * envelope
    norm = math.sqrt(2.0 * float(np.sum(np.abs(coeff) ** 2)))
    if norm > 0.0:
        coeff *= amplitude / norm

    # rfft half-spectrum: a pair with xi_d > 0 stores its representative,
    # one with xi_d < 0 the conjugate at -xi, and the xi_d = 0 plane both
    n = grid.points
    spec = np.zeros((ncomp,) + grid.spectral_shape, dtype=complex)
    scale = float(n) ** grid.dimension
    for sign, part in ((1, coeff), (-1, np.conj(coeff))):
        rows = sign * modes[:, -1] >= 0
        idx = tuple(np.mod(sign * modes[rows, a], n) for a in range(grid.dimension))
        spec[(slice(None),) + idx] = part[:, rows] * scale
    return RealField(grid, coeffs=spec)


def random_solenoidal(
    grid: Grid,
    seed: int,
    decay: float = 2.0,
    kmax: int | None = None,
    amplitude: float = 1.0,
) -> RealField:
    """Leray-projected random band-limited vector field, rescaled to the
    requested L2 amplitude: divided by the root of the grid mean of |v|^2,
    computed from the values."""
    raw = random_band_limited(
        grid, seed, ncomp=grid.dimension, decay=decay, kmax=kmax, amplitude=1.0
    )
    v = leray_project(raw)
    norm = math.sqrt(float(np.mean(np.sum(v.values**2, axis=0))))
    if norm > 0.0:
        v = (amplitude / norm) * v
    return v


# ---------------------------------------------------------------------------
# snapshot file format
# ---------------------------------------------------------------------------

SNAPSHOT_FORMAT_VERSION = 1


def save_snapshot(field: RealField, path, time: float | None = None) -> None:
    """Write a field snapshot.

    Layout (NumPy .npz archive, stable across versions):
      format_version : int, currently 1
      dimension      : int, spatial dimension d
      points         : int, lattice points per axis N
      components     : int, component count m
      solenoidal     : bool flag
      time           : float (NaN when not applicable)
      values         : float64 array, shape (m, N, ..., N), row-major physical
                       values on the [0, 2pi)^d lattice
    """
    np.savez(
        path,
        format_version=np.int64(SNAPSHOT_FORMAT_VERSION),
        dimension=np.int64(field.grid.dimension),
        points=np.int64(field.grid.points),
        components=np.int64(field.ncomp),
        solenoidal=np.bool_(field.solenoidal),
        time=np.float64(math.nan if time is None else time),
        values=field.values,
    )


def load_snapshot(path):
    """Read a snapshot written by save_snapshot; returns (field, time).
    A file that is not such an archive raises SpectralError."""
    try:
        with np.load(path) as data:
            version = int(data["format_version"])
            if version != SNAPSHOT_FORMAT_VERSION:
                raise SpectralError(f"unsupported snapshot format version {version}")
            grid = Grid(int(data["dimension"]), int(data["points"]))
            field = RealField(
                grid, values=data["values"], solenoidal=bool(data["solenoidal"])
            )
            if field.ncomp != int(data["components"]):
                raise SpectralError(
                    f"snapshot {path} holds {field.ncomp} components but its "
                    f"header says {int(data['components'])}")
            t = float(data["time"])
    except SpectralError:
        raise
    # TypeError: a bare .npy array is no context manager, and a header entry
    # that is not a scalar does not convert
    except (TypeError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise SpectralError(f"unreadable snapshot {path}: {exc}") from exc
    return field, (None if math.isnan(t) else t)
