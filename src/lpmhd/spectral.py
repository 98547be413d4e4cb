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
place.  They reach scipy.fft as module attributes (`sfft.rfftn`) at call
time, which is what lets a transform counter patch those attributes.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from functools import lru_cache

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
    >= 16), period 2pi per axis.

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

    def coordinates(self):
        """d arrays of shape `shape` with the lattice coordinates."""
        x = np.arange(self.points) * self.spacing
        return np.meshgrid(*([x] * self.dimension), indexing="ij")


@lru_cache(maxsize=None)
def _frequencies(dimension: int, points: int):
    """Integer frequency arrays, each shaped to broadcast over spectral_shape."""
    full = np.fft.fftfreq(points, 1.0 / points)
    half = np.arange(points // 2 + 1, dtype=float)
    out = []
    for axis in range(dimension):
        f = half if axis == dimension - 1 else full
        shape = [1] * dimension
        shape[axis] = f.size
        arr = f.reshape(shape).copy()
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


def frequencies(grid: Grid):
    return _frequencies(grid.dimension, grid.points)


@lru_cache(maxsize=None)
def _radius(dimension: int, points: int):
    freqs = _frequencies(dimension, points)
    r = np.sqrt(sum(f**2 for f in freqs))
    r.flags.writeable = False
    return r


def radius(grid: Grid) -> np.ndarray:
    """|xi| on the spectral lattice."""
    return _radius(grid.dimension, grid.points)


@lru_cache(maxsize=None)
def _dealias_mask(dimension: int, points: int):
    freqs = _frequencies(dimension, points)
    limit = points // 3
    mask = np.ones((1,) * dimension, dtype=bool)
    for f in freqs:
        mask = mask & (np.abs(f) <= limit)
    mask.flags.writeable = False
    return mask


def dealias_mask(grid: Grid) -> np.ndarray:
    return _dealias_mask(grid.dimension, grid.points)


@lru_cache(maxsize=None)
def _spectral_weights(dimension: int, points: int):
    """Multiplicity of each rfft mode in the full spectrum (2 for interior
    last-axis modes, 1 for xi_d = 0 and the Nyquist plane)."""
    shape = (points,) * (dimension - 1) + (points // 2 + 1,)
    w = np.full(shape, 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0
    w.flags.writeable = False
    return w


def spectral_weights(grid: Grid) -> np.ndarray:
    return _spectral_weights(grid.dimension, grid.points)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """rfft over the trailing d axes; every leading axis is a batch axis."""
    return sfft.rfftn(values, axes=tuple(range(-grid.dimension, 0)))


def _inverse(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of _forward, batched over the leading axes."""
    return sfft.irfftn(coeffs, s=grid.shape, axes=tuple(range(-grid.dimension, 0)))


class RealField:
    """Scalar or vector field on a Grid.

    Values are stored with an explicit leading component axis
    (shape ``(ncomp,) + grid.shape``); the rfft spectrum is cached on first
    use and carried through multiplier operators so that exact spectral
    identities survive in floating point.  Fields are treated as immutable:
    both representations are marked read-only and every operator returns a
    new field.
    """

    __slots__ = ("grid", "ncomp", "_values", "_coeffs", "solenoidal")

    def __init__(self, grid, values=None, coeffs=None, solenoidal=False):
        if values is None and coeffs is None:
            raise SpectralError("RealField needs values or coefficients")
        self.grid = grid
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape == grid.shape:
                values = values[np.newaxis]
            if values.ndim != grid.dimension + 1 or values.shape[1:] != grid.shape:
                raise SpectralError(
                    f"value shape {values.shape} does not match grid {grid.shape}"
                )
            values = np.ascontiguousarray(values)
            values.flags.writeable = False
            self.ncomp = values.shape[0]
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape == grid.spectral_shape:
                coeffs = coeffs[np.newaxis]
            if coeffs.ndim != grid.dimension + 1 or coeffs.shape[1:] != grid.spectral_shape:
                raise SpectralError(
                    f"coefficient shape {coeffs.shape} does not match grid "
                    f"{grid.spectral_shape}"
                )
            coeffs = np.ascontiguousarray(coeffs)
            coeffs.flags.writeable = False
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

    def _check_compatible(self, other: "RealField"):
        if self.grid != other.grid:
            raise SpectralError("grid mismatch")
        if self.ncomp != other.ncomp:
            raise SpectralError("component count mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        if self._coeffs is not None and other._coeffs is not None:
            return RealField(
                self.grid,
                coeffs=self._coeffs + other._coeffs,
                solenoidal=self.solenoidal and other.solenoidal,
            )
        return RealField(
            self.grid,
            values=self.values + other.values,
            solenoidal=self.solenoidal and other.solenoidal,
        )

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


def from_values(grid: Grid, values, solenoidal=False) -> RealField:
    return RealField(grid, values=values, solenoidal=solenoidal)


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


def representation_defect(field: RealField) -> float:
    """Relative disagreement between physical values and cached spectrum."""
    if field._coeffs is None or field._values is None:
        return 0.0
    fresh = _forward(field.grid, field._values)
    denom = np.max(np.abs(field._coeffs))
    if denom == 0.0:
        return float(np.max(np.abs(fresh)))
    return float(np.max(np.abs(fresh - field._coeffs)) / denom)


def solenoidal_residual(field: RealField) -> float:
    """max_xi |xi . v_hat| / max_xi |v_hat| for a vector field."""
    if not field.is_vector:
        raise SpectralError("solenoidal residual requires a vector field")
    freqs = frequencies(field.grid)
    c = field.coeffs
    div = sum(1j * freqs[a] * c[a] for a in range(field.grid.dimension))
    denom = max(np.max(np.abs(comp)) for comp in c)
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(div)) / denom)


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
def _make_filter_bank(dimension: int, points: int) -> FilterBank:
    grid = Grid(dimension, points)
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


def make_filter_bank(grid: Grid) -> FilterBank:
    """Build (or retrieve, banks are deterministic) the filter bank for a grid."""
    return _make_filter_bank(grid.dimension, grid.points)


def partition_defect(bank: FilterBank) -> float:
    """max over the lattice of |chi_{j0} + sum_j phi_j - 1|."""
    total = bank.chi[bank.j0].copy()
    for j in range(bank.j0, bank.j_max + 1):
        total = total + bank.phi[j]
    return float(np.max(np.abs(total - 1.0)))


def dyadic_block(f: RealField, j: int) -> RealField:
    """Frequency-annulus projection Delta_j f."""
    bank = make_filter_bank(f.grid)
    if not bank.j0 <= j <= bank.j_max:
        raise SpectralError(
            f"dyadic block index {j} outside [{bank.j0}, {bank.j_max}]"
        )
    return apply_multiplier(f, bank.phi[j])


def low_pass(f: RealField, j: int) -> RealField:
    """Frequency-ball projection S_j f; j = j_max+1 recovers f exactly."""
    bank = make_filter_bank(f.grid)
    if not bank.j0 <= j <= bank.j_max + 1:
        raise SpectralError(
            f"low-pass index {j} outside [{bank.j0}, {bank.j_max + 1}]"
        )
    return apply_multiplier(f, bank.chi[j])


def low_pass_saturating(f: RealField, j: int) -> RealField:
    """S_j with the index clamped to j_max+1, where S_j is the identity."""
    return low_pass(f, min(j, f.grid.j_max + 1))


def block_magnitudes(f: RealField) -> np.ndarray:
    """Stack of pointwise magnitudes |Delta_j f|, shape (n_shells,) + grid.shape:
    per shell, one batched inverse of every component, written into the stack.

    (One inverse of all shells at once gives the same bits, but it measured
    up to 1.7x slower once the stack passes about 1 MB, as at 2D N=128 and
    3D N=32, where its multi-MB temporaries miss the cache.)
    """
    grid, bank = f.grid, make_filter_bank(f.grid)
    out = np.empty((len(grid.js),) + grid.shape)
    for i, j in enumerate(grid.js):
        blk = _inverse(grid, f.coeffs * bank.phi[j])
        if f.ncomp == 1:
            np.abs(blk[0], out=out[i])
        else:
            np.square(blk, out=blk)
            np.sqrt(blk.sum(axis=0), out=out[i])
    return out


@lru_cache(maxsize=None)
def _plancherel_weights(dimension: int, points: int) -> np.ndarray:
    """Rows w * phi_j^2 for j in [j0, j_max], then w alone (w the rfft
    multiplicities), each flattened over the spectral lattice and divided by
    N^{2d}: shape (n_shells + 1, prod(spectral_shape))."""
    bank = _make_filter_bank(dimension, points)
    w = _spectral_weights(dimension, points)
    rows = [w * bank.phi[j] ** 2 for j in bank.grid.js] + [w]
    out = np.stack(rows).reshape(len(rows), -1)
    out /= float(points) ** (2 * dimension)
    out.flags.writeable = False
    return out


def _realized_energy(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """sum over components of |c(xi)|^2 for the spectrum that `_inverse`
    realizes, flattened over the spectral lattice.

    irfftn reads a real signal off the xi_d = 0 and xi_d = N/2 planes, i.e.
    only their Hermitian part (c(xi) + conj c(-xi)) / 2; a field whose
    coefficients are not Hermitian there (the Nyquist line of a derivative,
    for one) would otherwise be credited with energy its values do not have.
    """

    def energy(c):
        return (np.square(c.real) + np.square(c.imag)).sum(axis=0)

    out = energy(coeffs)
    # xi -> -xi on the d-1 leading axes of the two edge planes
    mirror = np.ix_(*[(-np.arange(grid.points)) % grid.points] * (grid.dimension - 1))
    edges = coeffs[..., [0, -1]]
    out[..., [0, -1]] = energy(0.5 * (edges + np.conj(edges[(slice(None),) + mirror])))
    return out.ravel()


def shell_energies(f: RealField):
    """Plancherel energies, with no transform once f has coefficients:
    (e, total) with e[j - j0] = ||Delta_j f||_2^2 for j in [j0, j_max] and
    total = ||f||_2^2, in the normalized measure."""
    sums = _plancherel_weights(f.grid.dimension, f.grid.points) @ _realized_energy(
        f.grid, f.coeffs
    )
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


def partial_derivative(f: RealField, axis: int) -> RealField:
    alpha = [0] * f.grid.dimension
    alpha[axis] = 1
    return spectral_derivative(f, alpha)


def gradient(f: RealField) -> RealField:
    """Gradient of a scalar field as a d-component vector field."""
    if not f.is_scalar:
        raise SpectralError("gradient expects a scalar field")
    freqs = frequencies(f.grid)
    c = f.coeffs[0]
    out = np.stack([1j * freqs[a] * c for a in range(f.grid.dimension)])
    return RealField(f.grid, coeffs=out)


def divergence(v: RealField) -> RealField:
    if not v.is_vector:
        raise SpectralError("divergence expects a vector field")
    freqs = frequencies(v.grid)
    c = v.coeffs
    out = sum(1j * freqs[a] * c[a] for a in range(v.grid.dimension))
    return RealField(v.grid, coeffs=out[np.newaxis])


def curl(v: RealField) -> RealField:
    """Scalar d1 v2 - d2 v1 in 2D; the full vector curl in 3D."""
    if not v.is_vector:
        raise SpectralError("curl expects a vector field")
    freqs = frequencies(v.grid)
    c = v.coeffs
    if v.grid.dimension == 2:
        out = (1j * freqs[0] * c[1] - 1j * freqs[1] * c[0])[np.newaxis]
    else:
        out = np.stack(
            [
                1j * freqs[1] * c[2] - 1j * freqs[2] * c[1],
                1j * freqs[2] * c[0] - 1j * freqs[0] * c[2],
                1j * freqs[0] * c[1] - 1j * freqs[1] * c[0],
            ]
        )
    return RealField(v.grid, coeffs=out)


def jacobian(v: RealField) -> RealField:
    """All component gradients d_b v_a stacked into one (ncomp*d)-component
    field; its pointwise magnitude is the Frobenius norm of grad v."""
    freqs = frequencies(v.grid)
    c = v.coeffs
    out = np.stack(
        [
            1j * freqs[b] * c[a]
            for a in range(v.ncomp)
            for b in range(v.grid.dimension)
        ]
    )
    return RealField(v.grid, coeffs=out)


def jacobian_sup_norm(v: RealField) -> float:
    """max over the grid of the Frobenius norm of the component gradients,
    from one batched inverse of all ncomp*d gradient components."""
    grads = _inverse(v.grid, jacobian(v).coeffs)
    np.square(grads, out=grads)
    return float(np.sqrt(grads.sum(axis=0).max()))


def riesz(f: RealField, axis: int) -> RealField:
    """Riesz transform, multiplier i xi_l / |xi| with the mean mode sent to 0."""
    if not f.is_scalar:
        raise SpectralError("riesz expects a scalar field")
    freqs = frequencies(f.grid)
    r = radius(f.grid)
    safe = np.where(r == 0.0, 1.0, r)
    mult = 1j * freqs[axis] / safe
    mult = np.where(r == 0.0, 0.0, mult)
    return apply_multiplier(f, mult, solenoidal=False)


@lru_cache(maxsize=None)
def _leray_denominators(dimension: int, points: int):
    """|xi|^2 and the same with the mean mode set to 1 (safe to divide by)."""
    r2 = _radius(dimension, points) ** 2
    safe = np.where(r2 == 0.0, 1.0, r2)
    r2.flags.writeable = False
    safe.flags.writeable = False
    return r2, safe


def _leray(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Leray projection of stacked vector coefficients, shape
    (..., d) + spectral_shape: the component axis is the one just before the
    spectral axes, and every axis before it is a batch axis."""
    d = grid.dimension
    freqs = frequencies(grid)
    r2, safe = _leray_denominators(d, grid.points)
    index = [(..., a) + (slice(None),) * d for a in range(d)]
    xi_dot = sum(freqs[a] * c[index[a]] for a in range(d))
    out = np.empty_like(c)
    for a in range(d):
        np.subtract(
            c[index[a]], np.where(r2 == 0.0, 0.0, freqs[a] * xi_dot / safe), out=out[index[a]]
        )
    return out


def leray_project(v: RealField) -> RealField:
    """Divergence-free (Leray) projection; the mean mode is left untouched."""
    if not v.is_vector:
        raise SpectralError("leray projection expects a vector field")
    return RealField(v.grid, coeffs=_leray(v.grid, v.coeffs), solenoidal=True)


# ---------------------------------------------------------------------------
# seeded random fields
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _half_lattice_modes(dimension: int, kmax: int):
    """Deterministically ordered representatives of the conjugate mode pairs
    with 0 < |xi|_inf <= kmax (lexicographically positive half); cached and
    read-only."""
    axes = [np.arange(-kmax, kmax + 1)] * dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.zeros(len(flat), dtype=bool)
    for a in range(dimension):
        higher_zero = np.ones(len(flat), dtype=bool)
        for b in range(a):
            higher_zero &= flat[:, b] == 0
        keep |= higher_zero & (flat[:, a] > 0)
    modes = flat[keep]
    order = np.lexsort(tuple(modes[:, a] for a in reversed(range(dimension))))
    modes = modes[order]
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
    """Leray-projected random band-limited vector field, renormalized to the
    requested L2 amplitude (spectral norm, so resolution-independent)."""
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
            t = float(data["time"])
    except SpectralError:
        raise
    except (ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise SpectralError(f"unreadable snapshot {path}: {exc}") from exc
    return field, (None if math.isnan(t) else t)
