"""Lebesgue and Triebel-Lizorkin norms, plus the Hardy-Littlewood maximal
function, all with the normalized measure (2pi)^-d dx.

The homogeneous shell sum runs over the grid's dyadic range [j0, j_max]; the
mean mode never contributes because phi_j(0) = 0 for every j.  The s = 0,
p = q = inf homogeneous norm is sup_j ||Delta_j f||_inf, the quantity driving
the blow-up monitor.

F^s_{2,2} is H^s, so at p = q = 2 the shell sum is evaluated by Plancherel
in coefficient space, with no transform: sum_j 2^{2sj} ||Delta_j f||_2^2
from the rfft spectrum after projecting its xi_d = 0 and xi_d = N/2 planes
onto their Hermitian part (the spectrum the inverse transform realizes).
It agrees with the shell path to round-off, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    Grid,
    RealField,
    SpectralError,
    _forward,
    _inverse,
    apply_multiplier,
    block_magnitudes,
    radius,
    shell_energies,
)

INF = math.inf


class NormDomainError(SpectralError):
    """Norm parameters outside the supported (p, q, s) ranges."""


@dataclass(frozen=True)
class NormSpec:
    """Identifies a Triebel-Lizorkin norm: smoothness s, integrability p,
    shell summability q, homogeneous flag."""

    s: float
    p: float
    q: float
    homogeneous: bool = True

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise NormDomainError(f"s = {self.s} must be a finite number")
        p, q = self.p, self.q
        ok = (1.0 < p < INF and 1.0 < q <= INF) or (p == INF and q == INF)
        if not ok:
            raise NormDomainError(
                f"(p, q) = ({p}, {q}) outside (1, inf) x (1, inf] with p = q = inf allowed"
            )
        if not self.homogeneous and not self.s > 0:
            raise NormDomainError("inhomogeneous norms require s > 0")

    @property
    def label(self) -> str:
        """Comma-free tag usable as a CSV column suffix."""
        dot = "hom" if self.homogeneous else "inhom"
        return f"F[s={self.s:g}|p={self.p:g}|q={self.q:g}|{dot}]"


def lp_norm(f: RealField, p: float) -> float:
    """(mean |f|^p)^(1/p) with pointwise Euclidean component magnitude;
    p = inf gives the grid maximum."""
    if not 1.0 <= p <= INF:
        raise NormDomainError(f"p = {p} outside [1, inf]")
    if p == INF:
        if f.is_scalar:
            return float(np.abs(f.values[0]).max())
        # sqrt is monotone and correctly rounded, so the sqrt of the largest
        # squared magnitude equals the largest magnitude exactly
        return math.sqrt(np.square(f.values).sum(axis=0).max())
    return float(np.mean(f.magnitude() ** p) ** (1.0 / p))


def shell_lp_lq(mags: np.ndarray, j_indices, s: float, p: float, q: float) -> float:
    """|| || 2^{js} a_j(x) ||_{l^q(j)} ||_{L^p(x)} for a stack of nonnegative
    shell magnitudes a_j.  Shared by tl_norm and the inequality lab (which
    feeds commutator families through the same reduction)."""
    weights = 2.0 ** (s * np.asarray(list(j_indices), dtype=float))
    arr = mags * weights.reshape((-1,) + (1,) * (mags.ndim - 1))
    if q == INF:
        pooled = arr.max(axis=0)
    else:
        pooled = (arr**q).sum(axis=0) ** (1.0 / q)
    if p == INF:
        return float(pooled.max())
    return float(np.mean(pooled**p) ** (1.0 / p))


def tl_norm(f: RealField, spec: NormSpec) -> float:
    """Triebel-Lizorkin norm of a field.

    Homogeneous: L^p in x of the l^q over shells of 2^{js} |Delta_j f(x)|.
    Inhomogeneous adds the L^p norm of f itself.

    p = q = 2 is evaluated by Plancherel from the coefficients, after the
    Hermitian projection of the xi_d = 0 and N/2 planes (`shell_energies`):
    no transform for a field that has them, one forward transform otherwise.
    Every other (p, q) inverse-transforms the dyadic blocks.
    """
    if spec.p == spec.q == 2.0:
        shells, total = shell_energies(f)
        weights = 2.0 ** (2.0 * spec.s * np.asarray(f.grid.js, dtype=float))
        value = math.sqrt(float(weights @ shells))
        if not spec.homogeneous:
            value += math.sqrt(total)
        return value
    mags = block_magnitudes(f)
    value = shell_lp_lq(mags, f.grid.js, spec.s, spec.p, spec.q)
    if not spec.homogeneous:
        value += lp_norm(f, spec.p)
    return value


def norm_record(field_id: str, spec: NormSpec, value: float) -> dict:
    """JSON-ready record of one norm evaluation."""
    return {
        "field-id": field_id,
        "s": spec.s,
        "p": float(spec.p),
        "q": float(spec.q),
        "homogeneous": spec.homogeneous,
        "value": value,
    }


# ---------------------------------------------------------------------------
# Hardy-Littlewood maximal function
# ---------------------------------------------------------------------------


def maximal_radii(grid: Grid):
    """The dyadic radius ladder: grid spacing times 2^m up to half the period."""
    steps = (grid.points // 2).bit_length() - 1
    return [grid.spacing * 2.0**m for m in range(steps + 1)]


@lru_cache(maxsize=None)
def _ball_kernels(grid: Grid):
    """rfft spectra of the normalized lattice-ball indicator kernels, one per
    ladder radius.  Averages over {y : dist(x, y) <= r} with uniform weights."""
    x = np.arange(grid.points) * grid.spacing
    wrapped = np.minimum(x, 2.0 * math.pi - x)
    axes = np.meshgrid(*([wrapped] * grid.dimension), indexing="ij")
    dist2 = sum(a**2 for a in axes)
    out = []
    for r in maximal_radii(grid):
        ball = dist2 <= r * r * (1.0 + 1e-12)
        kernel = ball / ball.sum()
        spec = _forward(grid, kernel)
        spec.flags.writeable = False
        out.append(spec)
    return tuple(out)


def maximal_function(f: RealField) -> RealField:
    """Pointwise max of |f| and its ball averages over the dyadic radius
    ladder.  Exact lattice convolutions, no dealiasing involved."""
    if not f.is_scalar:
        raise SpectralError("maximal function expects a scalar field")
    best = np.abs(f.values[0])
    kernels = _ball_kernels(f.grid)
    spec_abs = _forward(f.grid, best)
    for kern in kernels:
        avg = _inverse(f.grid, spec_abs * kern)
        np.maximum(best, avg, out=best)
    return RealField(f.grid, values=best)


def gaussian_convolve(f: RealField, scale: float) -> RealField:
    """Convolution with the periodized normalized Gaussian of width `scale`
    (multiplier exp(-scale^2 |xi|^2 / 2), unit mass)."""
    mult = np.exp(-0.5 * (scale * radius(f.grid)) ** 2)
    return apply_multiplier(f, mult)
