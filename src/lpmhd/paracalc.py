"""Bony paraproduct calculus and the advective commutator with its exact
four-term split.

All operations project their inputs onto the 2/3 dealias ball on entry and
dealias every pointwise product, so products are exact truncations and the
algebraic identities below hold to round-off on the lattice.

Torus reconstruction identity (the inhomogeneous base-block convention):

    u v = T_u v + T_v u + R(u, v)
          + P0(u) S_{j0+1} v + S_{j0+1} u P0(v) - P0(u) P0(v)

with P0 = S_{j0} the mean projection, T_u v = sum_{j > j0} S_{j-1}u Delta_j v
and R the band-diagonal remainder over [j0, j_max].  The commutator split

    [f, Delta_k] . grad g = I + II + III + IV

assembles, per advected component, the four Bony pieces of
f_i d_i Delta_k g - Delta_k(f_i d_i g); the mean-mode base terms cancel
exactly because constants commute with Fourier multipliers, which is why the
reconstruction is exact rather than merely asymptotic.  Block windows follow
the support bookkeeping: |k'-k| <= 4 for I and III, k' >= k-2 for II,
k' >= k-3 for IV; dropped terms vanish identically on the lattice.

The commutator API is family-level only: the paper measures the commutator
summed over every shell k inside an F^s_{p,q} norm, so `commutator_family`
and `commutator_split_family` return dicts keyed by k, built from one shared
set of factor transforms.  A single shell is a lookup,
``commutator_family(f, g)[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    RealField,
    SpectralError,
    _inverse,
    _masked_product,
    dealias,
    frequencies,
    low_pass,
    make_filter_bank,
    multiply,
    solenoidal_residual,
)

SOLENOIDAL_TOL = 1e-10


def _check_pair(u: RealField, v: RealField):
    if u.grid != v.grid:
        raise SpectralError("grid mismatch between paraproduct arguments")
    if not (u.is_scalar and v.is_scalar):
        raise SpectralError("paraproduct operations expect scalar fields")


def paraproduct(u: RealField, v: RealField) -> RealField:
    """T_u v = sum_{j=j0+1}^{j_max} S_{j-1}u Delta_j v, dealiased."""
    _check_pair(u, v)
    grid = u.grid
    bank = make_filter_bank(grid)
    u, v = dealias(u), dealias(v)
    uhat, vhat = u.coeffs[0], v.coeffs[0]
    acc = np.zeros(grid.spectral_shape, dtype=complex)
    for j in range(grid.j0 + 1, grid.j_max + 1):
        low = _inverse(grid, bank.chi[j - 1] * uhat)
        blk = _inverse(grid, bank.phi[j] * vhat)
        acc += _masked_product(grid, low, blk)
    return RealField(grid, coeffs=acc[np.newaxis])


def remainder(u: RealField, v: RealField) -> RealField:
    """R(u, v) = sum_j Delta_j u (Delta_{j-1}+Delta_j+Delta_{j+1}) v over the
    available shell range, dealiased; symmetric in (u, v)."""
    _check_pair(u, v)
    grid = u.grid
    bank = make_filter_bank(grid)
    u, v = dealias(u), dealias(v)
    uhat, vhat = u.coeffs[0], v.coeffs[0]
    blocks_v = {j: _inverse(grid, bank.phi[j] * vhat) for j in grid.js}
    acc = np.zeros(grid.spectral_shape, dtype=complex)
    for j in grid.js:
        tilde = sum(
            blocks_v[j + d] for d in (-1, 0, 1) if grid.j0 <= j + d <= grid.j_max
        )
        blk_u = _inverse(grid, bank.phi[j] * uhat)
        acc += _masked_product(grid, blk_u, tilde)
    return RealField(grid, coeffs=acc[np.newaxis])


def bony_base_terms(u: RealField, v: RealField) -> RealField:
    """Mean-mode cross terms completing the Bony identity on the torus."""
    _check_pair(u, v)
    u, v = dealias(u), dealias(v)
    p0u, p0v = low_pass(u, u.grid.j0), low_pass(v, v.grid.j0)
    s1u, s1v = low_pass(u, u.grid.j0 + 1), low_pass(v, v.grid.j0 + 1)
    return multiply(p0u, s1v) + multiply(s1u, p0v) - multiply(p0u, p0v)


def bony_reconstruction(u: RealField, v: RealField) -> RealField:
    """T_u v + T_v u + R(u, v) + base terms; equals the dealiased product."""
    return paraproduct(u, v) + paraproduct(v, u) + remainder(u, v) + bony_base_terms(u, v)


# ---------------------------------------------------------------------------
# commutator [f, Delta_k] . grad g
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutatorSplit:
    """The four Bony pieces of [f, Delta_k] . grad g at one shell index k.

    term_i   : paraproduct commutator  [T_{f_i}, Delta_k] d_i g
    term_ii  : high-over-low transpose T'_{Delta_k d_i g} f_i
    term_iii : -Delta_k T_{d_i g} f_i
    term_iv  : -Delta_k R(f_i, d_i g)
    Their sum reconstructs the direct commutator exactly.
    """

    k: int
    term_i: RealField
    term_ii: RealField
    term_iii: RealField
    term_iv: RealField

    @property
    def total(self) -> RealField:
        return self.term_i + self.term_ii + self.term_iii + self.term_iv

    @property
    def terms(self) -> dict:
        return {
            "I": self.term_i,
            "II": self.term_ii,
            "III": self.term_iii,
            "IV": self.term_iv,
        }


def _validate_advector(f: RealField):
    if not f.is_vector:
        raise SpectralError("advecting field f must be a vector field")
    if not f.solenoidal and solenoidal_residual(f) > SOLENOIDAL_TOL:
        raise SpectralError(
            "commutator estimates require a solenoidal advecting field "
            f"(Leray residual {solenoidal_residual(f):.2e} > {SOLENOIDAL_TOL})"
        )


def _block_values(grid, coeffs: np.ndarray):
    """Physical values of a spectral block, or None when its coefficients are
    identically zero.  Such a block's values and every product with it are
    exact zeros, so skipping them leaves every sum unchanged bit for bit."""
    return _inverse(grid, coeffs) if coeffs.any() else None


def _add_product(acc: np.ndarray, grid, a, b):
    """acc += P_K(a * b), skipped when either factor is an empty block."""
    if a is not None and b is not None:
        acc += _masked_product(grid, a, b)


class _CommutatorWorkspace:
    """Shared per-(f, g-component) precomputations for the commutator family.

    Everything is keyed by shell index so assembling all k reuses the same
    physical-space factors.  A block factor whose spectrum is identically
    zero (band-limited data leave the high shells empty) is held as None and
    is never transformed or multiplied.
    """

    def __init__(self, f: RealField, g_coeffs: np.ndarray):
        self.grid = f.grid
        self.bank = make_filter_bank(f.grid)
        self.d = f.grid.dimension
        freqs = frequencies(f.grid)
        self.ghat_d = [1j * freqs[i] * g_coeffs for i in range(self.d)]
        self.f_phys = [f.values[i] for i in range(self.d)]
        self.fhat = [f.coeffs[i] for i in range(self.d)]
        self._f_block = {}
        self._f_low = {}
        self._dg_block = {}
        self._dg_low = {}
        self._p1 = {}
        self._q = {}
        self._p2 = {}

    def _zeros(self):
        return np.zeros(self.grid.spectral_shape, dtype=complex)

    # -- cached factors (None: identically zero) -----------------------------

    def f_block(self, k, i):
        key = (k, i)
        if key not in self._f_block:
            self._f_block[key] = _block_values(self.grid, self.bank.phi[k] * self.fhat[i])
        return self._f_block[key]

    def f_low(self, j, i):
        key = (j, i)
        if key not in self._f_low:
            self._f_low[key] = _block_values(self.grid, self.bank.chi[j] * self.fhat[i])
        return self._f_low[key]

    def dg_block(self, k, i):
        key = (k, i)
        if key not in self._dg_block:
            self._dg_block[key] = _block_values(
                self.grid, self.bank.phi[k] * self.ghat_d[i]
            )
        return self._dg_block[key]

    def dg_low(self, j, i):
        key = (j, i)
        if key not in self._dg_low:
            self._dg_low[key] = _block_values(self.grid, self.bank.chi[j] * self.ghat_d[i])
        return self._dg_low[key]

    # -- k-independent product sums ------------------------------------------

    def p1(self, kp):
        """sum_i P_K( S_{kp-1} f_i * d_i Delta_{kp} g )"""
        if kp not in self._p1:
            acc = self._zeros()
            for i in range(self.d):
                _add_product(acc, self.grid, self.f_low(kp - 1, i), self.dg_block(kp, i))
            self._p1[kp] = acc
        return self._p1[kp]

    def q(self, kp):
        """sum_i P_K( S_{kp-1} d_i g * Delta_{kp} f_i )"""
        if kp not in self._q:
            acc = self._zeros()
            for i in range(self.d):
                _add_product(acc, self.grid, self.dg_low(kp - 1, i), self.f_block(kp, i))
            self._q[kp] = acc
        return self._q[kp]

    def p2(self, kp):
        """sum_i P_K( Delta_{kp} f_i * d_i Delta~_{kp} g )"""
        if kp not in self._p2:
            grid = self.grid
            acc = self._zeros()
            for i in range(self.d):
                blk = self.f_block(kp, i)
                if blk is None:
                    continue
                near = (
                    self.dg_block(kp + d, i)
                    for d in (-1, 0, 1)
                    if grid.j0 <= kp + d <= grid.j_max
                )
                tilde = [t for t in near if t is not None]
                if tilde:
                    acc += _masked_product(grid, blk, sum(tilde))
            self._p2[kp] = acc
        return self._p2[kp]

    # -- assembly -------------------------------------------------------------

    def direct_family(self):
        """f . grad Delta_k g - Delta_k (f . grad g) for every shell k,
        spectral coefficients keyed by k."""
        grid = self.grid
        whole = self._zeros()
        for i in range(self.d):
            _add_product(
                whole, grid, self.f_phys[i], _block_values(grid, self.ghat_d[i])
            )
        out = {}
        for k in grid.js:
            acc = self._zeros()
            for i in range(self.d):
                _add_product(acc, grid, self.f_phys[i], self.dg_block(k, i))
            acc -= self.bank.phi[k] * whole
            out[k] = acc
        return out

    def split(self, k):
        """Return coefficient arrays (I, II, III, IV) for shell k."""
        grid, bank, d = self.grid, self.bank, self.d
        j0, j_max = grid.j0, grid.j_max

        # I: sum_{k'~k} [S_{k'-1} f_i, Delta_k] d_i Delta_{k'} g.  The first
        # (paraproduct-of-block) piece survives only for |k'-k| <= 1.
        term_i = self._zeros()
        for kp in range(max(j0 + 1, k - 1), min(j_max, k + 1) + 1):
            for i in range(d):
                if self.f_low(kp - 1, i) is None:
                    continue
                blk = _block_values(grid, bank.phi[k] * bank.phi[kp] * self.ghat_d[i])
                _add_product(term_i, grid, self.f_low(kp - 1, i), blk)
        for kp in range(max(j0 + 1, k - 4), min(j_max, k + 4) + 1):
            term_i -= bank.phi[k] * self.p1(kp)

        # II: sum_{k'>=k-2} S_{k'+2}(Delta_k d_i g) Delta_{k'} f_i; for
        # k' >= k the low-pass factor is the identity on the block's support,
        # so those terms group into one high-pass product.
        term_ii = self._zeros()
        for kp in range(max(j0, k - 2), min(j_max, k - 1) + 1):
            for i in range(d):
                if self.f_block(kp, i) is None:
                    continue
                low = _block_values(grid, bank.chi[kp + 2] * bank.phi[k] * self.ghat_d[i])
                _add_product(term_ii, grid, low, self.f_block(kp, i))
        for i in range(d):
            if self.dg_block(k, i) is None:
                continue
            low = self.f_low(k, i)
            high = self.f_phys[i] if low is None else self.f_phys[i] - low
            term_ii += _masked_product(grid, self.dg_block(k, i), high)

        # III: -Delta_k sum_{k'~k} S_{k'-1}(d_i g) Delta_{k'} f_i
        term_iii = self._zeros()
        for kp in range(max(j0 + 1, k - 4), min(j_max, k + 4) + 1):
            term_iii -= bank.phi[k] * self.q(kp)

        # IV: -Delta_k sum_{k'>=k-3} Delta_{k'} f_i d_i Delta~_{k'} g
        term_iv = self._zeros()
        for kp in range(max(j0, k - 3), j_max + 1):
            term_iv -= bank.phi[k] * self.p2(kp)

        return term_i, term_ii, term_iii, term_iv


def _workspaces(f: RealField, g: RealField):
    _validate_advector(f)
    if f.grid != g.grid:
        raise SpectralError("grid mismatch between f and g")
    f = dealias(f)
    g = dealias(g)
    return [
        _CommutatorWorkspace(f, g.coeffs[c]) for c in range(g.ncomp)
    ]


def commutator_family(f: RealField, g: RealField) -> dict:
    """Direct commutators f . grad Delta_k g - Delta_k (f . grad g) for every
    shell k, sharing factor transforms; the reference values for the split.
    One shell is ``commutator_family(f, g)[k]``."""
    spaces = _workspaces(f, g)
    families = [ws.direct_family() for ws in spaces]
    return {
        k: RealField(f.grid, coeffs=np.stack([fam[k] for fam in families]))
        for k in f.grid.js
    }


def commutator_split_family(f: RealField, g: RealField) -> dict:
    """The four-term split for every shell k with shared precomputation;
    ``[k].total`` reconstructs ``commutator_family(f, g)[k]`` exactly."""
    spaces = _workspaces(f, g)
    out = {}
    for k in f.grid.js:
        parts = [ws.split(k) for ws in spaces]
        fields = [
            RealField(f.grid, coeffs=np.stack([p[t] for p in parts]))
            for t in range(4)
        ]
        out[k] = CommutatorSplit(k, *fields)
    return out
