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

The commutator reads its factors from one dyadic-block cache per pair
(`_Blocks`), which stacks the spectra of all the pair's factors, f_1..f_d
and d_1 g..d_d g, on one layout; a Bony operator keeps one cache per
argument.  A cache gives each factor's values of Delta_j a and S_j a, each
shell and low pass computed for all its factors on first use, and None for
a factor whose coefficients there are all zero, which is then never
transformed or multiplied.  A shell is the shell sweep's product
`spectral._shell_product` over the stack, its box rule decided once per
cache, and the nonempty factors' slices of it are inverted by one
`_inverse` call; so are the S_{j0} and chi_j low passes.  The term I and
II factors take one `_nonzero_inverse` each.  Leading axes of a spectrum
are batch axes.  The paraproduct piece P_K(S_{j-1}a Delta_j b) and the
remainder piece P_K(Delta_j a Delta~_j b) are summed over j by
`paraproduct` and `remainder`, and over the components i of (f_i, d_i g)
by the commutator split for terms I, III and IV.  `bony_reconstruction`
shares one cache per argument across all its terms, and
inverse-transforms every S_j a from chi_j.  The commutator keeps one
workspace per (f, g), with g's components on the batch axis, so every f_i
block is transformed once and shared by all components of g.  Both
families read it: a one-slot cache holds the last pair's workspace while
both fields live, so the split family of the pair the direct family just
measured transforms no block again.  In the workspace
S_j a = S_{j-1} a + Delta_{j-1} a is summed in physical space for j > j0,
from blocks already transformed; only S_{j0} a is inverse-transformed.  The
values of f_i and of the whole d_i g are their top low passes S_{j_max+1},
so they too are sums of blocks.

Layout.  The workspace and the Bony operators' caches dealias their inputs
and pick one layout for the pair (`_on_one_layout`).  A finite dealiased
spectrum is exactly zero outside the 2/3 cube |xi_i| <= N/3, so a pair
whose coefficients are all finite is gathered to the cube once (f, g, and
d_i g formed there), and everything after runs on cube arrays: the blocks
take the cube's box rule, the low passes, the multipliers phi_k and chi_j
and the term I and II factors read the filter bank gathered to the cube
(`spectral._layout_bank`), every inverse is a pruned one of the cube's
half-width, every product sum is forward-transformed to the cube alone
(the cube is the dealias mask), and the window sums add cube arrays.  The
public functions scatter each cube result into a zeroed full array once.
The cube entries have the bits of the full-lattice computation, and the
modes outside it are +0.  A pair with a NaN or an infinity stays on the
full half spectrum, where a NaN outside the cube still reaches every
product: a gather would drop it.

P_K and the transform are linear, so the commutator adds up in physical
space the products that feed one output and forward-transforms each sum
once: f . grad g, each direct shell, each per-shell entry of the
paraproduct and remainder sums, and the product parts of terms I and II at
each k.  Terms I, III and IV subtract phi_k times the sum over their k'
window, each window summed in place in one new array with the bits of the
builtin ``sum``.  The Bony operators pass one pair per piece, so they keep
one transform per piece, with the bits of P_K(a * b).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .spectral import (
    RealField,
    SpectralError,
    _block_boxes,
    _cube_width,
    _forward,
    _gather,
    _inverse,
    _layout_bank,
    _nonzero_inverse,
    _partial,
    _require_solenoidal,
    _scatter,
    _shell_product,
    dealias,
    dealias_mask,
)


def _on_one_layout(grid, *coeffs) -> list:
    """Dealiased spectra on one layout: all gathered to the 2/3 cube when
    all are finite, since a finite dealiased spectrum is exactly zero
    outside it, and otherwise all left on the full half spectrum, because a
    gather would drop a NaN outside the cube (the check sums the
    coefficients: an overflow only costs the cube)."""
    if all(np.isfinite(c.sum()) for c in coeffs):
        return [_gather(grid, c) for c in coeffs]
    return list(coeffs)


def _field(grid, c: np.ndarray) -> RealField:
    """A result as a field on the full half spectrum, a cube one scattered
    into zeros (a bare spectrum gains the component axis)."""
    return RealField(grid, coeffs=c if _cube_width(grid, c) is None else _scatter(grid, c))


def _projected(grid, values: np.ndarray, k) -> np.ndarray:
    """P_K of physical values, as coefficients on the layout of half-width
    k (`_cube_width`): on the 2/3 cube the pruned forward, the cube being
    the dealias mask; on the full half spectrum the full forward times the
    mask.  The cube entries are the same bits either way."""
    piece = _forward(grid, values, k)
    if k is None:
        piece *= dealias_mask(grid)
    return piece


def _add_products(acc: np.ndarray, grid, pairs):
    """acc += P_K(sum of a * b over the pairs), skipping pairs with an empty
    factor, with acc on either layout.  P_K and the transform are linear, so
    the products are added up in physical space and the sum is
    forward-transformed once; a single pair gives the bits of
    ``P_K(a * b)``."""
    total = None
    for a, b in pairs:
        if a is None or b is None:
            continue
        if total is None:
            total = a * b
        else:
            total += a * b
    if total is not None:
        acc += _projected(grid, total, _cube_width(grid, acc))


class _Blocks:
    """The dyadic blocks of several factors a_1, a_2, .. stacked on one
    layout, the 2/3 cube or the full half spectrum (`_cube_width`), each
    factor batched over its own leading axes: ``block(j)`` gives, per
    factor, the values of Delta_j a or None, and ``low(j)`` those of S_j a,
    each shell and low pass computed for all factors on first use.  A
    factor's block is None when its coefficients on the shell are all
    exactly zero; it is then never transformed or multiplied.  A shell is
    one product over the stack (`_shell_product`, on its box for the shells
    `_block_boxes` picks for the layout: on the cube every shell box inside
    it, the rest on the whole cube), and the nonempty factors' slices of it
    are inverted by one `_inverse` call.  So is a low pass, from chi_j on
    the layout (`_layout_bank`), unless `telescoped`: then
    S_j a = S_{j-1} a + Delta_{j-1} a for j > j0, summed in physical space.
    That is exact on the multipliers, phi_{j-1} = chi_j - chi_{j-1}, and
    equal to the transform of chi_j a up to round-off.  Batching keeps each
    slice's bits.  `_Factor(blocks, i)` reads the i-th factor.  The
    memos are plain dicts, so a dropped cache holds no reference cycle and
    is freed at once."""

    def __init__(self, grid, factors, telescoped: bool = False):
        d = grid.dimension
        self.grid = grid
        self.telescoped = telescoped
        self.shapes = [a.shape[:-d] for a in factors]
        flat = [a.reshape((-1,) + a.shape[-d:]) for a in factors]
        ends = itertools.accumulate(len(a) for a in flat)
        self.rows = [slice(end - len(a), end) for a, end in zip(flat, ends)]
        self.coeffs = np.concatenate(flat)
        self.width = _cube_width(grid, self.coeffs)
        self.bank = _layout_bank(grid, self.coeffs)
        self._boxes = _block_boxes(grid, self.coeffs)
        self._blocks, self._lows = {}, {}

    def _values(self, spectrum: np.ndarray, k) -> list:
        """Per factor, the inverse of its rows of the stacked `spectrum`
        (half-width k), or None when they are all exactly zero; the rows of
        the other factors are inverted by one `_inverse` call."""
        live = [bool(spectrum[rows].any()) for rows in self.rows]
        if not any(live):
            return [None] * len(live)
        if not all(live):
            spectrum = np.concatenate([spectrum[r] for r, x in zip(self.rows, live) if x])
        values = _inverse(self.grid, spectrum, k)
        out, start = [], 0
        for rows, shape, x in zip(self.rows, self.shapes, live):
            if x:
                stop = start + rows.stop - rows.start
                out.append(values[start:stop].reshape(shape + self.grid.shape))
                start = stop
            else:
                out.append(None)
        return out

    def block(self, j: int) -> list:
        if j not in self._blocks:
            self._blocks[j] = self._values(*_shell_product(self.grid, self.coeffs, j, self._boxes))
        return self._blocks[j]

    def low(self, j: int) -> list:
        if j not in self._lows:
            if self.telescoped and j > self.grid.j0:
                self._lows[j] = [
                    blk if low is None else low if blk is None else low + blk
                    for low, blk in zip(self.low(j - 1), self.block(j - 1))
                ]
            else:
                self._lows[j] = self._values(self.bank.chi[j] * self.coeffs, self.width)
        return self._lows[j]


class _Factor:
    """Factor i of a `_Blocks` cache: its spectrum, and the values of its
    blocks and low passes, read from the shared cache."""

    def __init__(self, blocks: _Blocks, i: int):
        self.blocks, self.i, self.grid = blocks, i, blocks.grid
        self.coeffs = blocks.coeffs[blocks.rows[i]].reshape(
            blocks.shapes[i] + blocks.coeffs.shape[1:]
        )

    def block(self, j: int):
        return self.blocks.block(j)[self.i]

    def low(self, j: int):
        return self.blocks.low(j)[self.i]


def _paraproduct_factors(a: _Factor, b: _Factor, j: int):
    """The factors (S_{j-1}a, Delta_j b) of the paraproduct piece at j."""
    return a.low(j - 1), b.block(j)


def _window_sum(arrays):
    """The builtin ``sum`` of a nonempty sequence of arrays, with its bits
    (0 + first, then each next added in order), accumulated in place in one
    new array."""
    arrays = iter(arrays)
    out = 0 + next(arrays)
    for x in arrays:
        out += x
    return out


def _remainder_factors(a: _Factor, b: _Factor, j: int):
    """The factors (Delta_j a, Delta~_j b) of the remainder piece at j,
    Delta~_j b the sum of the nonempty blocks j-1, j, j+1 of b; b's blocks
    are not transformed when Delta_j a is empty."""
    grid = a.grid
    blk = a.block(j)
    if blk is None:
        return None, None
    near = (b.block(j + d) for d in (-1, 0, 1) if grid.j0 <= j + d <= grid.j_max)
    tilde = [t for t in near if t is not None]
    return blk, (_window_sum(tilde) if tilde else None)


def _sum_pieces(factors, pairs, js) -> np.ndarray:
    """sum over j in js of P_K(sum over (a, b) in pairs of the product of
    factors(a, b, j)): one forward transform per j, none for an empty
    piece; shaped like the factors' broadcast."""
    shape = np.broadcast_shapes(*(x.coeffs.shape for pair in pairs for x in pair))
    acc = np.zeros(shape, dtype=complex)
    grid = pairs[0][0].grid
    for j in js:
        _add_products(acc, grid, (factors(a, b, j) for a, b in pairs))
    return acc


def _scalar_blocks(u: RealField, v: RealField):
    """One block cache per dealiased argument of a Bony operator, both on
    one layout (`_on_one_layout`), each read as its one factor."""
    if u.grid != v.grid:
        raise SpectralError("grid mismatch between paraproduct arguments")
    if not (u.is_scalar and v.is_scalar):
        raise SpectralError("paraproduct operations expect scalar fields")
    grid = u.grid
    a, b = _on_one_layout(grid, dealias(u).coeffs[0], dealias(v).coeffs[0])
    return _Factor(_Blocks(grid, [a]), 0), _Factor(_Blocks(grid, [b]), 0)


def _paraproduct(a: _Factor, b: _Factor) -> np.ndarray:
    grid = a.grid
    return _sum_pieces(_paraproduct_factors, [(a, b)], range(grid.j0 + 1, grid.j_max + 1))


def _remainder(a: _Factor, b: _Factor) -> np.ndarray:
    return _sum_pieces(_remainder_factors, [(a, b)], a.grid.js)


def _base_terms(a: _Factor, b: _Factor) -> np.ndarray:
    grid, j0 = a.grid, a.grid.j0

    def product(x, y):
        if x is None or y is None:
            return np.zeros(a.coeffs.shape, dtype=complex)
        return _projected(grid, x * y, a.blocks.width)

    p0a, p0b = a.low(j0), b.low(j0)
    s1a, s1b = a.low(j0 + 1), b.low(j0 + 1)
    # (-1.0) * as in RealField subtraction, which fixes the sign of zeros
    return product(p0a, s1b) + product(s1a, p0b) + (-1.0) * product(p0a, p0b)


def paraproduct(u: RealField, v: RealField) -> RealField:
    """T_u v = sum_{j=j0+1}^{j_max} S_{j-1}u Delta_j v, dealiased."""
    return _field(u.grid, _paraproduct(*_scalar_blocks(u, v)))


def remainder(u: RealField, v: RealField) -> RealField:
    """R(u, v) = sum_j Delta_j u (Delta_{j-1}+Delta_j+Delta_{j+1}) v over the
    available shell range, dealiased; symmetric in (u, v)."""
    return _field(u.grid, _remainder(*_scalar_blocks(u, v)))


def bony_reconstruction(u: RealField, v: RealField) -> RealField:
    """T_u v + T_v u + R(u, v) + base terms; equals the dealiased product."""
    a, b = _scalar_blocks(u, v)
    total = _paraproduct(a, b) + _paraproduct(b, a) + _remainder(a, b) + _base_terms(a, b)
    return _field(u.grid, total)


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


class _CommutatorWorkspace:
    """Shared per-(f, g) precomputations for both commutator families: one
    block cache of every f_i and every d_i g (`blocks`, read through the
    factors `f` and `dg`), with telescoped low passes, so assembling all k
    reuses the same physical-space factors, inverts each shell of all
    factors at once and never transforms an empty block.  The components of
    g ride a leading batch axis, so f's blocks are transformed once whatever
    g's component count.

    The dealiased pair takes one layout (`_on_one_layout`): a finite pair
    is gathered to the 2/3 cube once, and every product, multiplier, window
    sum and family array is then a cube array, the products forward-
    transformed and the term I and II factors inverted by pruned
    transforms of the cube's half-width; a non-finite pair stays on the
    full half spectrum.  The families come out on that layout."""

    def __init__(self, f: RealField, g: RealField):
        _require_solenoidal(f, "advecting field f")
        if f.grid != g.grid:
            raise SpectralError("grid mismatch between f and g")
        grid = f.grid
        fc, gc = _on_one_layout(grid, dealias(f).coeffs, dealias(g).coeffs)
        self.grid = grid
        self.shape = gc.shape
        self.width = _cube_width(grid, gc)
        self.bank = _layout_bank(grid, gc)
        self.d = d = grid.dimension
        self.blocks = _Blocks(
            grid, list(fc) + [_partial(grid, gc, i) for i in range(d)], telescoped=True
        )
        self.f = [_Factor(self.blocks, i) for i in range(d)]
        self.dg = [_Factor(self.blocks, d + i) for i in range(d)]
        # S_{j_max+1} is the identity on the lattice
        self.top = grid.j_max + 1

    def _zeros(self):
        return np.zeros(self.shape, dtype=complex)

    def direct_family(self):
        """f . grad Delta_k g - Delta_k (f . grad g) for every shell k,
        spectral coefficients keyed by k: one forward transform for the
        whole f . grad g and one per nonempty shell.  f_i and the whole
        d_i g are their top low passes, sums of blocks that the split family
        reads too."""
        grid, d, top = self.grid, self.d, self.top
        f = [self.f[i].low(top) for i in range(d)]
        whole = self._zeros()
        _add_products(whole, grid, ((f[i], self.dg[i].low(top)) for i in range(d)))
        out = {}
        for k in grid.js:
            acc = self._zeros()
            _add_products(acc, grid, ((f[i], self.dg[i].block(k)) for i in range(d)))
            acc -= self.bank.phi[k] * whole
            out[k] = acc
        return out

    def split_family(self):
        """Coefficient arrays (I, II, III, IV) for every shell k.

        The k-independent product sums are built once per shell k', each
        with one forward transform:
        p1 = P_K sum_i S_{k'-1} f_i * d_i Delta_{k'} g,
        q  = P_K sum_i S_{k'-1} d_i g * Delta_{k'} f_i and
        p2 = P_K sum_i Delta_{k'} f_i * d_i Delta~_{k'} g.
        """
        grid = self.grid
        fg = list(zip(self.f, self.dg))
        gf = list(zip(self.dg, self.f))
        highs = range(grid.j0 + 1, grid.j_max + 1)
        p1 = {kp: _sum_pieces(_paraproduct_factors, fg, [kp]) for kp in highs}
        q = {kp: _sum_pieces(_paraproduct_factors, gf, [kp]) for kp in highs}
        p2 = {kp: _sum_pieces(_remainder_factors, fg, [kp]) for kp in grid.js}
        return {k: self._split(k, p1, q, p2) for k in grid.js}

    def _term_i_pairs(self, k):
        """Factors of sum_{|k'-k|<=1} S_{k'-1} f_i * Delta_k d_i Delta_{k'} g;
        the block is not transformed when the low pass is empty."""
        grid, bank = self.grid, self.bank
        for kp in range(max(grid.j0 + 1, k - 1), min(grid.j_max, k + 1) + 1):
            for i in range(self.d):
                low = self.f[i].low(kp - 1)
                if low is not None:
                    coeffs = bank.phi[k] * bank.phi[kp] * self.dg[i].coeffs
                    yield low, _nonzero_inverse(grid, coeffs, self.width)

    def _term_ii_pairs(self, k):
        """Factors of sum_{k'>=k-2} S_{k'+2}(Delta_k d_i g) Delta_{k'} f_i; for
        k' >= k the low-pass factor is the identity on the block's support,
        so those terms group into one high-pass product per i."""
        grid, bank = self.grid, self.bank
        for kp in range(max(grid.j0, k - 2), min(grid.j_max, k - 1) + 1):
            for i in range(self.d):
                blk = self.f[i].block(kp)
                if blk is not None:
                    coeffs = bank.chi[kp + 2] * bank.phi[k] * self.dg[i].coeffs
                    yield _nonzero_inverse(grid, coeffs, self.width), blk
        for i in range(self.d):
            dg_k = self.dg[i].block(k)
            if dg_k is not None:
                f_i, low = self.f[i].low(self.top), self.f[i].low(k)
                yield dg_k, (f_i if low is None else f_i - low)

    def _split(self, k, p1, q, p2):
        grid, phi_k = self.grid, self.bank.phi[k]
        near = range(max(grid.j0 + 1, k - 4), min(grid.j_max, k + 4) + 1)
        # (-phi_k) * window, not -(phi_k * window): that would flip the sign
        # of zero products
        minus_phi_k = -phi_k

        # I: sum_{k'~k} [S_{k'-1} f_i, Delta_k] d_i Delta_{k'} g.  The first
        # (paraproduct-of-block) piece survives only for |k'-k| <= 1.
        term_i = self._zeros()
        _add_products(term_i, grid, self._term_i_pairs(k))
        window = _window_sum(p1[kp] for kp in near)
        term_i -= np.multiply(phi_k, window, out=window)

        # II: sum_{k'>=k-2} S_{k'+2}(Delta_k d_i g) Delta_{k'} f_i
        term_ii = self._zeros()
        _add_products(term_ii, grid, self._term_ii_pairs(k))

        # III: -Delta_k sum_{k'~k} S_{k'-1}(d_i g) Delta_{k'} f_i
        window = _window_sum(q[kp] for kp in near)
        term_iii = np.multiply(minus_phi_k, window, out=window)

        # IV: -Delta_k sum_{k'>=k-3} Delta_{k'} f_i d_i Delta~_{k'} g
        above = range(max(grid.j0, k - 3), grid.j_max + 1)
        window = _window_sum(p2[kp] for kp in above)
        term_iv = np.multiply(minus_phi_k, window, out=window)

        return term_i, term_ii, term_iii, term_iv


# the last pair's workspace, as (weak reference to f, to g, workspace)
_last = None


def _forget(_ref):
    """Weak-reference callback: a field of the cached pair was freed."""
    global _last
    _last = None


def _workspace(f: RealField, g: RealField) -> _CommutatorWorkspace:
    """The workspace of (f, g), shared by both families of the pair.  One
    slot holds the last pair's workspace and refers to the pair weakly, so
    it empties as soon as either field is freed (a lab trial's fields die
    with the trial) and a freed field's id can never match.  Fields are
    immutable, so a pair's workspace stays valid while it is cached."""
    global _last
    if _last is None or _last[0]() is not f or _last[1]() is not g:
        _last = None  # free the old workspace before the new one fills
        ws = _CommutatorWorkspace(f, g)
        _last = (weakref.ref(f, _forget), weakref.ref(g, _forget), ws)
    return _last[2]


def commutator_family(f: RealField, g: RealField) -> dict:
    """Direct commutators f . grad Delta_k g - Delta_k (f . grad g) for every
    shell k, sharing factor transforms; the reference values for the split.
    One shell is ``commutator_family(f, g)[k]``."""
    family = _workspace(f, g).direct_family()
    return {k: _field(f.grid, acc) for k, acc in family.items()}


def commutator_split_family(f: RealField, g: RealField) -> dict:
    """The four-term split for every shell k with shared precomputation;
    ``[k].total`` reconstructs ``commutator_family(f, g)[k]`` exactly."""
    family = _workspace(f, g).split_family()
    return {
        k: CommutatorSplit(k, *(_field(f.grid, t) for t in terms))
        for k, terms in family.items()
    }
