"""Reference quantities that only the tests read: the partition-of-unity
defect of a filter bank, the L_inf operator-norm bound of the dyadic
blocks, the explicit forms of lattice tables, first-order operators and
initial data that the package derives from one source, a frozen
diagnostics record, a frozen RK4 step, the frozen Plancherel energy
kernel, and the frozen full-lattice commutator families and Bony
operators."""

import math

import numpy as np

from lpmhd.diagnostics import DiagnosticsRecord
from lpmhd.mhd import ElsasserState, _divergence, _rk4
from lpmhd.spaces import tl_norm
from lpmhd.spectral import (
    FilterBank,
    RealField,
    _forward,
    _gather,
    _inverse,
    _leray_complement,
    _nonzero_inverse,
    _partial,
    _scatter,
    dealias,
    dealias_mask,
    from_function,
    make_filter_bank,
)


def partition_defect(bank: FilterBank) -> float:
    """max over the lattice of |chi_{j0} + sum_j phi_j - 1|."""
    total = bank.chi[bank.j0].copy()
    for j in range(bank.j0, bank.j_max + 1):
        total = total + bank.phi[j]
    return float(np.max(np.abs(total - 1.0)))


def block_kernel_constant(grid) -> float:
    """max_j of the l1 norm of the Delta_j convolution kernel: the L_inf
    operator norm bounding ||Delta_j f||_inf <= C ||f||_inf."""
    bank = make_filter_bank(grid)
    kernels = _inverse(grid, np.stack([bank.phi[j] for j in grid.js]).astype(complex))
    return max(float(np.sum(np.abs(kernel))) for kernel in kernels)


def frequencies_by_axis(grid):
    """The integer frequency arrays, each reshaped on its own axis."""
    d, n = grid.dimension, grid.points
    full = np.fft.fftfreq(n, 1.0 / n)
    half = np.arange(n // 2 + 1, dtype=float)
    out = []
    for axis in range(d):
        f = half if axis == d - 1 else full
        shape = [1] * d
        shape[axis] = f.size
        out.append(f.reshape(shape))
    return out


def dealias_mask_by_axis(grid):
    mask = np.ones((1,) * grid.dimension, dtype=bool)
    for f in frequencies_by_axis(grid):
        mask = mask & (np.abs(f) <= grid.dealias_limit)
    return mask


def half_lattice_modes_by_mask(dimension, kmax):
    """The modes with 0 < |xi|_inf <= kmax whose first nonzero entry is
    positive, each axis's condition ORed in turn, in lexsort order."""
    mesh = np.meshgrid(*[np.arange(-kmax, kmax + 1)] * dimension, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.zeros(len(flat), dtype=bool)
    for a in range(dimension):
        higher_zero = np.ones(len(flat), dtype=bool)
        for b in range(a):
            higher_zero &= flat[:, b] == 0
        keep |= higher_zero & (flat[:, a] > 0)
    modes = flat[keep]
    return modes[np.lexsort(tuple(modes[:, a] for a in reversed(range(dimension))))]


def divergence_coeffs(v):
    freqs, c = frequencies_by_axis(v.grid), v.coeffs
    return sum(1j * freqs[a] * c[a] for a in range(v.grid.dimension))[np.newaxis]


def curl_coeffs(v):
    """d1 v2 - d2 v1 in 2D, the vector curl in 3D, written out."""
    freqs, c = frequencies_by_axis(v.grid), v.coeffs
    if v.grid.dimension == 2:
        return (1j * freqs[0] * c[1] - 1j * freqs[1] * c[0])[np.newaxis]
    return np.stack([
        1j * freqs[1] * c[2] - 1j * freqs[2] * c[1],
        1j * freqs[2] * c[0] - 1j * freqs[0] * c[2],
        1j * freqs[0] * c[1] - 1j * freqs[1] * c[0],
    ])


def jacobian_coeffs(v):
    freqs, c = frequencies_by_axis(v.grid), v.coeffs
    return np.stack([1j * freqs[b] * c[a]
                     for a in range(v.ncomp) for b in range(v.grid.dimension)])


def riesz_coeffs(f, axis):
    """i xi_axis / |xi| times f's coefficients, the mean mode sent to 0."""
    freqs = frequencies_by_axis(f.grid)
    r = np.sqrt(sum(x**2 for x in freqs))
    mult = np.where(r == 0.0, 0.0, 1j * freqs[axis] / np.where(r == 0.0, 1.0, r))
    return f.coeffs * mult


def taylor_green_by_function(grid, amplitude=1.0):
    """Taylor-Green velocity values, sampled through `from_function`."""
    return from_function(
        grid,
        lambda x, y: -amplitude * np.cos(x) * np.sin(y),
        lambda x, y: amplitude * np.sin(x) * np.cos(y),
    ).values


def orszag_tang_by_function(grid, amplitude=1.0):
    """Orszag-Tang (u, b) values, sampled through `from_function`."""
    u = from_function(grid, lambda x, y: -amplitude * np.sin(y),
                      lambda x, y: amplitude * np.sin(x))
    b = from_function(grid, lambda x, y: -amplitude * np.sin(y),
                      lambda x, y: amplitude * np.sin(2.0 * x))
    return u.values, b.values


def diagnostics_record(state, specs=(), prev=None):
    """The diagnostics record of `state` from full-lattice forms only,
    frozen to the bits the record has always had: (u, b) by field
    arithmetic, the curls written out, every dyadic block of the stacked
    curls one full inverse of its full product, each gradient sup one
    batched inverse of the Jacobian summed over axis 0, and the energies
    from the grid values."""
    grid = state.grid
    zp, zm = state.z_plus, state.z_minus
    u, b = 0.5 * (zp + zm), 0.5 * (zp - zm)
    curls = np.concatenate([curl_coeffs(u), curl_coeffs(b)])
    nc = len(curls) // 2
    sup_all, sup_u, sup_b = [], [], []
    for j in grid.js:
        sq = np.square(_inverse(grid, curls * make_filter_bank(grid).phi[j]))
        sup_all.append(math.sqrt(sq.sum(axis=0).max()))
        sup_u.append(math.sqrt(sq[:nc].sum(axis=0).max()))
        sup_b.append(math.sqrt(sq[nc:].sum(axis=0).max()))
    integrand = float(np.max(sup_all))

    def grad_sup(z):
        return float(np.sqrt(np.square(_inverse(grid, jacobian_coeffs(z))).sum(axis=0).max()))

    ep = float(np.mean(np.sum(zp.values**2, axis=0)))
    em = float(np.mean(np.sum(zm.values**2, axis=0)))
    integral = 0.0
    if prev is not None:
        integral = prev.blowup_integral + 0.5 * (state.t - prev.t) * (
            prev.blowup_integrand + integrand)
    return DiagnosticsRecord(
        t=state.t,
        energy=0.5 * (ep + em),
        cross_helicity=0.25 * (ep - em),
        grad_sup_z_plus=grad_sup(zp),
        grad_sup_z_minus=grad_sup(zm),
        blowup_integrand=integrand,
        blowup_integral=integral,
        block_sup_curl_u=tuple(sup_u),
        block_sup_curl_b=tuple(sup_b),
        norms={spec.label: tl_norm(zp, spec) + tl_norm(zm, spec) for spec in specs},
    )


def elsasser_step(state, dt):
    """One RK4 step of the Elsasser system by the full-buffer path, frozen
    to the bits the step has always had: the pair copied into a full
    stacked buffer, each stage's cube written into it and inverse-transformed
    by one full irfftn, the dyads' cube gathered from one full rfftn, and
    the new cube written into the buffer, whose other modes pass through."""
    grid = state.grid
    zp, zm = state.z_plus, state.z_minus
    full = np.stack([zp.coeffs, zm.coeffs])

    def tendency(a, b):
        m = _gather(grid, _forward(grid, a[:, np.newaxis] * b[np.newaxis, :]))
        out = np.empty((2,) + m.shape[1:], dtype=m.dtype)
        for side, dyads in zip(out, (m, m.swapaxes(0, 1))):
            _divergence(grid, dyads, side)
        out -= _leray_complement(grid, out[0])
        return out

    def rhs(y):
        return tendency(*_inverse(grid, _scatter(grid, y, full)))

    k1 = tendency(zp.values, zm.values)
    _scatter(grid, _rk4(_gather(grid, full), k1, dt, rhs), full)
    return ElsasserState(
        RealField(grid, coeffs=full[0], solenoidal=zp.solenoidal),
        RealField(grid, coeffs=full[1], solenoidal=zm.solenoidal),
        state.t + dt,
    )


def realized_energy(grid, coeffs):
    """`spectral._realized_energy` frozen to the bits it has always had: the
    energy summed over components, with the xi_d = 0 and N/2 planes replaced
    by the energy of their Hermitian part (c(xi) + conj c(-xi)) / 2, the
    mirror index built on each call."""

    def energy(c):
        return (np.square(c.real) + np.square(c.imag)).sum(axis=0)

    out = energy(coeffs)
    mirror = np.ix_(*[(-np.arange(grid.points)) % grid.points] * (grid.dimension - 1))
    edges = coeffs[..., [0, -1]]
    out[..., [0, -1]] = energy(0.5 * (edges + np.conj(edges[(slice(None),) + mirror])))
    return out.ravel()


# ---------------------------------------------------------------------------
# paracalc on the full half spectrum
# ---------------------------------------------------------------------------


class _FullBlocks:
    """Delta_j a and S_j a of a full half spectrum a, each one full inverse
    of its filter-bank product on first use (a low pass above j0 summed
    from the blocks when telescoped), None when its product is zero."""

    def __init__(self, grid, coeffs, telescoped=False):
        self.grid, self.coeffs, self.telescoped = grid, coeffs, telescoped
        self.bank = make_filter_bank(grid)
        self._blocks, self._lows = {}, {}

    def block(self, j):
        if j not in self._blocks:
            self._blocks[j] = _nonzero_inverse(self.grid, self.bank.phi[j] * self.coeffs)
        return self._blocks[j]

    def low(self, j):
        if j not in self._lows:
            if self.telescoped and j > self.grid.j0:
                parts = [x for x in (self.low(j - 1), self.block(j - 1)) if x is not None]
                self._lows[j] = sum(parts[1:], parts[0]) if parts else None
            else:
                self._lows[j] = _nonzero_inverse(self.grid, self.bank.chi[j] * self.coeffs)
        return self._lows[j]


def _masked_forward(grid, values):
    piece = _forward(grid, values)
    piece *= dealias_mask(grid)
    return piece


def _add_full_products(acc, grid, pairs):
    """acc += the full rfftn of the sum of the pairs' products, times the
    mask; a pair with an empty factor is skipped."""
    total = None
    for a, b in pairs:
        if a is not None and b is not None:
            total = a * b if total is None else total + a * b
    if total is not None:
        acc += _masked_forward(grid, total)


def _low_block(a, b, j):
    return a.low(j - 1), b.block(j)


def _block_tilde(a, b, j):
    grid = a.grid
    blk = a.block(j)
    if blk is None:
        return None, None
    near = [b.block(j + d) for d in (-1, 0, 1) if grid.j0 <= j + d <= grid.j_max]
    tilde = [t for t in near if t is not None]
    return blk, (sum(tilde) if tilde else None)


def _full_pieces(factors, pairs, js):
    shape = np.broadcast_shapes(*(x.coeffs.shape for pair in pairs for x in pair))
    acc = np.zeros(shape, dtype=complex)
    grid = pairs[0][0].grid
    for j in js:
        _add_full_products(acc, grid, (factors(a, b, j) for a, b in pairs))
    return acc


def commutator_families(f, g):
    """(direct, split) of (f, g) by the full-lattice workspace, frozen to
    the bits the families have always had: the dealiased pair on the full
    half spectrum, every product sum one full rfftn times the mask, every
    block, chi low pass and term I and II factor one full inverse of its
    filter-bank product, and the low passes above j0 telescoped.  direct
    maps k to its coefficients, split maps k to (I, II, III, IV)."""
    grid, d = f.grid, f.grid.dimension
    f, g = dealias(f), dealias(g)
    bank, shape, top = make_filter_bank(grid), g.coeffs.shape, grid.j_max + 1
    fb = [_FullBlocks(grid, f.coeffs[i], telescoped=True) for i in range(d)]
    gb = [_FullBlocks(grid, _partial(grid, g.coeffs, i), telescoped=True) for i in range(d)]

    whole = np.zeros(shape, dtype=complex)
    _add_full_products(whole, grid, ((fb[i].low(top), gb[i].low(top)) for i in range(d)))
    direct = {}
    for k in grid.js:
        acc = np.zeros(shape, dtype=complex)
        _add_full_products(acc, grid, ((fb[i].low(top), gb[i].block(k)) for i in range(d)))
        acc -= bank.phi[k] * whole
        direct[k] = acc

    fg, gf = list(zip(fb, gb)), list(zip(gb, fb))
    highs = range(grid.j0 + 1, grid.j_max + 1)
    p1 = {kp: _full_pieces(_low_block, fg, [kp]) for kp in highs}
    q = {kp: _full_pieces(_low_block, gf, [kp]) for kp in highs}
    p2 = {kp: _full_pieces(_block_tilde, fg, [kp]) for kp in grid.js}

    def term_i_pairs(k):
        for kp in range(max(grid.j0 + 1, k - 1), min(grid.j_max, k + 1) + 1):
            for i in range(d):
                low = fb[i].low(kp - 1)
                if low is not None:
                    yield low, _nonzero_inverse(grid, bank.phi[k] * bank.phi[kp] * gb[i].coeffs)

    def term_ii_pairs(k):
        for kp in range(max(grid.j0, k - 2), min(grid.j_max, k - 1) + 1):
            for i in range(d):
                blk = fb[i].block(kp)
                if blk is not None:
                    coeffs = bank.chi[kp + 2] * bank.phi[k] * gb[i].coeffs
                    yield _nonzero_inverse(grid, coeffs), blk
        for i in range(d):
            dg_k = gb[i].block(k)
            if dg_k is not None:
                f_i, low = fb[i].low(top), fb[i].low(k)
                yield dg_k, (f_i if low is None else f_i - low)

    split = {}
    for k in grid.js:
        phi_k = bank.phi[k]
        near = range(max(grid.j0 + 1, k - 4), min(grid.j_max, k + 4) + 1)
        term_i = np.zeros(shape, dtype=complex)
        _add_full_products(term_i, grid, term_i_pairs(k))
        term_i -= phi_k * sum(p1[kp] for kp in near)
        term_ii = np.zeros(shape, dtype=complex)
        _add_full_products(term_ii, grid, term_ii_pairs(k))
        term_iii = -phi_k * sum(q[kp] for kp in near)
        above = range(max(grid.j0, k - 3), grid.j_max + 1)
        term_iv = -phi_k * sum(p2[kp] for kp in above)
        split[k] = (term_i, term_ii, term_iii, term_iv)
    return direct, split


def bony_operators(u, v):
    """T_u v, R(u, v) and the Bony reconstruction of two scalar fields by
    the full-lattice block caches, frozen like `commutator_families`, as
    coefficients (1,) + spectral_shape keyed by operator name."""
    grid, j0 = u.grid, u.grid.j0
    a, b = (_FullBlocks(grid, dealias(x).coeffs[0]) for x in (u, v))
    highs = range(j0 + 1, grid.j_max + 1)

    def product(x, y):
        if x is None or y is None:
            return np.zeros(grid.spectral_shape, dtype=complex)
        return _masked_forward(grid, x * y)

    para = _full_pieces(_low_block, [(a, b)], highs)
    rem = _full_pieces(_block_tilde, [(a, b)], grid.js)
    p0a, p0b, s1a, s1b = a.low(j0), b.low(j0), a.low(j0 + 1), b.low(j0 + 1)
    base = product(p0a, s1b) + product(s1a, p0b) + (-1.0) * product(p0a, p0b)
    total = para + _full_pieces(_low_block, [(b, a)], highs) + rem + base
    return {"paraproduct": para[np.newaxis], "remainder": rem[np.newaxis],
            "bony_reconstruction": total[np.newaxis]}
