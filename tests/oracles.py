"""Reference quantities that only the tests read: the partition-of-unity
defect of a filter bank, the L_inf operator-norm bound of the dyadic
blocks, and the explicit forms of lattice tables, first-order operators and
initial data that the package derives from one source."""

import numpy as np

from lpmhd.spectral import FilterBank, _inverse, from_function, make_filter_bank


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
