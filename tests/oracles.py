"""Reference quantities that only the tests read: the partition-of-unity
defect of a filter bank and the L_inf operator-norm bound of the dyadic
blocks."""

import numpy as np

from lpmhd.spectral import FilterBank, _inverse, make_filter_bank


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
