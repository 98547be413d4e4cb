"""Per-timestep scalar diagnostics: conserved quantities, gradient sup
norms, the blow-up integrand sup_j ||Delta_j (curl u, curl b)||_inf with its
running trapezoid integral, per-block curl sup norms, and the Gronwall
envelope fit.

A record decomposes the stacked curls (curl u, curl b) once, through the
shell sweep `spectral._shell_blocks`: one batched inverse transform per
nonempty dyadic shell, pruned to the shell's box for the small leading
shells, yields the per-shell sups of curl u and curl b and the stacked sup
whose maximum over shells is the blow-up integrand.  The stream continues
the trapezoid integral from the previous record's integrand, so nothing is
evaluated twice.  The gradient sup norms take one inverse per gradient
component (`spectral._gradient_sup`).  On grids of 2^15 points or more
(3D N >= 32, 2D N >= 256) they run on one helper thread that `record`
starts and joins before it returns, while the calling thread runs the shell
sweep; there is no option for it.  The record reads (caches) the state's
grid values, which the next RK4 step reuses.

The blow-up monitor only reports; it never terminates a run.  CSV columns
are emitted in the fixed order documented by `csv_columns`, one row per
record (`csv_header` and `csv_line` let a run stream them as it goes).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .mhd import ElsasserState, from_elsasser
from .spaces import tl_norm
from .spectral import (
    SpectralError,
    _gradient_sup,
    _shell_blocks,
    curl,
)


def _energy_and_cross_helicity(state: ElsasserState):
    """(energy, cross_helicity) from one evaluation of ||z+||_2^2 and
    ||z-||_2^2 under the normalized measure."""
    ep = float(np.mean(np.sum(state.z_plus.values**2, axis=0)))
    em = float(np.mean(np.sum(state.z_minus.values**2, axis=0)))
    return 0.5 * (ep + em), 0.25 * (ep - em)


def energy(state: ElsasserState) -> float:
    """(1/2)(||z+||_2^2 + ||z-||_2^2) = ||u||_2^2 + ||b||_2^2, normalized
    measure."""
    return _energy_and_cross_helicity(state)[0]


def cross_helicity(state: ElsasserState) -> float:
    """mean(u . b) = (1/4)(||z+||_2^2 - ||z-||_2^2)."""
    return _energy_and_cross_helicity(state)[1]


def curl_pair(state: ElsasserState):
    """(curl u, curl b): scalars in 2D, vectors in 3D."""
    u, b = from_elsasser(state)
    return curl(u), curl(b)


def _curl_shell_sups(grid, wu, wb):
    """Decompose the stacked curls (curl u, curl b) into dyadic blocks once
    and read every block quantity of a record from that single pass.

    Returns (integrand, sup_u, sup_b): the homogeneous F^0_{inf,inf} norm
    sup_j ||Delta_j (curl u, curl b)||_inf of the stacked curls, and the
    per-shell lists ||Delta_j curl u||_inf, ||Delta_j curl b||_inf.  Each
    shell is one block of all 2*nc curl components from the shell sweep
    (`spectral._shell_blocks`); pointwise magnitudes sum the squares of the
    first nc (u), the last nc (b) or all of them (the integrand).  A shell
    whose spectrum is exactly zero, such as shell j_max of a dealiased 2D
    state, has sups 0.0, the value its inverse would give, without a
    transform; a non-finite coefficient makes every sup NaN.
    """
    nc = wu.ncomp
    stacked = np.concatenate([wu.coeffs, wb.coeffs])
    sup_all, sup_u, sup_b = [], [], []
    for blk in _shell_blocks(grid, stacked):
        if blk is None:
            for sups in (sup_all, sup_u, sup_b):
                sups.append(0.0)
            continue
        np.square(blk, out=blk)
        total = blk[:nc].sum(axis=0)
        # sqrt is monotone, so sqrt(max) equals max(sqrt) exactly; for the
        # one-component curls of 2D, sqrt(x^2) is |x| while x^2 stays normal
        sup_u.append(math.sqrt(total.max()))
        sup_b.append(math.sqrt(blk[nc:].sum(axis=0).max()))
        # numpy sums axis 0 row after row, so adding the b rows to the u
        # sum in order gives the bits of blk.sum(axis=0)
        for row in blk[nc:]:
            total += row
        sup_all.append(math.sqrt(total.max()))
    # np.max, unlike max(), propagates a NaN from a non-finite state
    return float(np.max(sup_all)), sup_u, sup_b


# The smallest grid (in points) whose record runs the gradient sups on a
# helper thread.  Below it the two threads' short numpy calls hand the GIL
# back and forth, and the threaded record is slower (interleaved medians,
# serial against threaded: 2D N=64 1.09 -> 2.03 ms, 2D N=128 2.97 -> 3.35,
# 3D N=16 2.94 -> 3.50; 3D N=32 18.6 -> 14.0, 2D N=256 13.3 -> 9.9).
_HELPER_POINTS = 2**15


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of the diagnostics stream."""

    t: float
    energy: float
    cross_helicity: float
    grad_sup_z_plus: float
    grad_sup_z_minus: float
    blowup_integrand: float
    blowup_integral: float
    block_sup_curl_u: tuple
    block_sup_curl_b: tuple
    norms: dict


def record(
    state: ElsasserState, specs=(), prev: DiagnosticsRecord | None = None
) -> DiagnosticsRecord:
    """Fill every diagnostic field for one state.  The running integral of
    the blow-up integrand continues from `prev` by the trapezoid rule
    (0 when there is no previous record).

    On a grid of at least `_HELPER_POINTS` points the two gradient sups
    run on one helper thread while this thread sweeps the curl shells and
    reads the energies; the two halves share no array, and the transforms
    and ufuncs they run release the GIL.  The helper is joined before the
    record is assembled, and an exception on it is raised here.  It gets
    coefficient arrays already computed, so it never fills a field's lazy
    cache, and every transform still runs whole on one thread, so every
    value keeps its bits.  The curls are formed before the helper starts
    and the norms after the join, so while the helper runs this thread runs
    only the sweep and the energies."""
    grid = state.grid
    wu, wb = curl_pair(state)
    pair = (state.z_plus.coeffs, state.z_minus.coeffs)

    def sweep():
        return _curl_shell_sups(grid, wu, wb), _energy_and_cross_helicity(state)

    def grads():
        return [_gradient_sup(grid, c) for c in pair]

    if grid.points**grid.dimension < _HELPER_POINTS:
        (b_t, sup_u, sup_b), (e, h) = sweep()
        grad_plus, grad_minus = grads()
    else:
        with ThreadPoolExecutor(max_workers=1) as helper:
            future = helper.submit(grads)
            (b_t, sup_u, sup_b), (e, h) = sweep()
            grad_plus, grad_minus = future.result()
    integral = 0.0
    if prev is not None:
        integral = prev.blowup_integral + 0.5 * (state.t - prev.t) * (
            prev.blowup_integrand + b_t
        )
    norms = {
        spec.label: tl_norm(state.z_plus, spec) + tl_norm(state.z_minus, spec)
        for spec in specs
    }
    return DiagnosticsRecord(
        t=state.t,
        energy=e,
        cross_helicity=h,
        grad_sup_z_plus=grad_plus,
        grad_sup_z_minus=grad_minus,
        blowup_integrand=b_t,
        blowup_integral=integral,
        block_sup_curl_u=tuple(sup_u),
        block_sup_curl_b=tuple(sup_b),
        norms=norms,
    )


class DiagnosticsStream:
    """Accumulates records along a run, maintaining the trapezoid running
    integral of the blow-up integrand."""

    def __init__(self, specs=()):
        self.specs = tuple(specs)
        self.records: list[DiagnosticsRecord] = []

    def append(self, state: ElsasserState) -> DiagnosticsRecord:
        prev = self.records[-1] if self.records else None
        rec = record(state, self.specs, prev)
        self.records.append(rec)
        return rec


# ---------------------------------------------------------------------------
# Gronwall envelope
# ---------------------------------------------------------------------------


def gronwall_check(records, norm_label: str):
    """Fit the smallest C >= 0 such that
    y(t) <= y(0) exp(C int_0^t (||grad z+||_inf + ||grad z-||_inf) dtau)
    over the recorded stream; returns (C, max_violation) where the violation
    is measured against the fitted envelope (zero up to round-off by
    construction)."""
    if not records:
        raise SpectralError("gronwall check needs at least one record")
    y = np.array([r.norms[norm_label] for r in records])
    g = np.array([r.grad_sup_z_plus + r.grad_sup_z_minus for r in records])
    t = np.array([r.t for r in records])
    big_g = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(t) * (g[1:] + g[:-1]))]
    )
    y0 = y[0]
    c_best = 0.0
    for yi, gi in zip(y[1:], big_g[1:]):
        if yi > y0 and gi > 0.0:
            c_best = max(c_best, math.log(yi / y0) / gi)
    envelope = y0 * np.exp(c_best * big_g)
    violation = float(np.max(y - envelope))
    return c_best, max(0.0, violation)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


# the scalar DiagnosticsRecord fields, in column order
_SCALARS = (
    "t",
    "energy",
    "cross_helicity",
    "grad_sup_z_plus",
    "grad_sup_z_minus",
    "blowup_integrand",
    "blowup_integral",
)


def csv_columns(grid, specs=()) -> list:
    cols = list(_SCALARS)
    cols += [f"norm_{spec.label}" for spec in specs]
    cols += [f"block_sup_curl_u_j{j}" for j in grid.js]
    cols += [f"block_sup_curl_b_j{j}" for j in grid.js]
    return cols


def record_row(rec: DiagnosticsRecord, specs=()) -> list:
    row = [getattr(rec, name) for name in _SCALARS]
    row += [rec.norms[spec.label] for spec in specs]
    row += list(rec.block_sup_curl_u)
    row += list(rec.block_sup_curl_b)
    return row


def csv_header(grid, specs=(), timestamp: str | None = None) -> str:
    """The `# created:` comment line (when a timestamp is given) and the
    column header, newline-terminated.  The comment line is excluded from
    byte-level comparisons."""
    head = "" if timestamp is None else f"# created: {timestamp}\n"
    return head + ",".join(csv_columns(grid, specs)) + "\n"


def csv_line(rec: DiagnosticsRecord, specs=()) -> str:
    """One record as a newline-terminated CSV row (values as repr)."""
    return ",".join(repr(float(x)) for x in record_row(rec, specs)) + "\n"
