"""Per-timestep scalar diagnostics: conserved quantities, gradient sup
norms, the blow-up integrand sup_j ||Delta_j (curl u, curl b)||_inf with its
running trapezoid integral, per-block curl sup norms, and the Gronwall
envelope fit.

A record decomposes the stacked curls (curl u, curl b) once: one batched
inverse transform per dyadic shell yields the per-shell sups of curl u and
curl b and the stacked sup whose maximum over shells is the blow-up
integrand.  The stream continues the trapezoid integral from the previous
record's integrand, so nothing is evaluated twice.  Gradient sup norms are
one batched inverse per field, and the record reads (caches) the state's
grid values, which the next RK4 step reuses.

The blow-up monitor only reports; it never terminates a run.  CSV columns
are emitted in the fixed order documented by `csv_columns`, one row per
record (`csv_header` and `csv_line` let a run stream them as it goes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mhd import ElsasserState, from_elsasser
from .spaces import tl_norm
from .spectral import (
    SpectralError,
    _inverse,
    curl,
    jacobian_sup_norm,
    make_filter_bank,
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


def _curl_shell_sups(state: ElsasserState):
    """Decompose the stacked curls (curl u, curl b) into dyadic blocks once
    and read every block quantity of a record from that single pass.

    Returns (integrand, sup_u, sup_b): the homogeneous F^0_{inf,inf} norm
    sup_j ||Delta_j (curl u, curl b)||_inf of the stacked curls, and the
    per-shell lists ||Delta_j curl u||_inf, ||Delta_j curl b||_inf.  Each
    shell is one batched inverse of all 2*nc curl components; pointwise
    magnitudes sum the squares of the first nc (u), the last nc (b) or all
    of them (the integrand), with |.| for the 1-component curls of 2D.
    """
    wu, wb = curl_pair(state)
    grid, nc = state.grid, wu.ncomp
    stacked = np.concatenate([wu.coeffs, wb.coeffs])
    bank = make_filter_bank(grid)
    sup_all, sup_u, sup_b = [], [], []
    for j in grid.js:
        blk = _inverse(grid, stacked * bank.phi[j])
        if nc == 1:
            sup_u.append(float(np.abs(blk[0]).max()))
            sup_b.append(float(np.abs(blk[1]).max()))
        np.square(blk, out=blk)
        if nc > 1:
            # sqrt is monotone, so sqrt(max) equals max(sqrt) exactly
            sup_u.append(math.sqrt(blk[:nc].sum(axis=0).max()))
            sup_b.append(math.sqrt(blk[nc:].sum(axis=0).max()))
        sup_all.append(math.sqrt(blk.sum(axis=0).max()))
    # np.max, unlike max(), propagates a NaN from a non-finite state
    return float(np.max(sup_all)), sup_u, sup_b


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
    (0 when there is no previous record)."""
    b_t, sup_u, sup_b = _curl_shell_sups(state)
    integral = 0.0
    if prev is not None:
        integral = prev.blowup_integral + 0.5 * (state.t - prev.t) * (
            prev.blowup_integrand + b_t
        )
    norms = {
        spec.label: tl_norm(state.z_plus, spec) + tl_norm(state.z_minus, spec)
        for spec in specs
    }
    e, h = _energy_and_cross_helicity(state)
    return DiagnosticsRecord(
        t=state.t,
        energy=e,
        cross_helicity=h,
        grad_sup_z_plus=jacobian_sup_norm(state.z_plus),
        grad_sup_z_minus=jacobian_sup_norm(state.z_minus),
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


def block_kernel_constant(grid) -> float:
    """max_j of the l1 norm of the Delta_j convolution kernel: the L_inf
    operator norm bounding ||Delta_j f||_inf <= C ||f||_inf."""
    bank = make_filter_bank(grid)
    kernels = _inverse(grid, np.stack([bank.phi[j] for j in grid.js]).astype(complex))
    return max(float(np.sum(np.abs(kernel))) for kernel in kernels)


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
    if len(records) == 1:
        return 0.0, 0.0
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


def csv_columns(grid, specs=()) -> list:
    cols = [
        "t",
        "energy",
        "cross_helicity",
        "grad_sup_z_plus",
        "grad_sup_z_minus",
        "blowup_integrand",
        "blowup_integral",
    ]
    cols += [f"norm_{spec.label}" for spec in specs]
    cols += [f"block_sup_curl_u_j{j}" for j in grid.js]
    cols += [f"block_sup_curl_b_j{j}" for j in grid.js]
    return cols


def record_row(rec: DiagnosticsRecord, specs=()) -> list:
    row = [
        rec.t,
        rec.energy,
        rec.cross_helicity,
        rec.grad_sup_z_plus,
        rec.grad_sup_z_minus,
        rec.blowup_integrand,
        rec.blowup_integral,
    ]
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


def write_csv(records, grid, path, specs=(), timestamp: str | None = None) -> None:
    """One row per record in the documented column order."""
    with open(path, "w") as fh:
        fh.write(csv_header(grid, specs, timestamp))
        fh.writelines(csv_line(rec, specs) for rec in records)

