"""Layer cost table: time per call and scalar transforms per call of the
main layers at 2D N=128/256 and 3D N=32/64.

    python3 perfbench/layer_table.py [--budget 1.5]

A traced side output with no end-to-end metrics.  Each row is timed with
tracing off (median over repeated calls, at least three, about ``--budget``
seconds per row), then called once more under the tracer to count
transforms.  Inputs are seeded random fields that carry both values and
coefficients, as in the ROADMAP baseline; one extra step row takes a
coefficient-only state, which is what a step gets from the step before it.
Writes
``.perfbench-out/layer_table.json`` and prints a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import run
import spans

SIZES = ((2, 128), (2, 256), (3, 32), (3, 64))
SEED = 20240


def _rows(grid):
    """(label, prepare, fn) for every row at one grid size: ``prepare()``
    builds the argument untimed, ``fn`` is timed on it (``fn`` None: the
    prepared callable is timed)."""
    import scipy.fft

    from lpmhd import diagnostics, mhd, paracalc, spaces, spectral

    # fields straight from the generators carry values and coefficients,
    # as in the baseline table
    zp = spectral.random_solenoidal(grid, SEED, decay=3.0)
    zm = spectral.random_solenoidal(grid, SEED + 1, decay=3.0)
    scalar = spectral.random_band_limited(grid, SEED + 2)
    g = spectral.random_band_limited(grid, SEED + 3, kmax=grid.points // 6)
    f = spectral.random_solenoidal(grid, SEED + 4, kmax=grid.points // 6)
    norm = spaces.NormSpec(2.5, 2.0, 2.0, homogeneous=False)
    state = mhd.ElsasserState(zp, zm)
    values = scalar.values

    def coeff_only():
        # what a step gets after a step: coefficients, no cached values
        return mhd.ElsasserState(
            *(spectral.RealField(grid, coeffs=z.coeffs, solenoidal=True) for z in (zp, zm))
        )

    def record(first):
        stream = diagnostics.DiagnosticsStream()
        if not first:
            stream.append(state)
        return lambda: stream.append(state)

    none = lambda: None  # noqa: E731
    return [
        ("fft (rfftn, one scalar)", none, lambda: scipy.fft.rfftn(values)),
        ("block_magnitudes (scalar)", none, lambda: spectral.block_magnitudes(scalar)),
        ("tl_norm (vector, F^2.5_22 inhom)", none, lambda: spaces.tl_norm(zp, norm)),
        ("pressure_gradient", none, lambda: mhd.pressure_gradient(state)),
        ("mhd_tendency", none, lambda: mhd.mhd_tendency(state)),
        ("step (RK4)", none, lambda: mhd.step(state, 1e-4)),
        ("step (RK4), coefficient-only input", coeff_only, lambda s: mhd.step(s, 1e-4)),
        ("DiagnosticsStream.append (first, no norms)", lambda: record(True), None),
        ("DiagnosticsStream.append (later, no norms)", lambda: record(False), None),
        ("commutator_family", none, lambda: paracalc.commutator_family(f, g)),
        ("commutator_split_family", none, lambda: paracalc.commutator_split_family(f, g)),
        ("maximal_function (scalar)", none, lambda: spaces.maximal_function(scalar)),
    ]


def _call(prepare, fn):
    """Build the argument untimed and return the timed callable."""
    arg = prepare()
    if fn is None:
        return arg
    if arg is None:
        return fn
    return lambda: fn(arg)


def measure(budget: float) -> list:
    run._check_checkout()
    run._import_lpmhd()
    from lpmhd import spectral

    out = []
    for d, n in SIZES:
        grid = spectral.Grid(d, n)
        for label, prepare, fn in _rows(grid):
            _call(prepare, fn)()  # fill caches
            times = []
            spent = 0.0
            while len(times) < 3 or spent < budget:
                call = _call(prepare, fn)
                t0 = time.perf_counter()
                call()
                dt = time.perf_counter() - t0
                times.append(dt)
                spent += dt
            call = _call(prepare, fn)
            tracer = spans.Tracer(boundaries=())
            tracer.install()
            try:
                call()
            finally:
                tracer.uninstall()
            xf = sum(s[4] for s in tracer.spans)
            out.append({
                "layer": label, "dimension": d, "points": n,
                "ms": 1e3 * statistics.median(times), "reps": len(times), "xf": xf,
            })
            print(f"{d}D N={n:<4} {label:<44} {out[-1]['ms']:10.3f} ms {xf:6d} xf",
                  file=sys.stderr, flush=True)
    return out


def markdown(rows) -> str:
    labels = list(dict.fromkeys(r["layer"] for r in rows))
    head = "| layer | " + " | ".join(f"{d}D N={n}" for d, n in SIZES) + " |"
    lines = [head, "|---" * (len(SIZES) + 1) + "|"]
    for label in labels:
        cells = []
        for d, n in SIZES:
            r = next(r for r in rows if r["layer"] == label and (r["dimension"], r["points"]) == (d, n))
            cells.append(f"{r['ms']:.3g} ms ({r['xf']} xf)")
        lines.append(f"| `{label}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="layer cost table")
    p.add_argument("--budget", type=float, default=1.5,
                   help="seconds of timed calls per row (at least three calls)")
    args = p.parse_args(argv)
    rows = measure(args.budget)
    run.OUT.mkdir(exist_ok=True)
    meta = run._versions()
    (run.OUT / "layer_table.json").write_text(
        json.dumps({"versions": meta, "commit": run._git_commit(), "rows": rows}, indent=1)
    )
    print(markdown(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
