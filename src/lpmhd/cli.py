"""Command-line front end.

Subcommands: simulate, picard, verify (config-driven batch runs writing one
self-contained output directory each) plus norm and decompose (direct
snapshot utilities).  Exit codes: 0 success, 1 failed verification, 2
validation error, 3 I/O failure, 4 non-finite state, norm or snapshot
(simulate stops at the first record whose energy or blow-up integrand is not
finite, after writing that row; picard writes every row, then checks each
difference norm; norm prints its strict-JSON record, then exits 4 on a
non-finite value; decompose writes nothing for a snapshot with a non-finite
value), 5 a simulate step broke the CFL bound after t = 0 (the run finishes
and writes every output first; a non-finite state still exits 4).  On glibc,
``main`` fixes the allocator's mmap and trim thresholds for its process
(README, "Allocator"), so the multi-MB spectral temporaries of a run are
reused instead of being returned to the OS and faulted back in; importing
the package changes nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import diagnostics as diag
from . import lab, mhd
from .config import (
    ConfigError,
    RunConfig,
    _check_verify_ids,
    _parse_pq,
    load_config,
    parse_config,
    snapshot_name,
)
from .spaces import NormSpec, norm_record, tl_norm
from .spectral import (
    SpectralError,
    dealias,
    dyadic_block,
    load_snapshot,
    low_pass,
    save_snapshot,
)


# glibc's mallopt parameters, and the values main fixes: 32 MiB is the
# ceiling of glibc's own dynamic mmap threshold on 64-bit, and the trim
# threshold follows glibc's rule of twice the mmap threshold
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_BYTES = 32 << 20
_TRIM_BYTES = 64 << 20


@functools.cache
def _pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds for this process; a no-op where
    glibc or its mallopt is absent."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # setting either threshold switches glibc's dynamic threshold off, and
    # one alone faults more than the default: the trim threshold is set only
    # once the mmap threshold has been accepted
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="lpmhd",
        description="Pseudospectral Littlewood-Paley / ideal-MHD toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, doc in (
        ("simulate", "run the nonlinear solver and record diagnostics"),
        ("picard", "run the linearized approximation scheme"),
        ("verify", "run the randomized inequality harness"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="YAML config file")
        if name == "verify":
            p.add_argument(
                "--ids", help="comma-separated inequality ids (overrides config)"
            )

    p = sub.add_parser("norm", help="evaluate a Triebel-Lizorkin norm of a snapshot")
    p.add_argument("--field", required=True, help="snapshot file")
    p.add_argument("--s", required=True, type=float)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--homogeneous", action="store_true")

    p = sub.add_parser("decompose", help="write one snapshot per dyadic block")
    p.add_argument("--field", required=True, help="snapshot file")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _initial_state(cfg: RunConfig) -> mhd.ElsasserState:
    maker = mhd.INITIAL_DATA[cfg.initial_kind]
    if cfg.initial_kind in ("alfven", "random"):
        u, b = maker(
            cfg.grid, seed=cfg.seed, amplitude=cfg.initial_amplitude,
            decay=cfg.initial_decay,
        )
    else:
        u, b = maker(cfg.grid, amplitude=cfg.initial_amplitude)
    state = mhd.to_elsasser(u, b)
    return mhd.ElsasserState(dealias(state.z_plus), dealias(state.z_minus), 0.0)


def _check_cfl(state: mhd.ElsasserState, dt: float):
    message = mhd._cfl_violation(state, dt)
    if message:
        raise ConfigError(message)


def _prepare_outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output, exist_ok=True)
    with open(os.path.join(cfg.output, "config.yaml"), "w") as fh:
        fh.write(cfg.to_yaml())
    return cfg.output


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, "simulate")
    state = _initial_state(cfg)
    _check_cfl(state, cfg.dt)
    outdir = _prepare_outdir(cfg)
    snap_dir = os.path.join(outdir, "snapshots")
    snap_steps = cfg.snapshot_steps
    if snap_steps:
        os.makedirs(snap_dir, exist_ok=True)
    n_steps = mhd._step_count(cfg.t_final, cfg.dt)

    # a step whose dt breaks the CFL bound (possible after t = 0) warns once;
    # the run reports all of them in one line, with the first step's start
    # time, rather than one line per step
    late_cfl = []
    show = warnings.showwarning

    def collect_cfl(message, category, *rest, **kwargs):
        if issubclass(category, mhd.CflWarning):
            late_cfl.append(state.t)
        else:
            show(message, category, *rest, **kwargs)

    # rows are written and flushed as they are recorded, so a run that
    # fails midway keeps its prefix and a long run can be tailed; the
    # blow-up integral's trapezoid rule needs only the last record
    stamp = datetime.now(timezone.utc).isoformat()
    rec = None
    finite = True
    with (open(os.path.join(outdir, "diagnostics.csv"), "w") as csv_fh,
          warnings.catch_warnings()):
        warnings.simplefilter("always", mhd.CflWarning)
        warnings.showwarning = collect_cfl
        csv_fh.write(diag.csv_header(cfg.grid, cfg.norm_specs, timestamp=stamp))
        try:
            for m in range(n_steps + 1):
                if m:
                    # stamped m*dt: repeated addition would drift off the grid times
                    state = replace(mhd.step(state, cfg.dt), t=m * cfg.dt)
                if m % cfg.cadence == 0 or m == n_steps:
                    rec = diag.record(state, cfg.norm_specs, rec)
                    csv_fh.write(diag.csv_line(rec, cfg.norm_specs))
                    csv_fh.flush()
                    # the energy sums every value of z+ and z- squared and the
                    # integrand is a max over the curls, so a non-finite value
                    # anywhere shows in one of the two, at no transform
                    finite = (math.isfinite(rec.energy)
                              and math.isfinite(rec.blowup_integrand))
                    if not finite:
                        print(f"error: non-finite state at t = {state.t:g}; the run "
                              "stops after writing its row", file=sys.stderr)
                        break
                if m in snap_steps:
                    u, b = mhd.from_elsasser(state)
                    name = snapshot_name(snap_steps[m])
                    save_snapshot(u, os.path.join(snap_dir, "u_" + name), state.t)
                    save_snapshot(b, os.path.join(snap_dir, "b_" + name), state.t)
        finally:
            if late_cfl:
                print(
                    f"warning: dt = {cfg.dt:g} broke the advective CFL bound "
                    f"0.5*h/max|z| on {len(late_cfl)} of {n_steps} steps, "
                    f"first at t = {late_cfl[0]:g}",
                    file=sys.stderr,
                )
    return 4 if not finite else 5 if late_cfl else 0


def _cmd_picard(args) -> int:
    cfg = load_config(args.config, "picard")
    state = _initial_state(cfg)
    _check_cfl(state, cfg.dt)
    outdir = _prepare_outdir(cfg)
    iterates = mhd.picard_iterate(
        state.z_plus, state.z_minus,
        s=cfg.picard_s, p=cfg.picard_p, q=cfg.picard_q,
        t_final=cfg.t_final, dt=cfg.dt, n_max=cfg.picard_n_max,
    )
    rows = mhd.picard_contraction_table(iterates)
    lines = ["n,sup_diff_norm,ratio"]
    for n, norm, ratio in rows:
        lines.append(f"{n},{norm!r},{'' if ratio is None else repr(ratio)}")
    with open(os.path.join(outdir, "picard.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for n, norm, _ in rows:
        if not math.isfinite(norm):
            print(f"error: non-finite difference norm at Picard iterate n = {n}",
                  file=sys.stderr)
            return 4
    return 0


def _cmd_verify(args) -> int:
    cfg = load_config(args.config, "verify")
    if getattr(args, "ids", None):
        ids = [part.strip() for part in args.ids.split(",") if part.strip()]
        _check_verify_ids(ids, "--ids")
        # config.yaml lists the ids that ran, with only their params, so it
        # parses again and reruns this run
        vmap = cfg.document["verify"]
        vmap.update(ids=ids, params={iid: p for iid, p in vmap["params"].items() if iid in ids})
        cfg = parse_config(cfg.to_yaml(), "verify")
    ids = cfg.verify_ids
    if not ids:
        raise ConfigError("nothing to verify: the inequality id list is empty")

    # every id runs before anything is written, so a rejected hypothesis
    # leaves no output directory behind
    jobs = [
        (iid, {"d": cfg.grid_dimension, **cfg.verify_params.get(iid, {})})
        for iid in ids
    ]
    sweep = len(cfg.verify_resolutions) >= 2
    if sweep:
        results = lab.stability_sweeps(
            jobs, cfg.verify_resolutions, cfg.verify_trials, cfg.seed
        )
    else:
        # a single listed resolution is the one run; none means grid.points
        n = cfg.verify_resolutions[0] if cfg.verify_resolutions else cfg.grid_points
        for _, params in jobs:
            params["n"] = n
        results = lab.run_inequalities(jobs, cfg.verify_trials, cfg.seed)

    outdir = _prepare_outdir(cfg)
    report_dir = os.path.join(outdir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    ok = True
    summary_entries = []
    for iid, result in zip(ids, results):
        lab.write_report_json(result, os.path.join(report_dir, f"{iid}.json"))
        if sweep:
            summary_entries.append(result.reports[-1])
            ok = ok and all(r.finite for r in result.reports)
            ok = ok and result.max_growth <= cfg.verify_growth_threshold
        else:
            summary_entries.append(result)
            ok = ok and result.finite
    with open(os.path.join(outdir, "summary.csv"), "w") as fh:
        fh.write("\n".join(lab.summary_csv_lines(summary_entries)) + "\n")
    return 0 if ok else 1


def _cmd_norm(args) -> int:
    field, _ = load_snapshot(args.field)
    spec = NormSpec(
        s=args.s, p=_parse_pq(args.p, "--p", "the command line", text=True),
        q=_parse_pq(args.q, "--q", "the command line", text=True),
        homogeneous=args.homogeneous,
    )
    field_id = os.path.splitext(os.path.basename(args.field))[0]
    value = tl_norm(field, spec)
    print(lab._dumps(norm_record(field_id, spec, value)))
    if not math.isfinite(value):
        print(f"error: the norm of field {field_id} ({args.field}) is not finite",
              file=sys.stderr)
        return 4
    return 0


def _cmd_decompose(args) -> int:
    field, t = load_snapshot(args.field)
    if not np.isfinite(field.values).all():
        print(f"error: snapshot {args.field} holds a non-finite value; no block "
              "is written", file=sys.stderr)
        return 4
    os.makedirs(args.out, exist_ok=True)
    base = low_pass(field, field.grid.j0)
    save_snapshot(base, os.path.join(args.out, "lowpass.npz"), t)
    for j in field.grid.js:
        blk = dyadic_block(field, j)
        save_snapshot(blk, os.path.join(args.out, f"block_j{j}.npz"), t)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "picard": _cmd_picard,
    "verify": _cmd_verify,
    "norm": _cmd_norm,
    "decompose": _cmd_decompose,
}


def main(argv=None) -> int:
    _pin_allocator()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except (ConfigError, SpectralError, lab.HypothesisError,
            lab.UnknownInequalityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
