"""Command-line front end.

Subcommands: simulate, picard, verify (config-driven batch runs writing one
self-contained output directory each) plus norm and decompose (direct
snapshot utilities).  Exit codes: 0 success, 1 failed verification, 2
validation error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import diagnostics as diag
from . import lab, mhd
from .config import (
    ConfigError,
    RunConfig,
    _check_verify_ids,
    _parse_pq,
    load_config,
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


def _build_parser() -> argparse.ArgumentParser:
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
    bound = mhd.cfl_bound(state)
    if dt > bound:
        raise ConfigError(
            f"dt = {dt:g} violates the advective CFL bound "
            f"0.5*h/max|z| = {bound:.6g}"
        )


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
    if cfg.snapshot_times:
        os.makedirs(snap_dir, exist_ok=True)

    stream = diag.DiagnosticsStream(cfg.norm_specs)
    n_steps = round(cfg.t_final / cfg.dt)

    # each requested snapshot time (in [0, t_final]) maps to its nearest step
    snap_steps = {}
    for t_snap in cfg.snapshot_times:
        snap_steps.setdefault(round(t_snap / cfg.dt), t_snap)

    def maybe_snapshot(s, m):
        if m in snap_steps:
            t_snap = snap_steps[m]
            u, b = mhd.from_elsasser(s)
            save_snapshot(u, os.path.join(snap_dir, f"u_t{t_snap:.6f}.npz"), s.t)
            save_snapshot(b, os.path.join(snap_dir, f"b_t{t_snap:.6f}.npz"), s.t)

    # rows are written and flushed as they are recorded, so a run that
    # fails midway keeps its prefix and a long run can be tailed
    stamp = datetime.now(timezone.utc).isoformat()
    with open(os.path.join(outdir, "diagnostics.csv"), "w") as csv_fh:
        csv_fh.write(diag.csv_header(cfg.grid, cfg.norm_specs, timestamp=stamp))

        def emit(s):
            csv_fh.write(diag.csv_line(stream.append(s), cfg.norm_specs))
            csv_fh.flush()

        emit(state)
        maybe_snapshot(state, 0)
        for m in range(1, n_steps + 1):
            # stamped m*dt: repeated addition would drift off the grid times
            state = replace(mhd.step(state, cfg.dt), t=m * cfg.dt)
            if m % cfg.cadence == 0 or m == n_steps:
                emit(state)
            maybe_snapshot(state, m)
    return 0


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
    return 0


def _cmd_verify(args) -> int:
    cfg = load_config(args.config, "verify")
    ids = cfg.verify_ids
    if getattr(args, "ids", None):
        ids = tuple(part.strip() for part in args.ids.split(",") if part.strip())
        _check_verify_ids(ids, "--ids")
    if not ids:
        raise ConfigError("nothing to verify: the inequality id list is empty")

    # every id runs before anything is written, so a rejected hypothesis
    # leaves no output directory behind
    jobs = [(iid, dict(cfg.verify_params.get(iid, {}))) for iid in ids]
    sweep = len(cfg.verify_resolutions) >= 2
    if sweep:
        results = lab.stability_sweeps(
            jobs, cfg.verify_resolutions, cfg.verify_trials, cfg.seed
        )
    else:
        # a single listed resolution is the one run; none means grid.points
        n = cfg.verify_resolutions[0] if cfg.verify_resolutions else cfg.grid_points
        for _, params in jobs:
            params.setdefault("n", n)
            params.setdefault("d", cfg.grid_dimension)
        results = lab.run_inequalities(jobs, cfg.verify_trials, cfg.seed)

    outdir = _prepare_outdir(cfg)
    report_dir = os.path.join(outdir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    ok = True
    summary_entries = []
    for iid, result in zip(ids, results):
        path = os.path.join(report_dir, f"{iid}.json")
        if sweep:
            payload = result.to_dict()
            payload["reports"] = [r.to_dict() for r in result.reports]
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
            summary_entries.append(result.reports[-1])
            ok = ok and all(r.finite for r in result.reports)
            ok = ok and result.max_growth <= cfg.verify_growth_threshold
        else:
            lab.write_report_json(result, path)
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
    print(json.dumps(norm_record(field_id, spec, value), sort_keys=True))
    return 0


def _cmd_decompose(args) -> int:
    field, t = load_snapshot(args.field)
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
