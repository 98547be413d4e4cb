"""The four benchmark workloads: configs made from the seed, how one op runs
through the real CLI, how many work units an op does, and the correctness
gate on each op's outputs.

Every op is one in-process ``lpmhd.cli.main([...])`` call on a generated
YAML config, so the whole CLI path (config parsing, initial data, the run,
writing outputs) is timed.  The seed picks one of ``VARIANTS`` input
variants (``seed % VARIANTS``); ``reference.json`` holds the key outputs of
every variant, computed by ``make_reference.py``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import yaml

VARIANTS = 32

# Key outputs must match the stored reference within REL_TOL of the largest
# reference value in their group.  Looser than the 1e-12 refactor gate, so a
# change that moves only round-off passes; wrong numerics move these values
# by far more.
REL_TOL = 1e-9

# Criterion 7: energy and cross-helicity drift limit.
DRIFT_LIMIT = 1e-6

# Criterion 5: largest allowed 64 -> 128 growth of a max ratio.
GROWTH_LIMIT = 1.2

VERIFY_IDS = ("commutator-A2", "commutator-A3", "term-I", "term-II", "term-III", "term-IV")
VERIFY_RESOLUTIONS = (64, 128)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str
    # public function timed with two timestamps for call_ms.*
    hot: tuple

    def variant(self, seed: int) -> int:
        return seed % VARIANTS

    def config(self, seed: int, output: str, warmup: bool = False) -> dict:
        rng = random.Random(f"{self.name}:{self.variant(seed)}")
        return _CONFIGS[self.name](rng, self.variant(seed), output, warmup)

    def units(self, cfg: dict) -> int:
        """Work units per op: RK4 steps (simulate), RK4 steps of one iterate
        (picard) or lab trials (verify, ids x resolutions x trials)."""
        if self.subcommand == "verify":
            v = cfg["verify"]
            return len(v["ids"]) * len(v["resolutions"]) * v["trials"]
        steps = round(cfg["time"]["t_final"] / cfg["time"]["dt"])
        if self.subcommand == "picard":
            return steps * cfg["picard"]["n_max"]
        return steps


def _norms():
    return [{"s": 2.5, "p": 2, "q": 2, "homogeneous": False}]


def _simulate_ot2d(rng, variant, output, warmup):
    dt = 1e-3
    return {
        "subcommand": "simulate",
        "seed": variant,
        "output": output,
        "grid": {"dimension": 2, "points": 128},
        "initial": {"kind": "orszag-tang", "amplitude": round(rng.uniform(0.8, 1.2), 6)},
        "time": {"t_final": dt if warmup else 50 * dt, "dt": dt, "cadence": 10},
        "norms": _norms(),
    }


def _monitor_3d(rng, variant, output, warmup):
    dt = 5e-3  # the initial CFL bound is >= 0.024 on every variant
    return {
        "subcommand": "simulate",
        "seed": 1000 + variant,
        "output": output,
        "grid": {"dimension": 3, "points": 32},
        "initial": {"kind": "random", "amplitude": 1.0, "decay": 3.0},
        "time": {"t_final": dt if warmup else 10 * dt, "dt": dt, "cadence": 1},
        "norms": _norms(),
    }


def _picard_2d(rng, variant, output, warmup):
    dt = 1e-3
    return {
        "subcommand": "picard",
        "seed": variant,
        "output": output,
        "grid": {"dimension": 2, "points": 128},
        "initial": {"kind": "orszag-tang", "amplitude": round(rng.uniform(0.8, 1.2), 6)},
        "time": {"t_final": dt if warmup else 10 * dt, "dt": dt},
        "picard": {"s": 2.5, "p": 2, "q": 2, "n_max": 4},
    }


def _verify_commutator(rng, variant, output, warmup):
    return {
        "subcommand": "verify",
        "seed": 7000 + variant,
        "output": output,
        "grid": {"dimension": 2, "points": 64},
        "verify": {
            "ids": list(VERIFY_IDS),
            "trials": 1 if warmup else 2,
            "resolutions": list(VERIFY_RESOLUTIONS),
            "growth_threshold": GROWTH_LIMIT,
        },
    }


_CONFIGS = {
    "simulate-ot2d": _simulate_ot2d,
    "monitor-3d": _monitor_3d,
    "picard-2d": _picard_2d,
    "verify-commutator": _verify_commutator,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-ot2d", "simulate",
            "Orszag-Tang 2D N=128, cadence 10, one F^2.5_22 norm: RK4 and "
            "right-hand-side work (about 90% in mhd.step)",
            ("mhd.step",),
        ),
        Workload(
            "monitor-3d", "simulate",
            "random 3D N=32, cadence 1: a diagnostics row after every step, "
            "half the time in DiagnosticsStream.append; the only 3D workload",
            ("mhd.step",),
        ),
        Workload(
            "picard-2d", "picard",
            "Orszag-Tang 2D N=128, n_max=4: the only user of the linear "
            "Picard transport path (advection, per-step tl_norm)",
            ("mhd.advection",),
        ),
        Workload(
            "verify-commutator", "verify",
            "commutator-A2/A3 and term-I..IV sweeps at 64/128: the lab and "
            "paracalc layers; mhd and diagnostics are bypassed",
            ("paracalc.commutator_family", "paracalc.commutator_split_family"),
        ),
    )
}


def config_yaml(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True)


def config_digest(cfg: dict) -> str:
    """Digest of a config without its output path."""
    body = {k: v for k, v in cfg.items() if k != "output"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# outputs and the correctness gate
# ---------------------------------------------------------------------------


class GateError(Exception):
    """An op's outputs failed the correctness gate."""


def _read_rows(path):
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [row for row in reader]


def key_outputs(workload: Workload, cfg: dict) -> dict:
    """Read the outputs of one op and return its key values (the values
    compared with the reference), after the workload's own checks."""
    out = cfg["output"]
    if workload.subcommand == "simulate":
        return _check_simulate(cfg, out)
    if workload.subcommand == "picard":
        return _check_picard(cfg, out)
    return _check_verify(cfg, out)


def _finite(values, what):
    if not all(math.isfinite(v) for v in values):
        raise GateError(f"non-finite value in {what}")


def _check_simulate(cfg, out):
    header, rows = _read_rows(os.path.join(out, "diagnostics.csv"))
    data = [[float(x) for x in row] for row in rows]
    for row in data:
        _finite(row, "diagnostics.csv")
    steps = round(cfg["time"]["t_final"] / cfg["time"]["dt"])
    cadence = cfg["time"]["cadence"]
    expected = 1 + steps // cadence + (1 if steps % cadence else 0)
    if len(data) != expected:
        raise GateError(f"{len(data)} diagnostics rows, expected {expected}")
    col = {name: i for i, name in enumerate(header)}
    energy = [r[col["energy"]] for r in data]
    helicity = [r[col["cross_helicity"]] for r in data]
    e_drift = max(abs(e - energy[0]) for e in energy) / energy[0]
    h_scale = max(abs(helicity[0]), energy[0])
    h_drift = max(abs(h - helicity[0]) for h in helicity) / h_scale
    if e_drift > DRIFT_LIMIT or h_drift > DRIFT_LIMIT:
        raise GateError(f"drift energy {e_drift:.3g} / cross-helicity {h_drift:.3g}")
    integral = [r[col["blowup_integral"]] for r in data]
    if any(b < a for a, b in zip(integral, integral[1:])):
        raise GateError("blow-up integral decreased")
    return {"final_row": data[-1], "rows": len(data)}


def _check_picard(cfg, out):
    header, rows = _read_rows(os.path.join(out, "picard.csv"))
    if len(rows) != cfg["picard"]["n_max"]:
        raise GateError(f"{len(rows)} Picard rows, expected {cfg['picard']['n_max']}")
    sups = [float(r[1]) for r in rows]
    ratios = [float(r[2]) for r in rows[1:]]
    _finite(sups + ratios, "picard.csv")
    if not all(r < 1.0 for r in ratios):
        raise GateError(f"Picard contraction ratio >= 1: {ratios}")
    return {"sup_diff_norms": sups}


def _check_verify(cfg, out):
    max_ratios = {}
    for iid in cfg["verify"]["ids"]:
        with open(os.path.join(out, "reports", f"{iid}.json")) as fh:
            payload = json.load(fh)
        for rep in payload["reports"]:
            _finite(rep["ratios"], f"{iid} ratios")
            if min(rep["ratios"]) < 0:
                raise GateError(f"negative ratio in {iid}")
        if payload["max_growth"] > GROWTH_LIMIT:
            raise GateError(f"{iid} growth {payload['max_growth']} > {GROWTH_LIMIT}")
        max_ratios[iid] = payload["max_ratios"]
    return {"max_ratios": max_ratios}


def _flatten(keys: dict) -> list:
    """Groups of values compared together: (label, values)."""
    groups = []
    for key, value in sorted(keys.items()):
        if isinstance(value, dict):
            groups += [(f"{key}.{k}", list(v)) for k, v in sorted(value.items())]
        elif isinstance(value, list):
            groups.append((key, value))
        else:
            groups.append((key, [value]))
    return groups


def compare_reference(keys: dict, ref: dict):
    """Raise GateError unless every key value is within REL_TOL (relative
    to the largest magnitude in its group) of the reference."""
    got, want = dict(_flatten(keys)), dict(_flatten(ref))
    if got.keys() != want.keys():
        raise GateError(f"key outputs {sorted(got)} differ from reference {sorted(want)}")
    for label, ref_vals in want.items():
        vals = got[label]
        if len(vals) != len(ref_vals):
            raise GateError(f"{label}: {len(vals)} values, reference has {len(ref_vals)}")
        scale = max(abs(v) for v in ref_vals)
        for a, b in zip(vals, ref_vals):
            if not abs(a - b) <= REL_TOL * scale:
                raise GateError(f"{label}: {a!r} differs from reference {b!r}")
