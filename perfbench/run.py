"""lpmhd benchmark: four CLI workloads, end-to-end metrics with tracing off,
and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload simulate-ot2d --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 3

Run from anywhere; the package is imported from ``src/`` of the checkout that
holds this file, never from an installed copy.  Each workload runs in fresh
worker processes (this file with ``--worker``), so set-up time and peak
memory belong to that workload alone.  Each worker is a closed loop with one
caller: the next op starts when the previous one has returned.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records (metrics,
versions, thread settings, commit, the workload config) and the span dump of
the traced run go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# fresh processes whose set-up time is measured; the last one goes on to
# the timed ops
SETUP_SAMPLES = 5
# call_ms.p90 needs at least ten samples beyond it
MIN_HOT_SAMPLES = 110
# minimum untraced/traced op pairs in the traced run
MIN_TRACE_PAIRS = 2
# a run must end within 180 s
RUN_BUDGET_S = 170.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# The benchmark definition written to BENCHMARK.json by --all.
RUN_SECONDS = 20
# name: (unit, better, bound).  Each bound is above three times the largest
# spread (quartile distance over median) of ten seeded runs per workload on
# a shared 2-vCPU Xeon VM, after speed calibration: wall_s and units_per_s up to
# 3.3%, call_ms.p50 up to 5.4%, call_ms.p90 up to 6.2%, peak_rss_mb under 1%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.15),
    "units_per_s": ("1/s", "higher", 0.15),
    "call_ms.p50": ("ms", "lower", 0.2),
    "call_ms.p90": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".xf", ".points", ".xf_per_call")):
        return "count"
    return "ratio"


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": per_layer_unit(name),
                "better": "higher" if name.endswith("unique_input_frac") else "lower",
            }
            for name in spans.metric_names() + ["trace_overhead"]
        ],
    }


class BenchError(Exception):
    """The benchmark cannot run here."""


def _check_checkout():
    if not (SRC / "lpmhd" / "__init__.py").is_file():
        raise BenchError(f"no lpmhd package under {SRC}")


# ---------------------------------------------------------------------------
# worker: one fresh process
# ---------------------------------------------------------------------------


def _import_lpmhd():
    sys.path.insert(0, str(SRC))
    import lpmhd
    import lpmhd.cli

    where = Path(lpmhd.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"lpmhd imported from {where}, not from {SRC}")
    return lpmhd.cli


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


class _Ops:
    """Runs and checks ops of one workload in this process."""

    def __init__(self, workload, workdir, seed):
        self.workload = workload
        self.cfg = json.loads((workdir / "config.json").read_text())
        self.cfg_path = str(workdir / "config.yaml")
        self.warm_cfg = json.loads((workdir / "warmup.json").read_text())
        self.warm_path = str(workdir / "warmup.yaml")
        ref = json.loads((HERE / "reference.json").read_text())
        entry = ref[workload.name][str(workload.variant(seed))]
        if entry["config_digest"] != wl.config_digest(self.cfg):
            raise BenchError("reference.json does not match the workload config")
        self.reference = entry["keys"]
        self.first_keys = None
        self.units = workload.units(self.cfg)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.cli = _import_lpmhd()

    def _call(self, path):
        argv = [self.workload.subcommand, "--config", path]
        t0 = time.perf_counter()
        rc = self.cli.main(argv)
        return rc, time.perf_counter() - t0

    def warmup(self) -> bool:
        try:
            rc, _ = self._call(self.warm_path)
            if rc != 0:
                raise wl.GateError(f"warm-up op exited {rc}")
            wl.key_outputs(self.workload, self.warm_cfg)
            return True
        except Exception as exc:  # reported as a failed run, not a crash
            self.errors.append(f"warm-up: {type(exc).__name__}: {exc}")
            return False

    def op(self):
        """One timed op; returns its wall time, or None when it failed."""
        self.attempted += 1
        try:
            rc, wall = self._call(self.cfg_path)
        except Exception as exc:
            self._fail(f"raised {type(exc).__name__}: {exc}")
            return None
        try:
            if rc != 0:
                raise wl.GateError(f"exited {rc}")
            keys = wl.key_outputs(self.workload, self.cfg)
            wl.compare_reference(keys, self.reference)
            if self.first_keys is None:
                self.first_keys = keys
            elif keys != self.first_keys:
                raise wl.GateError("outputs differ from the first op of this run")
        except (wl.GateError, OSError, ValueError, KeyError) as exc:
            self._fail(str(exc))
            return None
        return wall

    def _fail(self, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def _worker(args) -> int:
    """Fresh process: set up, say READY, time the calibration kernel, then
    (unless --setup-only) run the timed or traced loop.  The last stdout
    line is one JSON result."""
    workload = wl.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    ops = _Ops(workload, workdir, args.seed)
    warm_ok = ops.warmup()
    print("READY", flush=True)
    cal = calibrate.Calibrator()
    setup_kernel_s = cal.sample()
    if args.setup_only:
        print(json.dumps({"kernel_s": setup_kernel_s}), flush=True)
        return 0
    start = time.perf_counter()
    budget = min(RUN_BUDGET_S - 40.0, 3.0 * args.seconds + 30.0)
    if args.trace:
        result = _traced_loop(ops, cal, workdir, args.seconds, start, budget)
    else:
        result = _timed_loop(ops, cal, workload, args.seconds, start, budget)
    result.update(
        kernel_s=setup_kernel_s,
        attempted=ops.attempted,
        failed=ops.failed + (0 if warm_ok else 1),
        errors=ops.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calibration_s=cal.samples,
        versions=_versions(),
    )
    print(json.dumps(result), flush=True)
    return 0


def _scaled_op(ops, cal):
    """Run one op followed by a calibration sample.  Returns (raw wall,
    scale) with wall None when the op failed; the scale averages the kernel
    samples on both sides of the op."""
    before = cal.samples[-1]
    wall = ops.op()
    after = cal.sample()
    return wall, calibrate.scale(0.5 * (before + after))


def _timed_loop(ops, cal, workload, seconds, start, budget):
    """Timed ops with a calibration sample after each op and, inside an op,
    after a hot call when the last sample is CAL_INTERVAL_S old."""
    inside = []  # seconds of calibration inside the current op

    def calibrate_between_calls():
        if time.perf_counter() - cal.times[-1] >= calibrate.CAL_INTERVAL_S:
            t0 = time.perf_counter()
            cal.sample(reps=1)
            inside.append(time.perf_counter() - t0)

    hot = spans.Tracer(workload.hot, detail=False, after=calibrate_between_calls)
    hot.install()
    missing = list(hot.missing)
    walls, scaled, hot_ms = [], [], []
    try:
        while True:
            elapsed = time.perf_counter() - start
            enough = elapsed >= seconds and len(hot_ms) >= MIN_HOT_SAMPLES
            if enough or elapsed >= budget or missing:
                break
            first = len(hot.spans)
            inside.clear()
            t0 = time.perf_counter()
            wall = ops.op()
            t1 = time.perf_counter()
            cal.sample()
            if wall is None:
                continue
            wall -= sum(inside)
            walls.append(wall)
            scaled.append(wall * calibrate.scale(cal.around(t0, t1)))
            hot_ms += [
                1e3 * (s[3] - s[2]) * calibrate.scale(cal.around(s[2], s[3]))
                for s in hot.spans[first:]
            ]
    finally:
        hot.uninstall()
    if missing:
        ops.errors.append(f"hot function(s) missing: {missing}")
        ops.failed += 1
    p50 = p90 = float("nan")
    if len(hot_ms) >= 2:
        p50 = statistics.median(hot_ms)
        p90 = statistics.quantiles(hot_ms, n=10, method="inclusive")[8]
    return {
        "wall_s": _median(scaled),
        "units_per_s": ops.units / _median(scaled),
        "call_ms.p50": p50,
        "call_ms.p90": p90,
        "ops": len(walls),
        "op_walls_raw_s": walls,
        "op_walls_s": scaled,
        "raw": {
            "wall_s": _median(walls),
            "units_per_s": ops.units / _median(walls),
        },
        "hot_samples": len(hot_ms),
        "units_per_op": ops.units,
    }


def _traced_loop(ops, cal, workdir, seconds, start, budget):
    """Alternate untraced and traced ops; per-layer metrics are per op.
    Counts must repeat exactly from one traced op to the next."""
    untraced, traced, per_op, dumps, missing = [], [], [], [], []
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and len(traced) >= MIN_TRACE_PAIRS
        if enough or (elapsed >= budget and traced):
            break
        wall, factor = _scaled_op(ops, cal)
        if wall is not None:
            untraced.append(wall * factor)
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall, factor = _scaled_op(ops, cal)
        finally:
            tracer.uninstall()
        missing = tracer.missing
        if wall is not None:
            traced.append(wall * factor)
            per_op.append(
                spans.op_metrics(tracer.names, tracer.spans, tracer.input_digests)
            )
            dumps.append(tracer.spans)
    metrics = {}
    if per_op:
        for name in spans.metric_names():
            values = [m[name] for m in per_op]
            if name.endswith(("_s", "_share")):
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    ops.failed += 1
                    ops.errors.append(f"{name} differs between traced ops: {values}")
    metrics["trace_overhead"] = (
        _median(traced) / _median(untraced) if traced and untraced else float("nan")
    )
    with open(workdir / "spans.json", "w") as fh:
        json.dump({"names": spans.Tracer().names, "ops": dumps}, fh)
    return {
        "per_layer": metrics,
        "ops": len(traced),
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "missing_boundaries": missing,
    }


def _versions():
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# parent: one workload, one run
# ---------------------------------------------------------------------------


def _git_commit():
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _prepare(workload, seed, trace) -> Path:
    workdir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for stem, warm in (("config", False), ("warmup", True)):
        # outputs are named relative to the checkout root, the workers' cwd
        cfg = workload.config(seed, str((workdir / stem).relative_to(ROOT)), warmup=warm)
        (workdir / f"{stem}.json").write_text(json.dumps(cfg))
        (workdir / f"{stem}.yaml").write_text(wl.config_yaml(cfg))
    return workdir


def _worker_env():
    env = dict(os.environ)
    for key in THREAD_VARS:
        env.setdefault(key, "1")
    return env


def _spawn(argv, deadline, cal):
    """Start a worker and wait for it.  Returns (scaled set-up seconds, raw
    set-up seconds, the worker's JSON result).  The set-up is scaled by the
    mean of a kernel sample taken here just before the start and the
    worker's sample just after READY."""
    before = cal.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--worker", *argv],
        stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=str(ROOT),
    )
    try:
        wait = max(1.0, deadline - time.perf_counter())
        if not select.select([proc.stdout], [], [], wait)[0]:
            raise BenchError("worker did not start in time")
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if first.strip() != "READY":
            raise BenchError(f"worker did not start: {first!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        result = json.loads(rest.splitlines()[-1])
        factor = calibrate.scale(0.5 * (before + result["kernel_s"]))
        return setup * factor, setup, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def run_one(workload, seed, seconds, trace, deadline) -> dict:
    workdir = _prepare(workload, seed, trace)
    base = ["--workload", workload.name, "--seed", str(seed),
            "--seconds", str(seconds), "--workdir", str(workdir)]
    setups, raw = [], []
    cal = calibrate.Calibrator()
    if trace:
        base += ["--trace", "1"]
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setup, setup_raw, _ = _spawn(base + ["--setup-only"], deadline, cal)
            setups.append(setup)
            raw.append(setup_raw)
    setup, setup_raw, result = _spawn(base, deadline, cal)
    setups.append(setup)
    raw.append(setup_raw)
    result["setup_samples_s"] = setups
    result["setup_samples_raw_s"] = raw
    cfg = json.loads((workdir / "config.json").read_text())
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "variant": workload.variant(seed),
        "seconds": seconds,
        "trace": bool(trace),
        "commit": _git_commit(),
        "config_yaml": wl.config_yaml(cfg),
        "result": result,
    }
    if trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["per_layer"].items()
        }
    else:
        values = {
            "setup_s": _median(setups),
            "wall_s": result["wall_s"],
            "units_per_s": result["units_per_s"],
            "call_ms.p50": result["call_ms.p50"],
            "call_ms.p90": result["call_ms.p90"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END[name][0]}
            for name, value in values.items()
        }
    finite = all(v["value"] == v["value"] for v in metrics.values())
    record["summary"] = {
        "correct": result["failed"] == 0 and result["attempted"] > 0 and finite,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"] if result["attempted"] else 1,
        "metrics": metrics,
    }
    (workdir / "run.json").write_text(json.dumps(record, indent=1))
    return record


def _print_record(record):
    res = record["result"]
    v = res["versions"]
    print(f"# workload {record['workload']} seed {record['seed']} "
          f"(variant {record['variant']}) trace {int(record['trace'])} "
          f"commit {record['commit']}")
    print(f"# python {v['python']} numpy {v['numpy']} scipy {v['scipy']} "
          f"nproc {v['nproc']} threads {v['threads']}")
    for line in record["config_yaml"].splitlines():
        print(f"#   {line}")
    summ = record["summary"]
    print(f"# ops {res['ops']} attempted {summ['attempted']} failed {summ['failed']} "
          f"failed_frac {summ['failed'] / summ['attempted']:.4f}")
    for err in res["errors"]:
        print(f"# error: {err}")
    if not record["trace"]:
        label = "trials_per_s" if record["workload"] == "verify-commutator" else "steps_per_s"
        print(f"# units_per_s is {label}; {res['units_per_op']} units per op, "
              f"{res['hot_samples']} hot-call samples")
    else:
        if res["missing_boundaries"]:
            print(f"# boundaries not found: {res['missing_boundaries']}")
    for name, m in summ["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced, and write BENCHMARK.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.worker and not args.all and args.workload is None:
        p.error("give --workload or --all")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _check_checkout()
        if not (HERE / "reference.json").is_file():
            raise BenchError("perfbench/reference.json is missing")
        if args.worker:
            return _worker(args)
        deadline = time.perf_counter() + RUN_BUDGET_S
        if not args.all:
            record = run_one(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                             args.trace, deadline)
            _print_record(record)
            print(json.dumps(record["summary"]), flush=True)
            return 0
        records = []
        for name in wl.WORKLOADS:
            for trace in (0, 1):
                record = run_one(wl.WORKLOADS[name], args.seed, args.seconds, trace,
                                 time.perf_counter() + RUN_BUDGET_S)
                _print_record(record)
                records.append(record)
        summary = {
            "correct": all(r["summary"]["correct"] for r in records),
            "attempted": sum(r["summary"]["attempted"] for r in records),
            "failed": sum(r["summary"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}/{name}": m
                for r in records for name, m in r["summary"]["metrics"].items()
            },
        }
        (OUT / "summary.json").write_text(json.dumps(summary, indent=1))
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        print(json.dumps(summary))
        return 0
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
