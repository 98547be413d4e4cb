"""Write perfbench/reference.json: the key outputs of every workload variant.

    python3 perfbench/make_reference.py

Run it on the commit whose numerics are the reference, after a change to a
workload's config.  Every op must pass the workload's own checks (finite,
drift, contraction, growth) before its outputs are stored.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads as wl


def main() -> int:
    run._check_checkout()
    cli = run._import_lpmhd()
    os.chdir(run.ROOT)
    work = run.OUT / "reference"
    work.mkdir(parents=True, exist_ok=True)
    table = {}
    for name, workload in wl.WORKLOADS.items():
        table[name] = {}
        for variant in range(wl.VARIANTS):
            cfg = workload.config(variant, str(work / name))
            path = work / f"{name}.yaml"
            path.write_text(wl.config_yaml(cfg))
            rc = cli.main([workload.subcommand, "--config", str(path)])
            if rc != 0:
                raise SystemExit(f"{name} variant {variant}: exit code {rc}")
            table[name][str(variant)] = {
                "config_digest": wl.config_digest(cfg),
                "keys": wl.key_outputs(workload, cfg),
            }
            print(name, variant, flush=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
