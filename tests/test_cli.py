import csv
import ctypes
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from lpmhd import cli
from lpmhd import diagnostics as diag
from lpmhd import mhd
from lpmhd import spectral as sp
from lpmhd.cli import main
from lpmhd.config import ConfigError, load_config, parse_config


def write(path, text):
    path.write_text(text)
    return str(path)


SIM_TEMPLATE = """
seed: 7
output: {out}
grid: {{dimension: 2, points: 64}}
initial: {{kind: {kind}, amplitude: {amp}}}
time: {{t_final: 0.01, dt: 0.001, cadence: 2}}
norms:
  - {{s: 2.5, p: 2, q: 2, homogeneous: false}}
"""


class TestConfigParsing:
    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("grid: {dimension: 2, points: 64}\nbogus: 1\noutput: x\ninitial: {kind: random}\ntime: {t_final: 1, dt: 0.1}", "simulate")

    def test_unknown_nested_key(self):
        text = """
output: x
grid: {dimension: 2, points: 64, extra: 3}
initial: {kind: random}
time: {t_final: 1, dt: 0.1}
"""
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text, "simulate")

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="missing section"):
            parse_config("grid: {dimension: 2, points: 64}\noutput: x", "simulate")

    def test_subcommand_mismatch(self):
        text = """
subcommand: picard
output: x
grid: {dimension: 2, points: 64}
initial: {kind: random}
time: {t_final: 1, dt: 0.1}
"""
        with pytest.raises(ConfigError, match="declares subcommand"):
            parse_config(text, "simulate")

    def test_unknown_initial_kind(self):
        text = """
output: x
grid: {dimension: 2, points: 64}
initial: {kind: vortex-sheet}
time: {t_final: 1, dt: 0.1}
"""
        with pytest.raises(ConfigError, match="unknown initial data kind"):
            parse_config(text, "simulate")

    def test_round_trip_normalization(self):
        text = """
output: runs/x
seed: 3
grid: {dimension: 2, points: 64}
initial: {kind: orszag-tang}
time: {t_final: 0.5, dt: 0.01, cadence: 5}
norms: [{s: 1.5, p: 2, q: inf}]
"""
        cfg = parse_config(text, "simulate")
        again = parse_config(cfg.to_yaml(), "simulate")
        assert again == cfg
        assert again.norm_specs[0].q == math.inf

    def test_round_trip_picard_and_verify(self):
        picard_text = """
output: runs/p
grid: {dimension: 2, points: 128}
initial: {kind: random, amplitude: 0.05}
time: {t_final: 0.1, dt: 0.001}
picard: {s: 2.5, p: 2, q: 2, n_max: 4}
"""
        cfg = parse_config(picard_text, "picard")
        assert parse_config(cfg.to_yaml(), "picard") == cfg
        verify_text = """
output: runs/v
grid: {dimension: 2, points: 64}
verify:
  ids: [commutator-A2, term-IV]
  trials: 50
  resolutions: [64, 128]
  params: {commutator-A2: {s: 2.5}}
"""
        cfg = parse_config(verify_text, "verify")
        assert parse_config(cfg.to_yaml(), "verify") == cfg

    def test_malformed_yaml(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="malformed YAML"):
            parse_config("grid: [", "simulate")
        cfg = write(tmp_path / "bad.yaml", "grid: [")
        assert main(["simulate", "--config", cfg]) == 2
        assert "malformed YAML" in capsys.readouterr().err

    def test_non_numeric_snapshot_time(self):
        text = SIM_TEMPLATE.format(out="x", kind="random", amp=1.0)
        with pytest.raises(ConfigError, match="snapshots.times"):
            parse_config(text + "snapshots: {times: [soon]}\n", "simulate")

    def test_non_numeric_resolution(self):
        text = """
output: x
grid: {dimension: 2, points: 64}
verify: {ids: [bernstein], resolutions: [x, 64]}
"""
        with pytest.raises(ConfigError, match="verify.resolutions"):
            parse_config(text, "verify")

    @pytest.mark.parametrize(
        "times", ["[true]", "['0.005']", "[0.005, '0.01']", "[.nan]", "[.inf]"],
        ids=["bool", "str", "mixed-str", "nan", "inf"],
    )
    def test_mistyped_snapshot_time(self, times):
        text = SIM_TEMPLATE.format(out="x", kind="random", amp=1.0)
        with pytest.raises(ConfigError, match="snapshots.times"):
            parse_config(text + f"snapshots: {{times: {times}}}\n", "simulate")

    def test_snapshot_times_accept_ints_and_floats(self):
        text = SIM_TEMPLATE.format(out="x", kind="random", amp=1.0)
        cfg = parse_config(text + "snapshots: {times: [0, 0.005, 0.01]}\n", "simulate")
        assert cfg.snapshot_times == (0.0, 0.005, 0.01)

    def test_snapshot_steps_are_nearest(self):
        # dt = 0.001: each time is taken at its nearest step
        text = SIM_TEMPLATE.format(out="x", kind="random", amp=1.0)
        cfg = parse_config(text + "snapshots: {times: [0.0051, 0.0072]}\n", "simulate")
        assert cfg.snapshot_steps == {5: 0.0051, 7: 0.0072}

    @pytest.mark.parametrize("t", ["5.0", "-1.0", "0.0100001"])
    def test_snapshot_time_outside_run(self, t):
        # t_final is 0.01
        text = SIM_TEMPLATE.format(out="x", kind="random", amp=1.0)
        with pytest.raises(ConfigError, match=r"snapshots.times .* outside \[0, t_final"):
            parse_config(text + f"snapshots: {{times: [{t}]}}\n", "simulate")

    @pytest.mark.parametrize(
        "res",
        ["[32.9, 64]", "[true, 64]", "['64', 128]", "[8, 64]", "[48, 64]", "[64, null]"],
        ids=["float", "bool", "str", "too-small", "not-pow2", "null"],
    )
    def test_invalid_resolution(self, res):
        text = f"""
output: x
grid: {{dimension: 2, points: 64}}
verify: {{ids: [bernstein], resolutions: {res}}}
"""
        with pytest.raises(ConfigError, match="verify.resolutions"):
            parse_config(text, "verify")

    @pytest.mark.parametrize(
        "threshold", ["-1", "0", ".nan", ".inf", "-.inf"],
        ids=["negative", "zero", "nan", "inf", "minus-inf"],
    )
    def test_invalid_growth_threshold(self, threshold):
        text = f"""
output: x
grid: {{dimension: 2, points: 64}}
verify: {{ids: [bernstein], resolutions: [64, 128], growth_threshold: {threshold}}}
"""
        with pytest.raises(ConfigError, match="verify.growth_threshold"):
            parse_config(text, "verify")

    def test_repeated_resolution(self):
        text = """
output: x
grid: {dimension: 2, points: 64}
verify: {ids: [bernstein], resolutions: [64, 64]}
"""
        with pytest.raises(ConfigError, match="verify.resolutions"):
            parse_config(text, "verify")

    def test_repeated_id(self):
        text = """
output: x
grid: {dimension: 2, points: 64}
verify: {ids: [term-I, term-I]}
"""
        with pytest.raises(ConfigError, match="verify.ids .* repeat"):
            parse_config(text, "verify")

    @pytest.mark.parametrize("value", ["inf", "Infinity", ".inf"])
    def test_params_pq_accept_inf(self, value):
        text = f"""
output: x
grid: {{dimension: 2, points: 32}}
verify: {{ids: [vector-maximal], params: {{vector-maximal: {{p: 3, q: {value}}}}}}}
"""
        cfg = parse_config(text, "verify")
        assert cfg.verify_params["vector-maximal"] == {"p": 3.0, "q": math.inf}
        assert parse_config(cfg.to_yaml(), "verify") == cfg

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("{q: '2'}", "q"),
            ("{p: [2]}", "p"),
            ("{s: high}", "s"),
            ("{s: true}", "s"),
            ("{decay: '2.0'}", "decay"),
            ("{n: 64.5}", "n"),
            ("{kmax: '4'}", "kmax"),
            ("{family: 8.0}", "family"),
        ],
        ids=["q-str", "p-list", "s-str", "s-bool", "decay-str", "n-float",
             "kmax-str", "family-float"],
    )
    def test_mistyped_params(self, tmp_path, capsys, entry, key):
        text = f"""
output: {tmp_path / 'vrun'}
grid: {{dimension: 2, points: 32}}
verify: {{ids: [vector-maximal], trials: 1, params: {{vector-maximal: {entry}}}}}
"""
        with pytest.raises(ConfigError, match=f"key '{key}' in verify.params.vector-maximal"):
            parse_config(text, "verify")
        assert main(["verify", "--config", write(tmp_path / "v.yaml", text)]) == 2
        assert "verify.params.vector-maximal" in capsys.readouterr().err
        assert not (tmp_path / "vrun").exists()

    def test_params_kmax_null(self):
        text = """
output: x
grid: {dimension: 2, points: 32}
verify: {ids: [bernstein], params: {bernstein: {kmax: null, k: 2}}}
"""
        assert parse_config(text, "verify").verify_params == {
            "bernstein": {"kmax": None, "k": 2}
        }

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("{s: 2.5, p: 2, q: 2, homogeneous: 'false'}", "homogeneous"),
            ("{s: 2.5, p: 2, q: 2, homogeneous: 'no'}", "homogeneous"),
            ("{s: 2.5, p: 2, q: 2, homogeneous: 1}", "homogeneous"),
            ("{s: true, p: 2, q: 2}", "s"),
            ("{s: '1.5', p: 2, q: 2}", "s"),
        ],
        ids=["hom-str-false", "hom-str-no", "hom-int", "s-bool", "s-str"],
    )
    def test_mistyped_norm_spec(self, tmp_path, capsys, spec, key):
        text = SIM_TEMPLATE.split("norms:")[0].format(
            out=tmp_path / "run", kind="random", amp=1.0
        )
        text += f"norms: [{spec}]\n"
        with pytest.raises(ConfigError, match=f"key '{key}' in norms\\[0\\]"):
            parse_config(text, "simulate")
        assert main(["simulate", "--config", write(tmp_path / "c.yaml", text)]) == 2
        assert f"key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "subcommand, old, new, key",
        [
            ("simulate", "t_final: 0.01", "t_final: .inf", "t_final"),
            ("simulate", "t_final: 0.01", "t_final: .nan", "t_final"),
            ("simulate", "dt: 0.001", "dt: .inf", "dt"),
            ("simulate", "amplitude: 1.0", "amplitude: .nan", "amplitude"),
            ("simulate", "amplitude: 1.0", "amplitude: 1.0, decay: .inf", "decay"),
            ("simulate", "s: 2.5", "s: .nan", "s"),
            ("picard", "s: 2.5", "s: -.inf", "s"),
            ("verify", "{}", "{s: .nan}", "s"),
            ("verify", "{}", "{decay: .inf}", "decay"),
            ("verify", "{}", "{amplitude: .nan}", "amplitude"),
        ],
        ids=["t_final-inf", "t_final-nan", "dt-inf", "amplitude-nan", "decay-inf",
             "norm-s-nan", "picard-s-inf", "params-s-nan", "params-decay-inf",
             "params-amplitude-nan"],
    )
    def test_non_finite_float_exit_2(self, tmp_path, capsys, subcommand, old, new, key):
        base = {
            "simulate": SIM_TEMPLATE.format(out=tmp_path / "run", kind="random", amp=1.0),
            "picard": f"""
output: {tmp_path / 'run'}
grid: {{dimension: 2, points: 16}}
initial: {{kind: random, amplitude: 1.0}}
time: {{t_final: 0.01, dt: 0.001}}
picard: {{s: 2.5, p: 2, q: 2, n_max: 1}}
""",
            "verify": f"""
output: {tmp_path / 'run'}
grid: {{dimension: 2, points: 16}}
verify: {{ids: [product], trials: 1, params: {{product: {{}}}}}}
""",
        }[subcommand]
        assert old in base
        text = base.replace(old, new, 1)
        with pytest.raises(ConfigError, match=f"key '{key}' .* must be a finite number"):
            parse_config(text, subcommand)
        assert main([subcommand, "--config", write(tmp_path / "c.yaml", text)]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_picard_n_max_constraint(self):
        text = """
output: x
grid: {{dimension: 2, points: 64}}
initial: {{kind: random}}
time: {{t_final: 0.01, dt: 0.001}}
picard: {{s: 2.5, p: 2, q: 2, n_max: {n}}}
"""
        cfg = parse_config(text.format(n=3), "picard")
        assert cfg.picard_n_max == 3
        with pytest.raises(ConfigError, match="n_max"):
            parse_config(text.format(n=4), "picard")  # j_max - 2 = 3 at N=64

    @pytest.mark.parametrize("subcommand", ["simulate", "picard", "verify"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, subcommand):
        # a negative seed used to reach numpy's SeedSequence: a traceback, exit 1
        text = {
            "simulate": SIM_TEMPLATE.format(out=tmp_path / "run", kind="random", amp=1.0),
            "picard": f"""
seed: 7
output: {tmp_path / 'run'}
grid: {{dimension: 2, points: 16}}
initial: {{kind: random}}
time: {{t_final: 0.01, dt: 0.001}}
picard: {{s: 2.5, n_max: 1}}
""",
            "verify": f"""
seed: 7
output: {tmp_path / 'run'}
grid: {{dimension: 2, points: 16}}
verify: {{ids: [bernstein], trials: 1}}
""",
        }[subcommand].replace("seed: 7", "seed: -3")
        with pytest.raises(ConfigError, match="seed = -3"):
            parse_config(text, subcommand)
        assert main([subcommand, "--config", write(tmp_path / "c.yaml", text)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: seed = -3 must be a non-negative integer"
        ]
        assert not (tmp_path / "run").exists()


# config.yaml bytes of fully defaulted configs, one per subcommand, and of an
# input whose two norms entries alias one mapping: the parsed document is
# written back in place, so these pin the write-back against the schema
_DEFAULTED_YAML = {
    "simulate": (
        """
output: o
grid: {dimension: 2, points: 16}
initial: {kind: random}
time: {t_final: 1, dt: 0.5}
norms: [{s: 1, p: inf, q: inf}]
""",
        """\
grid:
  dimension: 2
  points: 16
initial:
  amplitude: 1.0
  decay: 3.0
  kind: random
norms:
- homogeneous: true
  p: inf
  q: inf
  s: 1.0
output: o
seed: 0
snapshots:
  times: []
subcommand: simulate
time:
  cadence: 1
  dt: 0.5
  t_final: 1.0
""",
    ),
    "picard": (
        """
output: o
grid: {dimension: 2, points: 64}
initial: {kind: orszag-tang}
time: {t_final: 1, dt: 0.5}
picard: {s: 2, p: inf, q: inf, n_max: 2}
""",
        """\
grid:
  dimension: 2
  points: 64
initial:
  amplitude: 1.0
  decay: 3.0
  kind: orszag-tang
output: o
picard:
  n_max: 2
  p: inf
  q: inf
  s: 2.0
seed: 0
subcommand: picard
time:
  dt: 0.5
  t_final: 1.0
""",
    ),
    "verify": (
        """
output: o
grid: {dimension: 2, points: 16}
verify: {ids: [bernstein, vector-maximal],
         params: {bernstein: {kmax: null}, vector-maximal: {q: inf}}}
""",
        """\
grid:
  dimension: 2
  points: 16
output: o
seed: 0
subcommand: verify
verify:
  growth_threshold: 1.2
  ids:
  - bernstein
  - vector-maximal
  params:
    bernstein:
      kmax: null
    vector-maximal:
      q: .inf
  resolutions: []
  trials: 200
""",
    ),
}

_ALIASED_NORMS_YAML = """\
grid:
  dimension: 2
  points: 16
initial:
  amplitude: 1.0
  decay: 3.0
  kind: random
norms:
- homogeneous: true
  p: 2.0
  q: 2.0
  s: 1.0
- homogeneous: true
  p: 2.0
  q: 2.0
  s: 1.0
output: o
seed: 0
snapshots:
  times: []
subcommand: simulate
time:
  cadence: 1
  dt: 0.5
  t_final: 1.0
"""


class TestConfigYaml:
    @pytest.mark.parametrize("subcommand", sorted(_DEFAULTED_YAML))
    def test_defaulted_bytes(self, subcommand):
        text, expected = _DEFAULTED_YAML[subcommand]
        assert parse_config(text, subcommand).to_yaml() == expected

    def test_aliased_norms_dump_plain(self):
        text = """
output: o
grid: {dimension: 2, points: 16}
initial: {kind: random}
time: {t_final: 1, dt: 0.5}
norms: [&n {s: 1, p: 2, q: 2}, *n]
"""
        assert parse_config(text, "simulate").to_yaml() == _ALIASED_NORMS_YAML

    def test_cli_ids_config_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = """
output: vrun
seed: 5
grid: {dimension: 2, points: 16}
verify:
  ids: [product, bernstein, vector-maximal]
  trials: 1
  params: {bernstein: {k: 2, kmax: null}, product: {s: 2},
           vector-maximal: {q: inf, family: 2}}
"""
        args = ["verify", "--config", write(tmp_path / "v.yaml", text),
                "--ids", "vector-maximal, bernstein"]
        assert main(args) == 0
        assert (tmp_path / "vrun" / "config.yaml").read_text() == """\
grid:
  dimension: 2
  points: 16
output: vrun
seed: 5
subcommand: verify
verify:
  growth_threshold: 1.2
  ids:
  - vector-maximal
  - bernstein
  params:
    bernstein:
      k: 2
      kmax: null
    vector-maximal:
      family: 2
      q: .inf
  resolutions: []
  trials: 1
"""


class TestSimulate:
    def test_alfven_energy_constant(self, tmp_path):
        cfg = write(
            tmp_path / "a.yaml",
            SIM_TEMPLATE.format(out=tmp_path / "run", kind="alfven", amp=0.5),
        )
        assert main(["simulate", "--config", cfg]) == 0
        lines = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        header = lines[1].split(",")
        idx = header.index("energy")
        energies = [float(row.split(",")[idx]) for row in lines[2:]]
        assert max(energies) - min(energies) <= 1e-10 * max(energies)

    def test_determinism(self, tmp_path):
        # taylor-green, b = 0: the B(t) column (and everything else) must
        # reproduce bit for bit on a rerun with the same seed
        outs = []
        for tag in ("r1", "r2"):
            cfg = write(
                tmp_path / f"{tag}.yaml",
                SIM_TEMPLATE.format(out=tmp_path / tag, kind="taylor-green", amp=1.0),
            )
            assert main(["simulate", "--config", cfg]) == 0
            body = (tmp_path / tag / "diagnostics.csv").read_text().splitlines()[1:]
            outs.append(body)
        assert outs[0] == outs[1]

    def test_times_stamped_on_grid(self, tmp_path):
        # dt = 0.1 to t = 2: every row reads m*dt exactly, the last 2.0
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=0.1)
        text = text.replace("points: 64", "points: 16").replace("cadence: 2", "cadence: 1")
        text = text.replace("dt: 0.001", "dt: 0.1").replace("t_final: 0.01", "t_final: 2.0")
        cfg = write(tmp_path / "t.yaml", text)
        assert main(["simulate", "--config", cfg]) == 0
        lines = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        times = [float(row.split(",")[0]) for row in lines[2:]]
        assert times == [m * 0.1 for m in range(21)]
        assert times[-1] == 2.0

    def test_cfl_abort(self, tmp_path, capsys):
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text = text.replace("dt: 0.001", "dt: 1.0").replace("t_final: 0.01", "t_final: 2.0")
        cfg = write(tmp_path / "c.yaml", text)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "CFL" in err and "0.5*h/max|z|" in err

    def test_late_cfl_violations_one_line(self, tmp_path, capsys):
        # the bound is 0.0747 at t = 0, so the run starts; it then dips below
        # dt on steps 3-10, which used to print one CflWarning each; the run
        # finishes and writes every row, then exits 5
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text = text.replace("points: 64", "points: 16").replace("dt: 0.001", "dt: 0.0735")
        text = text.replace("t_final: 0.01", "t_final: 0.735")
        assert main(["simulate", "--config", write(tmp_path / "c.yaml", text)]) == 5
        assert capsys.readouterr().err.splitlines() == [
            "warning: dt = 0.0735 broke the advective CFL bound 0.5*h/max|z| "
            "on 8 of 10 steps, first at t = 0.147"
        ]
        rows = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 2 + 6

    def test_non_finite_state_exit_4(self, tmp_path, monkeypatch, capsys):
        # step 3 returns a NaN state: its row is written, then the run stops
        grid = sp.Grid(2, 16)
        nan = sp.RealField(grid, coeffs=np.full((2,) + grid.spectral_shape, np.nan),
                           solenoidal=True)
        steps = []
        step = mhd.step

        def failing_step(state, dt):
            steps.append(state.t)
            new = step(state, dt)
            return mhd.ElsasserState(nan, nan, new.t) if len(steps) == 3 else new

        monkeypatch.setattr(mhd, "step", failing_step)
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text = text.replace("points: 64", "points: 16").replace("cadence: 2", "cadence: 1")
        assert main(["simulate", "--config", write(tmp_path / "n.yaml", text)]) == 4
        assert len(steps) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite state at t = 0.003; the run stops after writing its row"
        ]
        lines = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        rows = list(csv.reader(lines[2:]))
        assert [float(row[0]) for row in rows] == [0.0, 0.001, 0.002, 0.003]
        assert all(math.isfinite(float(x)) for row in rows[:-1] for x in row)
        assert math.isnan(float(rows[-1][1]))

    def test_non_finite_state_after_late_cfl_exit_4(self, tmp_path, monkeypatch, capsys):
        # the CFL bound breaks from step 3 on and step 10 returns a NaN state:
        # both lines are printed, and the non-finite state decides the code
        grid = sp.Grid(2, 16)
        nan = sp.RealField(grid, coeffs=np.full((2,) + grid.spectral_shape, np.nan),
                           solenoidal=True)
        steps = []
        step = mhd.step

        def failing_step(state, dt):
            steps.append(state.t)
            new = step(state, dt)
            return mhd.ElsasserState(nan, nan, new.t) if len(steps) == 10 else new

        monkeypatch.setattr(mhd, "step", failing_step)
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text = text.replace("points: 64", "points: 16").replace("dt: 0.001", "dt: 0.0735")
        text = text.replace("t_final: 0.01", "t_final: 0.735")
        assert main(["simulate", "--config", write(tmp_path / "c.yaml", text)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite state at t = 0.735; the run stops after writing its row",
            "warning: dt = 0.0735 broke the advective CFL bound 0.5*h/max|z| "
            "on 8 of 10 steps, first at t = 0.147",
        ]

    def test_step_count_validated_before_output(self, tmp_path, capsys):
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text = text.replace("t_final: 0.01", "t_final: 0.0105")
        assert main(["simulate", "--config", write(tmp_path / "m.yaml", text)]) == 2
        assert "integer multiple of dt" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_snapshots_written(self, tmp_path):
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text += "snapshots: {times: [0.01]}\n"
        cfg = write(tmp_path / "s.yaml", text)
        assert main(["simulate", "--config", cfg]) == 0
        snap = tmp_path / "run" / "snapshots" / "u_t0.010000.npz"
        assert snap.exists()
        field, t = sp.load_snapshot(snap)
        assert t == pytest.approx(0.01)
        assert field.ncomp == 2

    def test_snapshot_times_outside_run_exit_2(self, tmp_path, capsys):
        # times after t_final = 0.01 or before 0 used to be dropped silently
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text += "snapshots: {times: [5.0, -1.0]}\n"
        assert main(["simulate", "--config", write(tmp_path / "s.yaml", text)]) == 2
        assert "snapshots.times entry 5.0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_snapshot_times_on_one_step_exit_2(self, tmp_path, capsys):
        # at dt = 0.001 the three times all fall on step 5
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text += "snapshots: {times: [0.0051, 0.0054, 0.0049]}\n"
        assert main(["simulate", "--config", write(tmp_path / "s.yaml", text)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: snapshots.times entries 0.0051 and 0.0054 both fall on step 5 "
            "(dt = 0.001)"
        ]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "times, t_final, first, second",
        [("[1.0e-7, 2.0e-7]", "3.0e-7", "1e-07", "2e-07"),
         ("[0, 4.0e-7]", "4.0e-7", "0.0", "4e-07")],
        ids=["1e-7-2e-7", "0-4e-7"],
    )
    def test_snapshot_names_collide_exit_2(self, tmp_path, capsys, times, t_final,
                                           first, second):
        # two steps whose times format alike used to overwrite one snapshot file
        text = f"""
output: {tmp_path / 'run'}
grid: {{dimension: 2, points: 16}}
initial: {{kind: orszag-tang}}
time: {{t_final: {t_final}, dt: 1.0e-7}}
snapshots: {{times: {times}}}
"""
        assert main(["simulate", "--config", write(tmp_path / "s.yaml", text)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: snapshots.times entries {first} and {second} both name their "
            "snapshot files u_t0.000000.npz and b_t0.000000.npz"
        ]
        assert not (tmp_path / "run").exists()

    def test_norm_labels_collide_exit_2(self, tmp_path, capsys):
        # both entries format as F[s=1.5|p=2|q=2|hom]; the record kept one
        # value, and both columns read the second norm's
        text = f"""
output: {tmp_path / 'run'}
grid: {{dimension: 2, points: 16}}
initial: {{kind: orszag-tang}}
time: {{t_final: 0.001, dt: 0.001}}
norms:
  - {{s: 1.5, p: 2, q: 2}}
  - {{s: 1.5000001, p: 2, q: 2}}
"""
        assert main(["simulate", "--config", write(tmp_path / "n.yaml", text)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: norms[0] and norms[1] are different norms that share the column "
            "norm_F[s=1.5|p=2|q=2|hom]"
        ]
        assert not (tmp_path / "run").exists()

    def test_io_failure(self, tmp_path):
        text = SIM_TEMPLATE.format(out="/dev/null/nope", kind="orszag-tang", amp=1.0)
        cfg = write(tmp_path / "bad.yaml", text)
        assert main(["simulate", "--config", cfg]) == 3

    def test_streamed_csv_matches_write_csv(self, tmp_path, monkeypatch):
        records = []
        record = diag.record

        def capture(*args, **kwargs):
            records.append(record(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(diag, "record", capture)
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        cfg_path = write(tmp_path / "o.yaml", text)
        assert main(["simulate", "--config", cfg_path]) == 0
        cfg = load_config(cfg_path, "simulate")
        ref = diag.csv_header(cfg.grid, cfg.norm_specs, timestamp="T") + "".join(
            diag.csv_line(rec, cfg.norm_specs) for rec in records
        )
        streamed = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        assert streamed[0].startswith("# created: ")
        assert streamed[1:] == ref.splitlines()[1:]

    def test_holds_one_record(self, tmp_path, monkeypatch):
        # the trapezoid rule of the blow-up integral reads only the previous
        # record, so a run keeps no other: each call leaves at most that one
        # and the new one alive
        refs, alive = [], []
        record = diag.record

        def spy(*args, **kwargs):
            rec = record(*args, **kwargs)
            refs.append(weakref.ref(rec))
            alive.append(sum(ref() is not None for ref in refs))
            return rec

        monkeypatch.setattr(diag, "record", spy)
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        text = text.replace("points: 64", "points: 16").replace("cadence: 2", "cadence: 1")
        text = text.replace("t_final: 0.01", "t_final: 0.02")
        assert main(["simulate", "--config", write(tmp_path / "h.yaml", text)]) == 0
        assert len(alive) == 21
        assert max(alive) <= 2

    def test_failed_run_keeps_recorded_rows(self, tmp_path, monkeypatch):
        full = SIM_TEMPLATE.format(out=tmp_path / "full", kind="orszag-tang", amp=1.0)
        assert main(["simulate", "--config", write(tmp_path / "f.yaml", full)]) == 0
        real_step = mhd.step
        taken = []

        def failing_step(state, dt):
            if len(taken) == 5:
                raise RuntimeError("step failed")
            taken.append(dt)
            return real_step(state, dt)

        monkeypatch.setattr(mhd, "step", failing_step)
        cut = SIM_TEMPLATE.format(out=tmp_path / "cut", kind="orszag-tang", amp=1.0)
        with pytest.raises(RuntimeError, match="step failed"):
            main(["simulate", "--config", write(tmp_path / "c.yaml", cut)])
        # cadence 2: rows for steps 0, 2 and 4 were recorded before step 6 failed
        kept = (tmp_path / "cut" / "diagnostics.csv").read_text().splitlines()
        ref = (tmp_path / "full" / "diagnostics.csv").read_text().splitlines()
        assert len(kept) == 2 + 3
        assert kept[1:] == ref[1:5]

    def test_internal_value_error_propagates(self, tmp_path, monkeypatch):
        # a bare ValueError is a bug, not a validation error: no exit 2
        def broken_step(state, dt):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(mhd, "step", broken_step)
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        with pytest.raises(ValueError, match="broadcast"):
            main(["simulate", "--config", write(tmp_path / "v.yaml", text)])


class TestPicardCli:
    def _config(self, tmp_path, n_max):
        return write(
            tmp_path / "p.yaml",
            f"""
output: {tmp_path / 'prun'}
seed: 5
grid: {{dimension: 2, points: 64}}
initial: {{kind: random, amplitude: 0.05}}
time: {{t_final: 0.01, dt: 0.001}}
picard: {{s: 2.5, p: 2, q: 2, n_max: {n_max}}}
""",
        )

    def test_single_iterate_row(self, tmp_path):
        cfg = self._config(tmp_path, 1)
        assert main(["picard", "--config", cfg]) == 0
        lines = (tmp_path / "prun" / "picard.csv").read_text().splitlines()
        assert lines[0] == "n,sup_diff_norm,ratio"
        assert len(lines) == 2
        assert lines[1].endswith(",")  # empty ratio column

    def test_contraction_rows(self, tmp_path):
        cfg = self._config(tmp_path, 3)
        assert main(["picard", "--config", cfg]) == 0
        lines = (tmp_path / "prun" / "picard.csv").read_text().splitlines()
        assert len(lines) == 4
        ratios = [float(row.split(",")[2]) for row in lines[2:]]
        assert all(r < 1 for r in ratios)

    def test_non_finite_diff_norm_exit_4(self, tmp_path, monkeypatch, capsys):
        # picard.csv keeps every row; the first non-finite norm sets the code
        real = mhd.picard_iterate

        def nan_iterate(*args, **kwargs):
            iterates = real(*args, **kwargs)
            iterates[1].diff_norms[3] = math.nan
            return iterates

        monkeypatch.setattr(mhd, "picard_iterate", nan_iterate)
        assert main(["picard", "--config", self._config(tmp_path, 3)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite difference norm at Picard iterate n = 2"
        ]
        rows = list(csv.reader((tmp_path / "prun" / "picard.csv").read_text().splitlines()))
        assert [row[0] for row in rows] == ["n", "1", "2", "3"]
        assert math.isnan(float(rows[2][1]))
        assert math.isfinite(float(rows[3][1]))

    def test_n_max_validation_exit(self, tmp_path, capsys):
        cfg = self._config(tmp_path, 9)
        assert main(["picard", "--config", cfg]) == 2
        assert "n_max" in capsys.readouterr().err

    def test_step_count_validated_before_output(self, tmp_path, capsys):
        cfg = self._config(tmp_path, 2)
        with open(cfg) as fh:
            text = fh.read().replace("t_final: 0.01", "t_final: 0.0105")
        assert main(["picard", "--config", write(tmp_path / "m.yaml", text)]) == 2
        assert "integer multiple of dt" in capsys.readouterr().err
        assert not (tmp_path / "prun").exists()

    @pytest.mark.parametrize("picard, key", [
        ("s: 0.5, p: 2, q: 2", "picard.s"),
        ("s: 1, p: 2, q: 2", "picard.s"),
        ("s: 2.5, p: inf", "picard.p"),
        ("s: 2.5, p: 2, q: 1", "picard.q"),
    ])
    def test_difference_norm_validated_before_output(self, tmp_path, capsys, picard, key):
        # picard_iterate records the inhomogeneous F^(s-1)_(p,q) norm
        with open(self._config(tmp_path, 2)) as fh:
            text = fh.read().replace("s: 2.5, p: 2, q: 2", picard)
        assert main(["picard", "--config", write(tmp_path / "m.yaml", text)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "prun").exists()


class TestVerifyCli:
    def _config(self, tmp_path, ids="[bernstein]", extra=""):
        return write(
            tmp_path / "v.yaml",
            f"""
output: {tmp_path / 'vrun'}
seed: 2
grid: {{dimension: 2, points: 64}}
verify: {{ids: {ids}, trials: 5{extra}}}
""",
        )

    def test_basic_run(self, tmp_path):
        cfg = self._config(tmp_path)
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads(
            (tmp_path / "vrun" / "reports" / "bernstein.json").read_text()
        )
        assert report["inequality_id"] == "bernstein"
        assert (tmp_path / "vrun" / "summary.csv").exists()

    def test_unknown_id_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["verify", "--config", cfg, "--ids", "unknown-name"]) == 2
        assert "unknown inequality id" in capsys.readouterr().err

    def test_empty_ids_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, ids="[]")
        assert main(["verify", "--config", cfg]) == 2
        assert "nothing to verify" in capsys.readouterr().err

    def test_repeated_cli_ids_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        args = ["verify", "--config", cfg, "--ids", "term-I,bernstein,term-I"]
        assert main(args) == 2
        assert "--ids ['term-I', 'bernstein', 'term-I'] repeat" in capsys.readouterr().err
        assert not (tmp_path / "vrun").exists()

    def test_hypothesis_error_writes_nothing(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path, ids="[bernstein, term-II]", extra=", params: {term-II: {s: 0.0}}"
        )
        assert main(["verify", "--config", cfg]) == 2
        assert "term-II" in capsys.readouterr().err
        assert not (tmp_path / "vrun").exists()

    def test_sweep_mode(self, tmp_path):
        cfg = self._config(tmp_path, extra=", resolutions: [64, 128]")
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads(
            (tmp_path / "vrun" / "reports" / "bernstein.json").read_text()
        )
        assert report["resolutions"] == [64, 128]
        assert report["max_growth"] <= 1.2

    def test_sweep_runs_in_grid_dimension(self, tmp_path):
        cfg = write(
            tmp_path / "v3.yaml",
            f"""
output: {tmp_path / 'vrun'}
grid: {{dimension: 3, points: 16}}
verify: {{ids: [bernstein, commutator-A2], trials: 1, resolutions: [16, 32]}}
""",
        )
        assert main(["verify", "--config", cfg]) == 0
        for iid in ("bernstein", "commutator-A2"):
            sweep = json.loads(
                (tmp_path / "vrun" / "reports" / f"{iid}.json").read_text()
            )
            assert [r["dimension"] for r in sweep["reports"]] == [3, 3]
            assert [r["points"] for r in sweep["reports"]] == [16, 32]
        rows = list(csv.reader((tmp_path / "vrun" / "summary.csv").open(newline="")))
        assert [json.loads(row[1])["d"] for row in rows[1:]] == [3, 3]

    def test_param_outside_domain_exit_2(self, tmp_path, capsys):
        # family: 0 used to end in numpy's "need at least one array to stack"
        cfg = self._config(
            tmp_path, ids="[vector-maximal]", extra=", params: {vector-maximal: {family: 0}}"
        )
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: inequality 'vector-maximal' requires family >= 1, got 0"
        ]
        assert not (tmp_path / "vrun").exists()

    def test_zero_amplitude_exit_2(self, tmp_path, capsys):
        # all-zero draws used to end in a ZeroDivisionError traceback (exit 1)
        cfg = self._config(
            tmp_path, ids="[riesz-bounded]", extra=", params: {riesz-bounded: {amplitude: 0}}"
        )
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: inequality 'riesz-bounded' requires amplitude > 0, got 0.0"
        ]
        assert not (tmp_path / "vrun").exists()

    def test_params_q_inf_runs(self, tmp_path):
        cfg = self._config(
            tmp_path, ids="[vector-maximal]",
            extra=", params: {vector-maximal: {q: inf, family: 2}}",
        )
        assert main(["verify", "--config", cfg]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        # strict JSON: q is spelled "inf", as in config.yaml, not Infinity
        report = json.loads(
            (tmp_path / "vrun" / "reports" / "vector-maximal.json").read_text(),
            parse_constant=reject,
        )
        assert report["params"]["q"] == "inf"
        assert report["params"]["family"] == 2
        with (tmp_path / "vrun" / "summary.csv").open(newline="") as fh:
            _, row = csv.reader(fh)
        params = json.loads(row[1], parse_constant=reject)
        assert params["q"] == "inf" and params["family"] == 2

    def test_single_resolution_is_run(self, tmp_path):
        cfg = self._config(
            tmp_path, ids="[bernstein, commutator-A2]", extra=", resolutions: [128]"
        )
        assert main(["verify", "--config", cfg]) == 0
        for iid in ("bernstein", "commutator-A2"):
            report = json.loads(
                (tmp_path / "vrun" / "reports" / f"{iid}.json").read_text()
            )
            assert report["points"] == 128

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_must_be_positive(self, tmp_path, capsys, trials):
        cfg = write(
            tmp_path / "v.yaml",
            f"""
output: {tmp_path / 'vrun'}
grid: {{dimension: 2, points: 64}}
verify: {{ids: [commutator-A2], trials: {trials}}}
""",
        )
        assert main(["verify", "--config", cfg]) == 2
        assert "verify.trials" in capsys.readouterr().err

    def test_grouped_reports_match_single_id_runs(self, tmp_path):
        ids = ("commutator-A2", "commutator-A3", "term-I", "term-II",
               "term-III", "term-IV")
        text = """
output: {out}
seed: 5
grid: {{dimension: 2, points: 64}}
verify:
  ids: [{ids}]
  trials: 2
  resolutions: [32, 64]
  params: {{term-III: {{s: 2.5}}}}
""".replace("{ids}", ", ".join(ids))
        cfg = write(tmp_path / "all.yaml", text.format(out=tmp_path / "all"))
        assert main(["verify", "--config", cfg]) == 0
        summary = (tmp_path / "all" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == list(ids)
        for iid in ids:
            out = tmp_path / iid
            one = write(tmp_path / f"{iid}.yaml", text.format(out=out))
            assert main(["verify", "--config", one, "--ids", iid]) == 0
            name = f"{iid}.json"
            assert (out / "reports" / name).read_bytes() == (
                tmp_path / "all" / "reports" / name
            ).read_bytes()
            assert (out / "summary.csv").read_text().splitlines()[1] == summary[
                1 + ids.index(iid)
            ]

    def test_cli_ids_config_reruns(self, tmp_path):
        # config.yaml lists the ids that ran, with only their params, so a
        # rerun from it writes the same reports and summary
        cfg = self._config(
            tmp_path, ids="[product, bernstein]", extra=", params: {product: {s: 2.5}}"
        )
        assert main(["verify", "--config", cfg, "--ids", "riesz-bounded"]) == 0
        first = tmp_path / "vrun"
        written = yaml.safe_load((first / "config.yaml").read_text())
        assert written["verify"]["ids"] == ["riesz-bounded"]
        assert written["verify"]["params"] == {}
        written["output"] = str(tmp_path / "rerun")
        again = write(tmp_path / "again.yaml", yaml.safe_dump(written))
        assert main(["verify", "--config", again]) == 0
        second = tmp_path / "rerun"
        assert sorted(p.name for p in (second / "reports").iterdir()) == [
            "riesz-bounded.json"
        ]
        for name in ("summary.csv", "reports/riesz-bounded.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("res", ["[64]", "[64, 128]"], ids=["single", "sweep"])
    def test_params_n_exit_2(self, tmp_path, capsys, res):
        # the resolution has one owner: verify.resolutions (or grid.points)
        cfg = self._config(
            tmp_path, ids="[riesz-bounded]",
            extra=f", resolutions: {res}, params: {{riesz-bounded: {{n: 32}}}}",
        )
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "key 'n' in verify.params.riesz-bounded" in err
        assert "verify.resolutions" in err and "grid.points" in err
        assert not (tmp_path / "vrun").exists()

    @pytest.mark.parametrize(
        "res", ["[32.9, 64]", "[true, '64']", "[64, 100]"],
        ids=["float", "bool-str", "not-pow2"],
    )
    def test_invalid_resolution_exit_2(self, tmp_path, capsys, res):
        cfg = self._config(tmp_path, extra=f", resolutions: {res}")
        assert main(["verify", "--config", cfg]) == 2
        assert "verify.resolutions" in capsys.readouterr().err
        assert not (tmp_path / "vrun").exists()

    @pytest.mark.parametrize("threshold", ["-1", ".nan"])
    def test_invalid_growth_threshold_exit_2(self, tmp_path, capsys, threshold):
        cfg = self._config(
            tmp_path, extra=f", resolutions: [64, 128], growth_threshold: {threshold}"
        )
        assert main(["verify", "--config", cfg]) == 2
        assert "verify.growth_threshold" in capsys.readouterr().err
        assert not (tmp_path / "vrun").exists()

    def test_growth_threshold_failure_exit_1(self, tmp_path):
        # an impossible threshold makes an otherwise healthy sweep fail
        cfg = self._config(
            tmp_path, extra=", resolutions: [64, 128], growth_threshold: 0.5"
        )
        assert main(["verify", "--config", cfg]) == 1


def _malformed_snapshots():
    """A bare .npy array and an archive whose dimension is a length-2 array,
    as file contents."""
    field = sp.random_solenoidal(sp.Grid(2, 16), seed=1)
    npy, npz = io.BytesIO(), io.BytesIO()
    np.save(npy, field.values)
    sp.save_snapshot(field, npz)
    npz.seek(0)
    with np.load(npz) as data:
        archive = dict(data)
    archive["dimension"] = np.array([2, 2])
    npz = io.BytesIO()
    np.savez(npz, **archive)
    return [pytest.param(npy.getvalue(), id="bare-npy"),
            pytest.param(npz.getvalue(), id="dimension-array")]


class TestSnapshotTools:
    def _snapshot(self, tmp_path):
        grid = sp.Grid(2, 64)
        f = sp.random_band_limited(grid, seed=1)
        path = tmp_path / "field.npz"
        sp.save_snapshot(f, path)
        return grid, f, path

    def test_norm_json(self, tmp_path, capsys):
        _, f, path = self._snapshot(tmp_path)
        assert main(["norm", "--field", str(path), "--s", "1.5",
                     "--p", "2", "--q", "2", "--homogeneous"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["field-id"] == "field"
        from lpmhd.spaces import NormSpec, tl_norm

        assert out["value"] == pytest.approx(tl_norm(f, NormSpec(1.5, 2, 2)))

    def test_norm_inf(self, tmp_path, capsys):
        _, f, path = self._snapshot(tmp_path)
        assert main(["norm", "--field", str(path), "--s", "0",
                     "--p", "inf", "--q", "inf", "--homogeneous"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p"] is None and out["q"] is None

    @pytest.mark.parametrize("pq", ["2", "inf"])
    def test_norm_non_finite_exit_4(self, tmp_path, capsys, pq):
        # one NaN value: the record is still strict JSON, spelling it "nan"
        grid = sp.Grid(2, 16)
        values = sp.random_band_limited(grid, seed=1).values.copy()
        values[0, 3, 5] = np.nan
        path = tmp_path / "bad.npz"
        sp.save_snapshot(sp.RealField(grid, values=values), path)
        assert main(["norm", "--field", str(path), "--s", "0",
                     "--p", pq, "--q", pq, "--homogeneous"]) == 4
        captured = capsys.readouterr()

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        out = json.loads(captured.out, parse_constant=reject)
        assert out["field-id"] == "bad" and out["value"] == "nan"
        assert captured.err.splitlines() == [
            f"error: the norm of field bad ({path}) is not finite"
        ]

    def test_decompose_reconstructs(self, tmp_path):
        grid, f, path = self._snapshot(tmp_path)
        outdir = tmp_path / "blocks"
        assert main(["decompose", "--field", str(path), "--out", str(outdir)]) == 0
        total, _ = sp.load_snapshot(outdir / "lowpass.npz")
        acc = total.values.copy()
        for j in grid.js:
            blk, _ = sp.load_snapshot(outdir / f"block_j{j}.npz")
            acc = acc + blk.values
        assert np.max(np.abs(acc - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_decompose_non_finite_exit_4(self, tmp_path, capsys):
        grid = sp.Grid(2, 16)
        values = sp.random_band_limited(grid, seed=1).values.copy()
        values[0, 3, 5] = np.nan
        path = tmp_path / "bad.npz"
        sp.save_snapshot(sp.RealField(grid, values=values), path)
        outdir = tmp_path / "blocks"
        assert main(["decompose", "--field", str(path), "--out", str(outdir)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0]
        assert not outdir.exists()

    @pytest.mark.parametrize("s", ["nan", "inf"])
    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_norm_non_finite_s_exit_2(self, tmp_path, capsys, s, homogeneous):
        _, _, path = self._snapshot(tmp_path)
        args = ["norm", "--field", str(path), "--s", s, "--p", "2", "--q", "2"]
        assert main(args + ["--homogeneous"] * homogeneous) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"s = {s} must be a finite number" in captured.err

    @pytest.mark.parametrize("command", ["norm", "decompose"])
    def test_components_header_mismatch_exit_2(self, tmp_path, capsys, command):
        # a 2-component field under a header that claims 3 components
        path = tmp_path / "bad.npz"
        sp.save_snapshot(sp.random_solenoidal(sp.Grid(2, 16), seed=1), path)
        with np.load(path) as data:
            archive = dict(data)
        archive["components"] = np.int64(3)
        np.savez(path, **archive)
        with pytest.raises(sp.SpectralError, match="3"):
            sp.load_snapshot(path)
        outdir = tmp_path / "blocks"
        extra = {"norm": ["--s", "1", "--p", "2", "--q", "2"],
                 "decompose": ["--out", str(outdir)]}[command]
        assert main([command, "--field", str(path)] + extra) == 2
        assert "components" in capsys.readouterr().err
        assert not outdir.exists()

    def test_norm_bad_exponent_exit_2(self, tmp_path, capsys):
        _, _, path = self._snapshot(tmp_path)
        assert main(["norm", "--field", str(path), "--s", "1",
                     "--p", "abc", "--q", "2"]) == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["norm", "decompose"])
    @pytest.mark.parametrize(
        "content", [b"not a snapshot\n", b"PK\x03\x04 cut", *_malformed_snapshots()]
    )
    def test_corrupt_snapshot_exit_2(self, tmp_path, capsys, content, command):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        outdir = tmp_path / "blocks"
        extra = {"norm": ["--s", "1", "--p", "2", "--q", "2"],
                 "decompose": ["--out", str(outdir)]}[command]
        assert main([command, "--field", str(path)] + extra) == 2
        assert "unreadable snapshot" in capsys.readouterr().err
        assert not outdir.exists()

    def test_missing_snapshot_is_io_error(self, tmp_path):
        assert main(["norm", "--field", str(tmp_path / "missing.npz"),
                     "--s", "1", "--p", "2", "--q", "2"]) == 3


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError):
        return False


# a fresh interpreter runs one cli.main op, then 20 cycles that allocate
# and free five 4 MB arrays at once; glibc's default trim threshold (twice
# the largest freed mmap chunk, 8 MB here) would hand the 20 MB back to the
# OS on every cycle, about 5000 faults each
_CYCLES = """
import resource, sys
import numpy as np
from lpmhd.cli import main
assert main(["verify", "--config", sys.argv[1]]) == 0
arrays = [np.ones(500_000) for _ in range(5)]
del arrays
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    arrays = [np.ones(500_000) for _ in range(5)]
    del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocator:
    def _config(self, tmp_path):
        return write(
            tmp_path / "v.yaml",
            f"""
output: {tmp_path / 'vrun'}
grid: {{dimension: 2, points: 16}}
verify: {{ids: [bernstein], trials: 1}}
""",
        )

    @pytest.mark.skipif(not _glibc(), reason="the thresholds are glibc's")
    def test_alloc_free_cycles_do_not_fault(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for key in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"):
            env.pop(key, None)
        out = subprocess.run(
            [sys.executable, "-c", _CYCLES, self._config(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert int(out.stdout.split()[-1]) < 100

    def test_missing_libc_is_skipped(self, tmp_path, monkeypatch):
        def no_libc(*args, **kwargs):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        cli._pin_allocator.cache_clear()
        rc = main(["verify", "--config", self._config(tmp_path)])
        cli._pin_allocator.cache_clear()
        assert rc == 0
        assert (tmp_path / "vrun" / "summary.csv").exists()


def test_cli_import_leaves_ndimage_unloaded():
    # scipy.ndimage serves only the trajectory sampler, which imports it
    # itself; every CLI start used to pay for it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, lpmhd.cli; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False"]


def _load_perfbench(name, monkeypatch):
    path = Path(cli.__file__).resolve().parents[2] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hot_calls_reached(tmp_path, monkeypatch):
    # each benchmark workload times its hot calls through the tracer; a run
    # that no longer reaches one of them would leave its call_ms.* empty
    spans = _load_perfbench("spans", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        cfg = workload.config(0, str(tmp_path / name), warmup=True)
        path = write(tmp_path / f"{name}.yaml", workloads.config_yaml(cfg))
        tracer = spans.Tracer(workload.hot, detail=False)
        tracer.install()
        try:
            assert main([workload.subcommand, "--config", path]) == 0, name
        finally:
            tracer.uninstall()
        assert tracer.missing == [], name
        seen = {tracer.names[span[0]] for span in tracer.spans}
        assert seen == set(workload.hot), name


def test_layer_table_rows_run(monkeypatch):
    # perfbench/layer_table.py calls library names that no CLI path reaches
    # (mhd_tendency, DiagnosticsStream); calling each of its rows once makes
    # deleting or renaming one of them fail here, not only in the table
    monkeypatch.syspath_prepend(str(Path(cli.__file__).resolve().parents[2] / "perfbench"))
    # the table imports its sibling modules by their plain names
    siblings = {"run", "calibrate", "spans", "workloads"} - set(sys.modules)
    try:
        table = _load_perfbench("layer_table", monkeypatch)
        for grid in (sp.Grid(2, 16), sp.Grid(3, 16)):
            rows = table._rows(grid)
            assert rows
            for _, prepare, fn in rows:
                table._call(prepare, fn)()
    finally:
        for name in siblings:
            sys.modules.pop(name, None)


def test_traced_counts_repeat(tmp_path, monkeypatch):
    # the benchmark fails a traced op whose counts differ from the previous
    # op's; a record's helper thread runs transforms beside the calling
    # thread's spans, which must not make any count depend on timing (a
    # helper that entered a traced boundary failed this check in 4 of 5
    # tries)
    spans = _load_perfbench("spans", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    for name in ("monitor-3d", "simulate-ot2d"):
        workload = workloads.WORKLOADS[name]
        counts = []
        for run in range(3):
            cfg = workload.config(0, str(tmp_path / f"{name}-{run}"), warmup=True)
            path = write(tmp_path / f"{name}-{run}.yaml", workloads.config_yaml(cfg))
            tracer = spans.Tracer()
            tracer.install()
            try:
                assert main([workload.subcommand, "--config", path]) == 0, name
            finally:
                tracer.uninstall()
            metrics = spans.op_metrics(tracer.names, tracer.spans, tracer.input_digests)
            # every metric but the timings, as the benchmark compares them
            counts.append({key: value for key, value in metrics.items()
                           if not key.endswith(("_s", "_share"))})
        assert counts[0]["diagnostics.record.calls"] > 0, name
        assert counts[0]["fft.xf"] > 0, name
        assert counts[1] == counts[0] and counts[2] == counts[0], name


def _exit_codes(text):
    # the codes that lead the comma-separated items of the "Exit codes:"
    # sentence, with parenthesized remarks dropped
    sentence = re.sub(r"\([^()]*\)", "", text.split("Exit codes:", 1)[1])
    return {int(code) for code in re.findall(r"(?:^|,)\s*(\d+)\s", sentence.split(".")[0])}


def test_exit_codes_documented():
    # the cli docstring and README list the same codes
    readme = Path(cli.__file__).resolve().parents[2] / "README.md"
    assert _exit_codes(cli.__doc__) == {0, 1, 2, 3, 4, 5}
    assert _exit_codes(readme.read_text()) == {0, 1, 2, 3, 4, 5}
