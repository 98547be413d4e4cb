import json
import math

import numpy as np
import pytest
import yaml

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

    def test_io_failure(self, tmp_path):
        text = SIM_TEMPLATE.format(out="/dev/null/nope", kind="orszag-tang", amp=1.0)
        cfg = write(tmp_path / "bad.yaml", text)
        assert main(["simulate", "--config", cfg]) == 3

    def test_streamed_csv_matches_write_csv(self, tmp_path, monkeypatch):
        streams = []

        class Capturing(diag.DiagnosticsStream):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                streams.append(self)

        monkeypatch.setattr(diag, "DiagnosticsStream", Capturing)
        text = SIM_TEMPLATE.format(out=tmp_path / "run", kind="orszag-tang", amp=1.0)
        cfg_path = write(tmp_path / "o.yaml", text)
        assert main(["simulate", "--config", cfg_path]) == 0
        cfg = load_config(cfg_path, "simulate")
        ref = tmp_path / "ref.csv"
        diag.write_csv(streams[0].records, cfg.grid, ref, cfg.norm_specs, timestamp="T")
        streamed = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()
        assert streamed[0].startswith("# created: ")
        assert streamed[1:] == ref.read_text().splitlines()[1:]

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

    def test_norm_bad_exponent_exit_2(self, tmp_path, capsys):
        _, _, path = self._snapshot(tmp_path)
        assert main(["norm", "--field", str(path), "--s", "1",
                     "--p", "abc", "--q", "2"]) == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"not a snapshot\n", b"PK\x03\x04 cut"])
    def test_corrupt_snapshot_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        assert main(["norm", "--field", str(path), "--s", "1",
                     "--p", "2", "--q", "2"]) == 2
        assert "unreadable snapshot" in capsys.readouterr().err

    def test_missing_snapshot_is_io_error(self, tmp_path):
        assert main(["norm", "--field", str(tmp_path / "missing.npz"),
                     "--s", "1", "--p", "2", "--q", "2"]) == 3
