import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vpwf
from vpwf.cli import _apply_config_file, build_parser, main
from vpwf.fileio import read_obj, read_trajectory_csv
from vpwf.mesh import validate


def test_generate_icosphere(tmp_path, capsys):
    out = tmp_path / "sphere.obj"
    code = main(["generate", "--shape", "icosphere", "--level", "2",
                 "--out", str(out)])
    assert code == 0
    mesh = read_obj(out)
    assert validate(mesh).euler_characteristic == 2
    assert "2 " not in capsys.readouterr().err


def test_generate_bad_params_exit_2(tmp_path):
    out = tmp_path / "bad.obj"
    code = main(["generate", "--shape", "torus", "--big-radius", "1.0",
                 "--a", "2.0", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_unknown_flag_exit_2():
    assert main(["generate", "--no-such-flag"]) == 2


def test_simulate_zero_steps_single_row(tmp_path):
    csv = tmp_path / "traj.csv"
    code = main(["simulate", "--shape", "icosphere", "--level", "2",
                 "--max-steps", "0", "--csv", str(csv)])
    assert code == 0
    records, _, _ = read_trajectory_csv(csv)
    assert len(records) == 1
    assert records[0].t == 0.0


def test_simulate_imports_no_scipy_sparse(tmp_path):
    # a command's cold start loads scipy's CSR kernel on its own; the
    # scipy.sparse package drags numpy.f2py, numpy.testing and numpy.ma in
    script = """
import sys
from vpwf.cli import main
code = main(["simulate", "--shape", "icosphere", "--level", "1",
             "--max-steps", "2", "--csv", "t.csv", "--final-obj", "f.obj",
             "--snapshot-prefix", "snap"])
heavy = ("scipy.sparse", "numpy.f2py", "numpy.testing", "numpy.ma")
print(code, sorted(m for m in sys.modules
                   if m in heavy or m.startswith(tuple(h + "." for h in heavy))))
"""
    src = str(Path(vpwf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "t.csv").exists() and (tmp_path / "f.obj").exists()


def test_simulate_missing_input_exit_3(tmp_path):
    csv = tmp_path / "traj.csv"
    code = main(["simulate", "--in", str(tmp_path / "nope.obj"),
                 "--csv", str(csv)])
    assert code == 3
    assert not csv.exists()


def test_simulate_flow_failure_exit_4_with_last_good(tmp_path, capsys):
    # micron-scale mesh underflows the time step; the last good state must
    # land next to the snapshots
    prefix = str(tmp_path / "snap")
    code = main(["simulate", "--shape", "icosphere", "--level", "1",
                 "--radius", "1e-5", "--max-steps", "5",
                 "--snapshot-prefix", prefix,
                 "--csv", str(tmp_path / "t.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert "last good state" in err
    assert (tmp_path / "snap_lastgood.obj").exists()


def test_analyze_reproduces_snapshot_row(tmp_path):
    csv = tmp_path / "traj.csv"
    prefix = str(tmp_path / "snap")
    code = main([
        "simulate", "--shape", "icosphere", "--level", "2",
        "--max-steps", "30", "--record-cadence", "10",
        "--snapshot-times", "1e-7", "--snapshot-prefix", prefix,
        "--kappa-radii", "0.5,1.0,3.0", "--csv", str(csv),
    ])
    assert code == 0
    records, _, _ = read_trajectory_csv(csv)
    snapshots = sorted(tmp_path.glob("snap_t*.obj"))
    assert len(snapshots) == 1
    out_csv = tmp_path / "analyze.csv"
    assert main(["analyze", str(snapshots[0]),
                 "--kappa-radii", "0.5,1.0,3.0",
                 "--csv", str(out_csv)]) == 0
    analyzed = read_trajectory_csv(out_csv)[0][0]
    t_snap = float(snapshots[0].stem.split("_t")[1])
    matching = [r for r in records if r.t == pytest.approx(t_snap, rel=1e-12)]
    assert matching
    row = matching[0]
    for field in ("area", "volume", "willmore", "wbar",
                  "gauss_bonnet_defect", "lam", "diameter",
                  "diameter_bound", "isoperimetric_ratio", "scale_defect",
                  "min_face_quality"):
        a, b = getattr(analyzed, field), getattr(row, field)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15), field
    assert analyzed.kappa == pytest.approx(row.kappa, rel=1e-12)
    assert analyzed.li_yau == row.li_yau


class TestRescaleCli:
    @pytest.fixture()
    def trajectory_csv(self, tmp_path):
        csv = tmp_path / "traj.csv"
        assert main(["simulate", "--shape", "ellipsoid",
                     "--a", "1.2", "--b", "1.0", "--c", "0.85",
                     "--level", "2", "--max-steps", "40",
                     "--record-cadence", "10", "--csv", str(csv)]) == 0
        return csv

    def test_identity_rows_byte_identical(self, tmp_path, trajectory_csv):
        out = tmp_path / "rescaled.csv"
        assert main(["rescale", str(trajectory_csv), "--rho", "1.0",
                     "--out", str(out)]) == 0

        def data_rows(path):
            return [line for line in path.read_text().splitlines()
                    if line and not line.startswith("#")]

        assert data_rows(out) == data_rows(trajectory_csv)
        # provenance comment present in the rescaled file only
        assert any(line.startswith("#") for line
                   in out.read_text().splitlines())

    def test_check_invariants(self, tmp_path, trajectory_csv, capsys):
        out = tmp_path / "rescaled.csv"
        assert main(["rescale", str(trajectory_csv), "--rho", "2.0",
                     "--out", str(out), "--check-invariants"]) == 0
        printed = capsys.readouterr().out
        for line in printed.splitlines():
            if line.startswith(("L43", "L2A")):
                delta = float(line.rsplit(" ", 1)[1])
                assert delta <= 1e-12

    def test_negative_rho_exit_2(self, tmp_path, trajectory_csv):
        assert main(["rescale", str(trajectory_csv), "--rho", "-2.0",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_mesh_rescaling(self, tmp_path, trajectory_csv):
        mesh_path = tmp_path / "m.obj"
        assert main(["generate", "--shape", "icosphere", "--level", "1",
                     "--out", str(mesh_path)]) == 0
        assert main(["rescale", str(trajectory_csv), "--rho", "2.0",
                     "--out", str(tmp_path / "y.csv"),
                     "--mesh", str(mesh_path)]) == 0
        scaled = read_obj(tmp_path / "m.rescaled.obj")
        original = read_obj(mesh_path)
        assert np.allclose(scaled.positions, original.positions / 2.0)

    @pytest.mark.parametrize("origin_args", [
        ["--origin", "-0.34,1.3,-0.58"],
        ["--origin=-0.34,1.3,-0.58"],
    ])
    def test_negative_origin(self, tmp_path, trajectory_csv, origin_args):
        mesh_path = tmp_path / "m.obj"
        assert main(["generate", "--shape", "icosphere", "--level", "1",
                     "--out", str(mesh_path)]) == 0
        assert main(["rescale", str(trajectory_csv), "--rho", "2.0"]
                    + origin_args + ["--out", str(tmp_path / "y.csv"),
                                     "--mesh", str(mesh_path)]) == 0
        scaled = read_obj(tmp_path / "m.rescaled.obj")
        original = read_obj(mesh_path)
        origin = np.array([-0.34, 1.3, -0.58])
        assert np.allclose(scaled.positions,
                           (original.positions - origin) / 2.0)

    def test_negative_origin_in_config(self, tmp_path, trajectory_csv):
        cfg = tmp_path / "rescale.cfg"
        cfg.write_text("rho=2.0\norigin=-0.34,1.3,-0.58\n")
        mesh_path = tmp_path / "m.obj"
        assert main(["generate", "--shape", "icosphere", "--level", "1",
                     "--out", str(mesh_path)]) == 0
        assert main(["rescale", str(trajectory_csv), "--config", str(cfg),
                     "--out", str(tmp_path / "y.csv"),
                     "--mesh", str(mesh_path)]) == 0
        scaled = read_obj(tmp_path / "m.rescaled.obj")
        original = read_obj(mesh_path)
        origin = np.array([-0.34, 1.3, -0.58])
        assert np.allclose(scaled.positions,
                           (original.positions - origin) / 2.0)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shape=icosphere\nlevel=2\n")
        out = tmp_path / "m.obj"
        assert main(["generate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert read_obj(out).vertex_count == 162

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shape=icosphere\nlevel=2\n")
        out = tmp_path / "m.obj"
        assert main(["generate", "--config", str(cfg), "--level", "1",
                     "--out", str(out)]) == 0
        assert read_obj(out).vertex_count == 42

    def test_shipped_scenarios_parse(self, tmp_path):
        from pathlib import Path

        for name in ("sphere-stationarity", "ellipsoid-to-sphere",
                     "perturbed-sphere", "torus-monitoring"):
            cfg = Path(__file__).parent.parent / "scenarios" / (name + ".cfg")
            assert cfg.exists()
            # parse only: zero steps keeps this instant; snapshots (the
            # perturbed preset asks for one at t=0) land under tmp_path
            out = tmp_path / (name + ".csv")
            code = main(["simulate", "--config", str(cfg),
                         "--max-steps", "0", "--csv", str(out),
                         "--snapshot-prefix", str(tmp_path / name)])
            assert code == 0
            assert out.exists()

    @pytest.mark.parametrize("value, expected", [
        ("on", True), ("true", True), ("yes", True),
        ("off", False), ("false", False), ("no", False),
    ])
    def test_switch_values(self, tmp_path, value, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shape=icosphere\nlevel=1\nquality=%s\n" % value)
        parser = build_parser()
        argv = _apply_config_file(parser, ["simulate", "--config", str(cfg)])
        assert parser.parse_args(argv).quality is expected

    def test_quality_off_runs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shape=icosphere\nlevel=1\nquality=off\n")
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg), "--max-steps", "0",
                     "--csv", str(out)]) == 0
        assert out.exists()

    def test_quality_pass_flips(self, tmp_path, monkeypatch):
        # a stretched ellipsoid has flip candidates, so a pass every step
        # reaches the quality check and the run still completes
        from vpwf import flow

        entered = []
        pass_fn = flow.quality_pass

        def record_pass(mesh, config):
            entered.append(mesh)
            return pass_fn(mesh, config)

        monkeypatch.setattr(flow, "quality_pass", record_pass)
        out = tmp_path / "flips.csv"
        assert main(["simulate", "--shape", "ellipsoid", "--a", "1",
                     "--b", "1", "--c", "2.5", "--level", "2", "--quality",
                     "--quality-cadence", "1", "--max-steps", "3",
                     "--csv", str(out)]) == 0
        assert entered
        assert out.exists()

    def test_smoothing_weight_is_not_an_option(self, tmp_path, capsys):
        # mesh maintenance only flips edges; a smoothing weight is refused
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shape=icosphere\nlevel=1\nquality=on\n"
                       "smoothing-weight=0.1\n")
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg), "--max-steps", "0",
                     "--csv", str(out)]) == 2
        assert "--smoothing-weight" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exit_3(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--config", str(tmp_path / "none.cfg"),
                  "--out", str(tmp_path / "m.obj")])
        assert err.value.code == 3


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    args = ["generate", "--shape", "perturbed_sphere", "--level", "2",
            "--amplitude", "0.07"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
