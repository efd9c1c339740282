"""Each output check passes on a real output and fails once it is corrupted.

    python3 -m pytest -q perfbench/test_checks.py

The outputs come from short runs of the shipped presets on level-2 meshes;
the corruptions are the small ones a broken program could make: a CSV
column scaled by 1 + 1e-8, a dropped row, one OBJ vertex moved.
"""

import json
import math
import os
import shutil
import time
import types

import numpy as np
import pytest

import checks
import pace
import run
from checks import CheckFailed

VPWF = run.load_vpwf()
SEED = 7


def scaled(table, column, factor=1.0 + 1e-8, row=None):
    out = checks.Table(list(table.header), table.data.copy())
    k = table.header.index(column)
    if row is None:
        out.data[:, k] *= factor
    else:
        out.data[row, k] *= factor
    return out


def set_value(table, column, row, value):
    out = checks.Table(list(table.header), table.data.copy())
    out.data[row, table.header.index(column)] = value
    return out


def dropped(table, row):
    return checks.Table(list(table.header), np.delete(table.data, row, 0))


def moved_vertex(positions, index=5, by=1e-6):
    out = positions.copy()
    out[index] *= 1.0 + by
    return out


def short_run(tmp, name, level, steps, trace=False):
    """A workload's simulate call on a smaller mesh and fewer steps."""
    wl = run.Workload(VPWF, name, SEED, str(tmp))
    wl.level = level
    wl.flags = wl.flags + ["--max-steps", str(steps)]
    tracer = run.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl.make_input()
        wl.simulate(tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    return wl, tracer


@pytest.fixture(scope="module")
def sphere(tmp_path_factory):
    """The stationary-sphere preset: a row per step, a final OBJ."""
    wl, tracer = short_run(tmp_path_factory.mktemp("sphere"), "monitor", 2,
                           6, trace=True)
    inp, faces = checks.read_obj(wl.input)
    pos, _ = checks.read_obj(wl.final)
    return dict(wl=wl, tracer=tracer, table=checks.read_csv(wl.csv),
                target=checks.signed_volume(inp, faces), pos=pos,
                faces=faces)


@pytest.fixture(scope="module")
def blowup(tmp_path_factory):
    """The perturbed preset through the blow-up analysis."""
    wl, _ = short_run(tmp_path_factory.mktemp("blowup"), "blowup", 2, 60)
    snaps = wl.snapshots()
    wl.read_snapshots(snaps)
    wl.blowup_window(0)
    wl.rescale(snaps)
    wl.analyze(snaps)
    return wl, snaps


class TestVolume:
    def test_passes(self, sphere):
        checks.check_volume(sphere["target"], sphere["table"]["V"], "row")
        checks.check_volume(sphere["target"], checks.signed_volume(
            sphere["pos"], sphere["faces"]), "final")

    def test_scaled_column(self, sphere):
        with pytest.raises(CheckFailed, match="volume"):
            checks.check_volume(sphere["target"],
                                scaled(sphere["table"], "V")["V"], "row")

    def test_moved_vertex(self, sphere):
        pos = moved_vertex(sphere["pos"])
        with pytest.raises(CheckFailed, match="volume"):
            checks.check_volume(sphere["target"], checks.signed_volume(
                pos, sphere["faces"]), "final")


class TestEnergy:
    def test_passes(self, sphere):
        checks.check_energy(sphere["table"], 1, False)

    def test_raised_row(self, sphere):
        table = sphere["table"]
        bad = set_value(table, "Wbar", 3, table["Wbar"][2] + 1e-5)
        with pytest.raises(CheckFailed, match="Wbar rises"):
            checks.check_energy(bad, 1, False)


def rows_args(wl):
    """check_rows' arguments after the table, for a workload's last run."""
    return (wl.steps, int(wl.cfg["record-cadence"]), wl.snapshot_times(),
            [t for t, _ in wl.snapshots()], wl.row_steps)


class TestRows:
    def test_passes(self, sphere, blowup):
        checks.check_rows(sphere["table"], *rows_args(sphere["wl"]))
        wl, _ = blowup
        checks.check_rows(checks.read_csv(wl.csv), *rows_args(wl))

    def test_dropped_row(self, sphere):
        with pytest.raises(CheckFailed, match="rows in the CSV"):
            checks.check_rows(dropped(sphere["table"], 3),
                              *rows_args(sphere["wl"]))

    def test_dropped_cadence_row(self, blowup):
        wl, _ = blowup
        row = wl.row_steps.index(50)
        with pytest.raises(CheckFailed, match="rows in the CSV"):
            checks.check_rows(dropped(checks.read_csv(wl.csv), row),
                              *rows_args(wl))

    def test_unrecorded_cadence_step(self, blowup):
        wl, _ = blowup
        steps, cadence, times, files, row_steps = rows_args(wl)
        row = row_steps.index(50)
        table = dropped(checks.read_csv(wl.csv), row)
        with pytest.raises(CheckFailed, match="no row at step 50"):
            checks.check_rows(table, steps, cadence, times, files,
                              row_steps[:row] + row_steps[row + 1:])

    def test_missing_snapshot_row(self, blowup):
        wl, snaps = blowup
        table = checks.read_csv(wl.csv)
        row = int(np.nonzero(table["t"] == snaps[-1][0])[0][0])
        steps, cadence, times, files, row_steps = rows_args(wl)
        with pytest.raises(CheckFailed, match="no row at snapshot time"):
            checks.check_rows(dropped(table, row), steps, cadence, times,
                              files, row_steps[:row] + row_steps[row + 1:])

    def test_missing_snapshot_file(self, blowup):
        wl, _ = blowup
        steps, cadence, times, files, row_steps = rows_args(wl)
        with pytest.raises(CheckFailed, match="no snapshot for"):
            checks.check_rows(checks.read_csv(wl.csv), steps, cadence,
                              times, files[:-1], row_steps)


class TestDiagnostics:
    def test_passes(self, sphere):
        checks.check_diagnostics(sphere["table"], sphere["pos"])

    def test_scaled_diameter(self, sphere):
        with pytest.raises(CheckFailed, match="brute force"):
            checks.check_diagnostics(scaled(sphere["table"], "diam", row=-1),
                                     sphere["pos"])

    def test_moved_vertex(self, sphere):
        pos = sphere["pos"].copy()
        far = int(np.argmax(np.linalg.norm(pos - pos.mean(axis=0), axis=1)))
        pos = moved_vertex(pos, far, 1e-3)
        with pytest.raises(CheckFailed, match="brute force"):
            checks.check_diagnostics(sphere["table"], pos)

    def test_scaled_bound(self, sphere):
        with pytest.raises(CheckFailed, match="diam_bound"):
            checks.check_diagnostics(scaled(sphere["table"], "diam_bound"))

    def test_scaled_whole_surface_kappa(self, sphere):
        with pytest.raises(CheckFailed, match="Wbar"):
            checks.check_diagnostics(scaled(sphere["table"], "kappa_3.0"))

    def test_decreasing_kappa(self, sphere):
        table = sphere["table"]
        bad = set_value(table, "kappa_1.0", 0, table["kappa_3.0"][0] * 1.01)
        with pytest.raises(CheckFailed, match="decreases"):
            checks.check_diagnostics(bad)


class TestStationary:
    def test_passes(self, sphere):
        checks.check_stationary(sphere["pos"], sphere["table"],
                                sphere["wl"].translation)

    def test_moved_mesh(self, sphere):
        with pytest.raises(CheckFailed, match="drifted"):
            checks.check_stationary(sphere["pos"] + 2e-3, sphere["table"],
                                    sphere["wl"].translation)

    def test_lambda(self, sphere):
        bad = set_value(sphere["table"], "lambda", 2, 2e-3)
        with pytest.raises(CheckFailed, match="lambda"):
            checks.check_stationary(sphere["pos"], bad,
                                    sphere["wl"].translation)


class TestRoundSphere:
    def test_passes(self, sphere):
        checks.check_round_sphere(sphere["pos"], sphere["faces"],
                                  sphere["table"]["W"][-1],
                                  sphere["wl"].translation)

    def test_scaled_energy(self, sphere):
        with pytest.raises(CheckFailed, match="4 pi"):
            checks.check_round_sphere(sphere["pos"], sphere["faces"],
                                      1.05 * sphere["table"]["W"][-1],
                                      sphere["wl"].translation)

    def test_moved_vertex(self, sphere):
        pos = sphere["pos"]
        centre = sphere["wl"].translation
        bad = pos.copy()
        bad[5] = centre + 1.2 * (pos[5] - centre)
        with pytest.raises(CheckFailed, match="rms"):
            checks.check_round_sphere(bad, sphere["faces"],
                                      sphere["table"]["W"][-1], centre)

    def test_off_centre(self, sphere):
        with pytest.raises(CheckFailed, match="centre"):
            checks.check_round_sphere(sphere["pos"] + 1e-8, sphere["faces"],
                                      sphere["table"]["W"][-1],
                                      sphere["wl"].translation)


class TestTopology:
    def test_passes(self, blowup):
        wl, snaps = blowup
        for path in [wl.final] + [p for _, p in snaps]:
            checks.check_topology(*checks.read_obj(path), path)

    def test_flipped_face(self, blowup):
        pos, faces = checks.read_obj(blowup[0].final)
        faces = faces.copy()
        faces[3] = faces[3, ::-1]
        with pytest.raises(CheckFailed, match="oriented"):
            checks.check_topology(pos, faces, "final")

    def test_dropped_face(self, blowup):
        pos, faces = checks.read_obj(blowup[0].final)
        with pytest.raises(CheckFailed, match="closed"):
            checks.check_topology(pos, faces[1:], "final")


def window_args(wl, snaps):
    w = wl.windows[0]
    return run.window_check_args(VPWF, w, dict(snaps)[w.snapshot_time])


class TestWindow:
    def test_passes(self, blowup):
        checks.check_window(*window_args(*blowup))

    def test_scaled_kappa(self, blowup):
        args = window_args(*blowup)
        args[6] *= 1.0 + 1e-8
        with pytest.raises(CheckFailed, match="kappa"):
            checks.check_window(*args)

    def test_moved_vertex(self, blowup):
        args = window_args(*blowup)
        args[0] = moved_vertex(args[0], 0, 1e-12)
        with pytest.raises(CheckFailed, match="misses its source"):
            checks.check_window(*args)


class TestRescale:
    def tables(self, wl):
        return (checks.read_csv(wl.csv),
                checks.read_csv(os.path.join(wl.out, "rescaled.csv")))

    def test_passes(self, blowup):
        wl, _ = blowup
        checks.check_rescaled_table(*self.tables(wl), wl.rho)
        checks.check_invariant_deltas(wl.deltas)

    @pytest.mark.parametrize("column", ["t", "A", "V"])
    def test_scaled_column(self, blowup, column):
        wl, _ = blowup
        original, rescaled = self.tables(wl)
        with pytest.raises(CheckFailed, match="rescaled %s" % column):
            checks.check_rescaled_table(original, scaled(rescaled, column),
                                        wl.rho)

    def test_dropped_row(self, blowup):
        wl, _ = blowup
        original, rescaled = self.tables(wl)
        with pytest.raises(CheckFailed, match="rows"):
            checks.check_rescaled_table(original, dropped(rescaled, 1),
                                        wl.rho)

    def test_rescaled_mesh(self, blowup):
        wl, snaps = blowup
        path = snaps[-1][1]
        scaled = checks.read_obj(path[:-4] + ".rescaled.obj")[0]
        source = checks.read_obj(path)[0]
        checks.check_rescaled_mesh(scaled, source, wl.rho, wl.origin)
        with pytest.raises(CheckFailed, match="rescaled mesh"):
            checks.check_rescaled_mesh(moved_vertex(scaled, 0, 1e-12),
                                       source, wl.rho, wl.origin)

    def test_drifting_invariant(self, blowup):
        deltas = dict(blowup[0].deltas, L43=1e-8)
        with pytest.raises(CheckFailed, match="L43"):
            checks.check_invariant_deltas(deltas)


class TestAnalyze:
    def test_passes(self, blowup):
        wl, snaps = blowup
        row = checks.read_csv(os.path.join(wl.out, "analyze.csv"))
        checks.check_same_row(row, checks.read_csv(wl.csv), snaps[-1][0])

    def test_scaled_column(self, blowup):
        wl, snaps = blowup
        row = checks.read_csv(os.path.join(wl.out, "analyze.csv"))
        with pytest.raises(CheckFailed, match="Wbar"):
            checks.check_same_row(scaled(row, "Wbar"),
                                  checks.read_csv(wl.csv), snaps[-1][0])


class TestTotals:
    def test_passes(self, sphere):
        run.check_totals(sphere["wl"], sphere["tracer"])

    def test_dropped_row(self, sphere, tmp_path):
        wl = sphere["wl"]
        lines = open(wl.csv).read().splitlines(True)
        copy = run.Workload(VPWF, "monitor", SEED, str(tmp_path))
        copy.steps, copy.sim_spans = wl.steps, wl.sim_spans
        copy.row_steps = wl.row_steps
        with open(copy.csv, "w") as fh:
            fh.writelines(lines[:-1])
        shutil.copy(wl.final, copy.final)
        with pytest.raises(CheckFailed, match="CSV rows"):
            run.check_totals(copy, sphere["tracer"])

    def test_record_position(self, sphere):
        wl = sphere["wl"]
        row_steps = list(wl.row_steps)
        try:
            wl.row_steps[2] += 1
            with pytest.raises(CheckFailed, match="record calls after"):
                run.check_totals(wl, sphere["tracer"])
        finally:
            wl.row_steps = row_steps

    def test_step_count(self, sphere):
        wl = sphere["wl"]
        steps = wl.steps
        try:
            wl.steps = steps + 1
            with pytest.raises(CheckFailed, match="step spans"):
                run.check_totals(wl, sphere["tracer"])
        finally:
            wl.steps = steps


def test_self_time_and_rounds():
    tracer = run.Tracer()
    inner = tracer._wrap("ddg.build_cache", lambda: time.sleep(0.01))
    outer = tracer._wrap("flow.step", lambda: (inner(), time.sleep(0.01))
                         and types.SimpleNamespace(last_halvings=1))
    outer()
    outer()
    own = tracer.self_times()
    for i in tracer.spans("flow.step"):
        child = i + 1
        assert tracer.parents[child] == i
        assert own[i] == tracer.duration(i) - tracer.duration(child)
    metrics = run.layer_metrics(tracer, 2, 0)
    assert metrics["flow.step.count"]["value"] == 1.0
    assert metrics["flow.step.trials"]["value"] == 2.0
    assert metrics["flow.step.accept_ratio"]["value"] == 0.5
    assert metrics["ddg.build_cache.count"]["value"] == 1.0
    assert metrics["diagnostics.record.count"]["value"] == 0.0


def test_pacer_scales_each_stretch_by_its_probe():
    # a probe twice as slow as the reference halves the stretch before it
    probes = iter([2 * pace.PROBE_REF_S, pace.PROBE_REF_S])
    pacer = pace.Pacer(lambda: next(probes))
    pacer.tick()  # before the first step nothing is timed
    pacer.step()
    time.sleep(pace.STRETCH_S)
    pacer.step()
    first = pacer.wall
    time.sleep(0.02)
    wall, scaled = pacer.finish()
    assert first >= pace.STRETCH_S and pacer.probes == [
        2 * pace.PROBE_REF_S, pace.PROBE_REF_S]
    assert math.isclose(scaled, first / 2 + (wall - first), rel_tol=1e-12)
    unprobed = pace.Pacer(None)
    unprobed.step()
    time.sleep(0.01)
    assert unprobed.finish()[0] == unprobed.scaled > 0.0


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    for m in spec["per_layer"]:
        assert m["unit"] == run.UNITS[m["name"].rsplit(".", 1)[1]]


def test_rigid_motion_is_rigid():
    for seed in range(5):
        rotation, translation = checks.rigid_motion(seed)
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-15)
        assert math.isclose(np.linalg.det(rotation), 1.0, rel_tol=1e-14)
        assert np.all(np.abs(translation) <= 0.5)
