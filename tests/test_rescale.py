from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpwf.ddg import build_cache
from vpwf.diagnostics import concentration
from vpwf.errors import (
    BadParamsError,
    NoFiniteRadiusError,
    SnapshotMissingError,
)
from vpwf.flow import FlowConfig, StopRule, run
from vpwf.functionals import (
    lagrange_multiplier,
    signed_volume,
    wbar,
    willmore,
)
from vpwf.generators import ellipsoid, icosphere, perturbed_sphere
from vpwf.rescale import (
    BlowupWindow,
    RescaleSpec,
    blowup_window,
    rescale_mesh,
    rescale_record,
    rescale_trajectory,
)

from oracles import octahedron


@pytest.fixture(scope="module")
def small_trajectory():
    mesh = ellipsoid(1.2, 1.0, 0.85, 2)
    config = FlowConfig(record_cadence=20, stop=StopRule(max_steps=200))
    return run(mesh, config)


@pytest.fixture(scope="module")
def snapshot_trajectory():
    mesh = perturbed_sphere(2, 1.0, 3, 2, 0.15)
    config = FlowConfig(
        record_cadence=50,
        snapshot_times=(0.0, 1e-5),
        stop=StopRule(max_steps=400),
    )
    return run(mesh, config)


class TestRescaleMesh:
    def test_identity(self, sphere3):
        mesh, _ = sphere3
        out = rescale_mesh(mesh, RescaleSpec(rho=1.0))
        assert np.array_equal(out.positions, mesh.positions)

    def test_sphere_scaling_laws(self, sphere3):
        mesh, cache = sphere3
        out = rescale_mesh(mesh, RescaleSpec(rho=2.0))
        out_cache = build_cache(out)
        assert np.max(np.linalg.norm(out.positions, axis=1)) == pytest.approx(
            0.5, rel=1e-12
        )
        assert out_cache.total_area == pytest.approx(
            cache.total_area / 4.0, rel=1e-12
        )
        assert signed_volume(out) == pytest.approx(
            signed_volume(mesh) / 8.0, rel=1e-12
        )
        assert willmore(out_cache) == pytest.approx(
            willmore(cache), rel=1e-12
        )

    def test_lambda_scaling(self, ellipsoid4):
        mesh, cache = ellipsoid4
        lam = lagrange_multiplier(cache)
        out = rescale_mesh(mesh, RescaleSpec(rho=2.0))
        assert lagrange_multiplier(build_cache(out)) == pytest.approx(
            8.0 * lam, rel=0.01
        )

    def test_invariant_energies(self, ellipsoid4):
        mesh, cache = ellipsoid4
        out = rescale_mesh(mesh, RescaleSpec(rho=0.5, origin=(1.0, 2.0, 3.0)))
        out_cache = build_cache(out)
        assert willmore(out_cache) == pytest.approx(
            willmore(cache), rel=1e-12
        )
        assert wbar(out_cache) == pytest.approx(
            wbar(cache), rel=1e-12
        )

    def test_bad_rho(self):
        with pytest.raises(BadParamsError):
            RescaleSpec(rho=0.0)
        with pytest.raises(BadParamsError):
            RescaleSpec(rho=np.inf)


class TestRescaleTrajectory:
    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_multiplier_integrals_invariant(self, small_trajectory, rho):
        out = rescale_trajectory(small_trajectory, RescaleSpec(rho=rho))
        for before, after in zip(small_trajectory.records, out.records):
            if before.accum_L43 > 0:
                assert after.accum_L43 == pytest.approx(
                    before.accum_L43, rel=1e-12
                )
            if before.accum_L2A > 0:
                assert after.accum_L2A == pytest.approx(
                    before.accum_L2A, rel=1e-12
                )

    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_exact_column_weights(self, small_trajectory, rho):
        out = rescale_trajectory(small_trajectory, RescaleSpec(rho=rho))
        for before, after in zip(small_trajectory.records, out.records):
            assert after.t == pytest.approx(before.t / rho ** 4, rel=1e-14)
            assert after.area == pytest.approx(
                before.area / rho ** 2, rel=1e-14
            )
            assert after.volume == pytest.approx(
                before.volume / rho ** 3, rel=1e-14
            )
            assert after.lam == pytest.approx(
                before.lam * rho ** 3, rel=1e-14
            )
            assert after.willmore == before.willmore
            assert after.wbar == before.wbar
            assert after.diameter == pytest.approx(
                before.diameter / rho, rel=1e-14
            )
            assert after.isoperimetric_ratio == before.isoperimetric_ratio
            assert list(after.kappa.values()) == list(before.kappa.values())
            assert list(after.kappa.keys()) == pytest.approx(
                [r / rho for r in before.kappa.keys()], rel=1e-14
            )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rho=st.floats(1e-3, 1e3))
    def test_random_rho_weights_and_invariants(self, small_trajectory, rho):
        out = rescale_trajectory(small_trajectory, RescaleSpec(rho=rho))
        for before, after in zip(small_trajectory.records, out.records):
            assert after.t == before.t * rho ** -4
            assert after.area == before.area * rho ** -2.0
            assert after.volume == before.volume * rho ** -3.0
            assert after.lam == before.lam * rho ** 3
            assert after.accum_L43 == pytest.approx(before.accum_L43,
                                                    rel=1e-12)
            assert after.accum_L2A == pytest.approx(before.accum_L2A,
                                                    rel=1e-12)
        before, after = small_trajectory.final_state, out.final_state
        assert after.volume == before.volume * rho ** -3.0
        assert after.volume_remainder == pytest.approx(
            before.volume_remainder * rho ** 5, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rho=st.floats(1e-3, 1e3))
    def test_inverse_rescale_recovers_rows(self, small_trajectory, rho):
        there = rescale_trajectory(small_trajectory, RescaleSpec(rho=rho))
        back = rescale_trajectory(there, RescaleSpec(rho=1.0 / rho))
        for before, after in zip(small_trajectory.records, back.records):
            for f in fields(before):
                old, new = getattr(before, f.name), getattr(after, f.name)
                if f.name == "kappa":
                    assert list(new) == pytest.approx(list(old), rel=1e-14)
                    assert list(new.values()) == list(old.values())
                else:
                    assert new == pytest.approx(old, rel=1e-14, abs=0.0)

    def test_identity_is_bitexact(self, small_trajectory):
        out = rescale_trajectory(small_trajectory, RescaleSpec(rho=1.0))
        for before, after in zip(small_trajectory.records, out.records):
            assert before == after

    def test_snapshots_rescaled(self, snapshot_trajectory):
        rho = 2.0
        out = rescale_trajectory(snapshot_trajectory, RescaleSpec(rho=rho))
        assert len(out.snapshots) == len(snapshot_trajectory.snapshots)
        (t0, m0), (t1, m1) = snapshot_trajectory.snapshots[0], out.snapshots[0]
        assert t1 == pytest.approx(t0 / rho ** 4, rel=1e-14)
        assert np.allclose(m1.positions, m0.positions / rho)


class TestBlowupWindow:
    def test_curvature_content_matches(self, snapshot_trajectory):
        threshold = 4 * np.pi
        window = blowup_window(snapshot_trajectory, threshold, 2e-5)
        assert isinstance(window, BlowupWindow)
        cache = build_cache(window.mesh)
        value, _ = concentration(window.mesh, cache, 1.0)
        assert value == pytest.approx(window.kappa_value, rel=1e-10)

    def test_inverse_rescale_recovers_source(self, snapshot_trajectory):
        window = blowup_window(snapshot_trajectory, 4 * np.pi, 2e-5)
        source = [m for t, m in snapshot_trajectory.snapshots
                  if t == window.snapshot_time][0]
        undone = rescale_mesh(
            window.mesh,
            RescaleSpec(
                rho=1.0 / window.radius,
                origin=tuple(-window.center / window.radius),
            ),
        )
        scale = np.max(np.abs(source.positions))
        assert np.max(
            np.abs(undone.positions - source.positions)
        ) <= 1e-14 * scale

    def test_stationary_sphere_window_is_spherical(self):
        mesh = icosphere(3)
        config = FlowConfig(
            record_cadence=50,
            snapshot_times=(0.0, 1e-6),
            stop=StopRule(max_steps=60),
        )
        traj = run(mesh, config)
        window = blowup_window(traj, 4 * np.pi, 2e-7)
        cache = build_cache(window.mesh)
        assert willmore(cache) == pytest.approx(
            4 * np.pi, rel=0.01
        )
        radii = np.linalg.norm(
            window.mesh.positions - window.mesh.positions.mean(axis=0),
            axis=1,
        )
        assert radii.std() / radii.mean() < 1e-3

    def test_threshold_above_total_energy(self, snapshot_trajectory):
        with pytest.raises(NoFiniteRadiusError):
            blowup_window(snapshot_trajectory, 100.0, 2e-5)

    def test_snapshot_missing(self, snapshot_trajectory):
        # a huge window constant pushes the target time past the last stored
        # snapshot
        with pytest.raises(SnapshotMissingError):
            blowup_window(snapshot_trajectory, 4 * np.pi, 1e6)

    def test_requires_snapshots(self, small_trajectory):
        assert not small_trajectory.snapshots
        with pytest.raises(SnapshotMissingError):
            blowup_window(small_trajectory, 4 * np.pi, 2e-5)
