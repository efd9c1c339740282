import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpwf.ddg import _connectivity, build_cache, vertex_normals
from vpwf.errors import (
    DissipationViolationError,
    NonFiniteError,
    ProjectionDivergedError,
    QualityCollapseError,
    StepUnderflowError,
)
from vpwf.flow import (
    FlowConfig,
    QualityConfig,
    StopRule,
    _flip_edges,
    choose_dt,
    initial_state,
    quality_pass,
    run,
    step,
    velocity,
    volume_project,
)
from vpwf.functionals import lagrange_multiplier, signed_volume, wbar
from vpwf.generators import ellipsoid, icosphere, perturbed_sphere, torus
from vpwf.mesh import TriMesh, face_frame, face_geometry, validate

from oracles import random_smooth_normal_field


@pytest.fixture(scope="module")
def sphere_state():
    mesh = icosphere(3)
    return initial_state(mesh, build_cache(mesh))


class TestVelocity:
    def test_sphere_nearly_stationary(self, sphere4):
        _, cache = sphere4
        xi = velocity(cache, lagrange_multiplier(cache))
        assert np.max(np.abs(xi)) <= 0.1

    def test_mean_value_identity(self, ellipsoid4):
        # lam is defined so that the weighted mean of the speed equals the
        # weighted mean of lap H, which is identically zero by symmetry of
        # the operator; discretely this survives to roundoff
        mesh, cache = ellipsoid4
        lam = lagrange_multiplier(cache)
        xi = velocity(cache, lam)
        total = abs(float(np.sum(xi * cache.mass)))
        scale = float(np.sum(np.abs(xi) * cache.mass))
        assert total <= 1e-11 * max(scale, 1.0)

    def test_orientation_reversal_flips_speed(self, ellipsoid4):
        mesh, cache = ellipsoid4
        other = build_cache(TriMesh(mesh.positions, mesh.faces[:, [0, 2, 1]]))
        xi = velocity(cache, lagrange_multiplier(cache))
        xi_rev = velocity(other, lagrange_multiplier(other))
        # the displacement field xi * nu is orientation invariant
        assert np.allclose(
            xi[:, None] * cache.normals,
            xi_rev[:, None] * other.normals,
            atol=1e-10,
        )

    def test_non_finite_detected(self, sphere3):
        _, cache = sphere3
        with pytest.raises(NonFiniteError):
            velocity(cache, np.nan)


class TestChooseDt:
    def test_parabolic_scaling(self, sphere_state):
        config = FlowConfig(dt_max=1e3)
        dt = choose_dt(sphere_state.cache, config, 0.0)
        half = initial_state(
            TriMesh(0.5 * sphere_state.mesh.positions,
                    sphere_state.mesh.faces)
        )
        dt_half = choose_dt(half.cache, config, 0.0)
        assert dt / dt_half == pytest.approx(16.0, rel=1e-12)

    def test_zero_speed_limit(self, sphere_state):
        config = FlowConfig(dt_max=1e3)
        cache = sphere_state.cache
        dt = choose_dt(cache, config, 0.0)
        assert dt == pytest.approx(
            config.dt_safety * cache.h_min ** 4, rel=1e-12
        )
        assert choose_dt(cache, config, sphere_state.rates.max_speed) < dt

    def test_safety_monotonicity(self, sphere_state):
        cache = sphere_state.cache
        dt_small = choose_dt(
            cache, FlowConfig(dt_safety=0.25, dt_max=1e3), 1.0
        )
        dt_big = choose_dt(cache, FlowConfig(dt_safety=0.5, dt_max=1e3), 1.0)
        assert dt_big / dt_small == pytest.approx(2.0, rel=1e-12)

    def test_dt_max_caps(self, sphere_state):
        config = FlowConfig(dt_max=1e-12)
        assert choose_dt(sphere_state.cache, config, 0.0) == 1e-12

    def test_underflow(self, sphere_state):
        config = FlowConfig(dt_max=1e-4)
        with pytest.raises(StepUnderflowError):
            choose_dt(sphere_state.cache, config, 1e30)


class TestVolumeProject:
    def test_already_at_target_is_identity(self, sphere3):
        mesh, cache = sphere3
        out, _, _ = volume_project(mesh, cache.normals, signed_volume(mesh),
                                   1e-10, cache.total_area, face_frame(mesh))
        assert out is mesh

    def test_inflated_sphere_projects_back(self, sphere3):
        mesh, cache = sphere3
        target = signed_volume(mesh)
        inflated = TriMesh(1.01 * mesh.positions, mesh.faces)
        normals, _ = vertex_normals(inflated, face_geometry(inflated))
        projected, _, _ = volume_project(
            inflated, normals, target, 1e-10,
            face_geometry(inflated)[0].sum(), face_frame(inflated))
        achieved = signed_volume(projected)
        assert abs(achieved - target) <= 1e-10 * abs(target)
        moved = np.linalg.norm(projected.positions - inflated.positions,
                               axis=1)
        assert np.max(moved) == pytest.approx(0.01, rel=0.2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        level=st.sampled_from([2, 3]),
        seed=st.integers(0, 2 ** 32 - 1),
        amplitude=st.floats(-0.1, 0.1),
        tol=st.sampled_from([1e-8, FlowConfig().projection_tol, 1e-12]),
    )
    def test_smooth_offsets_hit_target(self, level, seed, amplitude, tol):
        mesh = icosphere(level)
        target = signed_volume(mesh)
        cache = build_cache(mesh)
        phi = random_smooth_normal_field(
            mesh.positions, np.random.default_rng(seed)
        )
        offset = TriMesh(
            mesh.positions + amplitude * phi[:, None] * cache.normals,
            mesh.faces,
        )
        projected, _, volume = volume_project(
            offset, vertex_normals(offset, face_geometry(offset))[0], target,
            tol, face_geometry(offset)[0].sum(), face_frame(offset))
        assert abs(signed_volume(projected) - target) <= tol * abs(target)
        assert volume == signed_volume(projected)

    def test_rejects_large_errors(self, sphere3):
        mesh, cache = sphere3
        with pytest.raises(ProjectionDivergedError):
            volume_project(mesh, cache.normals, 10 * signed_volume(mesh),
                           1e-10, cache.total_area, face_frame(mesh))


class TestPredictedProjection:
    """A trial predicts its volume correction, moves once and verifies it;
    a miss falls back to :func:`volume_project`."""

    @staticmethod
    def trial(state, xi, dt, config):
        """``flow._advance`` of ``state``; returns (trial, fallback count)."""
        from vpwf import flow

        with mock.patch.object(flow, "volume_project",
                               wraps=flow.volume_project) as project:
            out = flow._advance(state, state.cache, xi, dt, config)
        return out, project.call_count

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        level=st.sampled_from([2, 3]),
        seed=st.integers(0, 2 ** 32 - 1),
        amplitude=st.floats(1e-6, 1e-4),
        dt=st.floats(1e-7, 1e-3),
        wrong=st.floats(1e-9, 1e-3),
    )
    def test_hit_and_forced_miss_land_on_target(
        self, level, seed, amplitude, dt, wrong
    ):
        config = FlowConfig()
        tol = config.projection_tol
        state = initial_state(ellipsoid(1.2, 1.0, 0.85, level))
        target = state.target_volume
        xi = amplitude / dt * random_smooth_normal_field(
            state.mesh.positions, np.random.default_rng(seed)
        )
        # the first trial measures the remainder its linear prediction left
        first, _ = self.trial(state, xi, dt, config)
        carried = dataclasses.replace(
            state, volume_remainder=first.volume_remainder
        )
        hit, fallbacks = self.trial(carried, xi, dt, config)
        assert fallbacks == 0
        # a remainder off by a relative volume of ``wrong`` must miss
        wrong_q = first.volume_remainder + wrong * target / (dt * dt)
        miss, fallbacks = self.trial(
            dataclasses.replace(state, volume_remainder=wrong_q), xi, dt,
            config,
        )
        assert fallbacks == 1
        for out in (first, hit, miss):
            assert abs(out.volume - target) <= tol * abs(target)
            assert out.volume == signed_volume(out.mesh)
            assert out.cache.mesh is out.mesh

    def test_refusal_applies_to_the_predicted_move(self):
        # the prediction alone refuses a move it cannot bridge: no vertex
        # is moved and no geometry is built
        from vpwf import flow

        state = initial_state(icosphere(2))
        xi = np.full(state.mesh.vertex_count, 1.0)
        area = state.cache.total_area
        dt = 0.6 * state.target_volume / area
        with mock.patch.object(flow, "face_frame") as frame:
            with pytest.raises(ProjectionDivergedError,
                               match="too large for a projection"):
                flow._advance(state, state.cache, xi, dt, FlowConfig())
        assert frame.call_count == 0

    def test_few_trials_fall_back_on_the_relaxation_preset(self):
        # the saving of the prediction lives on its hits: on the
        # ellipsoid-to-sphere preset's shape at level 3 nearly every trial
        # must land within the tolerance without a Newton iteration
        from vpwf import flow

        config = FlowConfig(dt_safety=0.09)
        state = initial_state(ellipsoid(1.2, 1.0, 0.85, 3))
        trials = 0
        with mock.patch.object(flow, "volume_project",
                               wraps=flow.volume_project) as project:
            for _ in range(2000):
                state = step(state, config)
                trials += 1 + state.last_halvings
        assert project.call_count <= 0.02 * trials


class TestStep:
    def test_sphere_stationarity_short(self):
        mesh = icosphere(3)
        config = FlowConfig()
        state = initial_state(mesh, build_cache(mesh))
        target = state.target_volume
        for _ in range(100):
            state = step(state, config)
            v = signed_volume(state.mesh)
            assert abs(v - target) <= 1e-10 * abs(target)
        radii = np.linalg.norm(state.mesh.positions, axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-3
        assert abs(state.last_lambda) <= 1e-3

    def test_energy_decreases_on_ellipsoid(self):
        from vpwf.functionals import willmore

        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        config = FlowConfig()
        state = initial_state(mesh, build_cache(mesh))
        values = [wbar(state.cache)]
        w_values = [willmore(state.cache)]
        for _ in range(10):
            state = step(state, config)
            values.append(wbar(state.cache))
            w_values.append(willmore(state.cache))
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-6 * max(1.0, before)
        assert values[-1] < values[0]
        # the Willmore energy inherits the ordering up to the (tiny, slowly
        # drifting) clamp mass
        for before, after in zip(w_values, w_values[1:]):
            assert after <= before + 1e-6 * max(1.0, before)
        assert w_values[-1] < w_values[0]

    def test_oversized_steps_are_rejected(self, monkeypatch):
        # forcing dt an order of magnitude past the stability heuristic
        # feeds the stiffest modes; within a few steps the blow-up must be
        # flagged as non-finite or as an energy increase and rejected
        from vpwf import flow

        def oversized(cache, config, max_speed):
            return 10.0 * choose_dt(cache, config, max_speed)

        monkeypatch.setattr(flow, "choose_dt", oversized)
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        config = FlowConfig(dt_max=1e3)
        state = initial_state(mesh, build_cache(mesh))
        for _ in range(80):
            before, state = state, step(state, config)
            if state.last_halvings >= 1:
                break
        assert state.last_halvings >= 1
        # the full oversized trial was flagged, not merely unlucky
        dt = oversized(before.cache, config, before.rates.max_speed)
        try:
            wb_trial = flow._advance(
                before, before.cache, before.rates.xi, dt, config
            ).rates.wbar
        except NonFiniteError:
            pass
        else:
            wb = before.rates.wbar
            assert wb_trial > wb + config.dissipation_tol * max(1.0, wb)
        # the accepted state never carries an undetected energy blow-up
        assert np.isfinite(wbar(state.cache))

    @pytest.mark.parametrize("amplitude, dt", [(0.3, 0.1), (0.08, 0.3)])
    def test_trial_geometry_failure_is_rejected(
        self, monkeypatch, amplitude, dt
    ):
        # a step this large moves the volume past what the projection
        # bridges; the trial must be halved like an energy rise, not abort
        from vpwf import flow

        mesh = perturbed_sphere(2, 1.0, 3, 2, amplitude)
        state = initial_state(mesh, build_cache(mesh))
        config = FlowConfig()
        with pytest.raises(ProjectionDivergedError):
            flow._advance(state, state.cache, state.rates.xi, dt, config)
        monkeypatch.setattr(flow, "choose_dt", lambda *args, **kw: dt)
        after = step(state, config)
        assert after.last_halvings >= 1
        assert after.last_dt == dt * 0.5 ** after.last_halvings
        target = state.target_volume
        assert abs(signed_volume(after.mesh) - target) <= 1e-10 * target
        before = wbar(state.cache)
        assert wbar(after.cache) <= before + 1e-6 * max(1.0, before)

    def test_persistent_trial_failure_names_its_cause(self, monkeypatch):
        from vpwf import flow

        def diverge(*args, **kwargs):
            raise ProjectionDivergedError("stub divergence")

        mesh = icosphere(2)
        state = initial_state(mesh, build_cache(mesh))
        # a carried volume 1e-6 off the mesh's own makes every trial's
        # predicted correction miss, whatever its dt, so every trial
        # reaches the projection
        state = dataclasses.replace(state, volume=state.volume * (1 + 1e-6))
        monkeypatch.setattr(flow, "volume_project", diverge)
        with pytest.raises(
            DissipationViolationError,
            match="after 20 halvings.*ProjectionDivergedError: stub divergence",
        ):
            step(state, FlowConfig())

    def test_accumulators_nondecreasing(self):
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        config = FlowConfig()
        state = initial_state(mesh, build_cache(mesh))
        prev = (0.0, 0.0)
        for _ in range(20):
            state = step(state, config)
            now = (state.accum_L43, state.accum_L2A)
            assert now[0] >= prev[0] and now[1] >= prev[1]
            assert np.isfinite(now).all()
            prev = now
        assert prev[0] > 0 and prev[1] > 0

    def test_determinism(self):
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        config = FlowConfig()

        def advance():
            state = initial_state(mesh, build_cache(mesh))
            for _ in range(12):
                state = step(state, config)
            return state

        a, b = advance(), advance()
        assert np.array_equal(a.mesh.positions, b.mesh.positions)
        assert a.time == b.time
        assert a.accum_L43 == b.accum_L43

    @pytest.mark.parametrize("failure", ["collapse", "projection",
                                         "velocity"])
    def test_failing_quality_pass_is_skipped(self, monkeypatch, failure):
        # a pass whose quality check, re-projection or rates fail is skipped
        # like an energy-raising one: the run equals the run without passes
        from vpwf import flow

        min_quality = 0.99 if failure == "collapse" else 1e-3
        quality = QualityConfig(enabled=True, cadence_steps=1,
                                min_quality=min_quality)
        entered = []
        pass_fn = flow.quality_pass

        def record_pass(mesh, config):
            entered.append(mesh)
            return pass_fn(mesh, config)

        monkeypatch.setattr(flow, "quality_pass", record_pass)
        if failure == "projection":
            flip_fn = flow._flip_edges

            def inflate(mesh, threshold, angles):
                # twice the size is past what the projection bridges
                out, count = flip_fn(mesh, threshold, angles)
                return out.with_positions(2.0 * out.positions), count

            monkeypatch.setattr(flow, "_flip_edges", inflate)
        elif failure == "velocity":
            project_fn = flow.volume_project
            multiplier_fn = flow.lagrange_multiplier
            projected = []

            def record_projection(mesh, *args):
                out = project_fn(mesh, *args)
                if any(mesh is m for m in entered):
                    projected.append(out[0])
                return out

            def overflow(cache):
                # the maintained mesh's curvature stays finite and its
                # velocity does not
                if any(cache.mesh is m for m in projected):
                    return np.inf
                return multiplier_fn(cache)

            monkeypatch.setattr(flow, "volume_project", record_projection)
            monkeypatch.setattr(flow, "lagrange_multiplier", overflow)
        # flips apply on this stretched ellipsoid, so the pass is entered
        mesh = ellipsoid(1.0, 1.0, 2.5, 2)
        stop = StopRule(max_steps=5)
        kept = run(mesh, FlowConfig(quality=quality, stop=stop))
        assert entered
        if failure == "velocity":
            assert projected
        plain = run(mesh, FlowConfig(stop=stop))
        a, b = kept.final_state, plain.final_state
        assert a.step_index == 5
        assert np.array_equal(a.mesh.positions, b.mesh.positions)
        assert np.array_equal(a.mesh.faces, b.mesh.faces)
        assert (a.time, a.accum_L43, a.accum_L2A, a.rates.wbar) == (
            b.time, b.accum_L43, b.accum_L2A, b.rates.wbar)
        assert kept.records == plain.records

    def test_pass_without_flip_builds_nothing(self, monkeypatch):
        # this ellipsoid has no flip candidate: a quality pass on every step
        # never reaches quality_pass, builds no extra geometry and leaves
        # the run bit for bit as it is without passes
        from vpwf import flow

        def no_pass(mesh, config):
            raise AssertionError("quality_pass entered without a flip")

        builds = []
        build_fn = flow.build_cache

        def count_builds(mesh, frame=None):
            builds.append(mesh)
            return build_fn(mesh, frame)

        monkeypatch.setattr(flow, "quality_pass", no_pass)
        monkeypatch.setattr(flow, "build_cache", count_builds)
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        stop = StopRule(max_steps=5)
        kept = run(mesh, FlowConfig(
            quality=QualityConfig(enabled=True, cadence_steps=1), stop=stop))
        kept_builds = len(builds)
        del builds[:]
        plain = run(mesh, FlowConfig(stop=stop))
        assert kept_builds == len(builds)
        a, b = kept.final_state, plain.final_state
        assert a.step_index == 5
        assert np.array_equal(a.mesh.positions, b.mesh.positions)
        assert a.mesh.faces is mesh.faces
        for name in ("time", "accum_L43", "accum_L2A", "volume",
                     "volume_remainder"):
            assert getattr(a, name) == getattr(b, name), name
        assert np.array_equal(a.rates.xi, b.rates.xi)
        assert kept.records == plain.records


class TestQualityPass:
    def test_already_delaunay_no_flips(self, sphere3):
        mesh, cache = sphere3
        out, flips = _flip_edges(mesh, np.pi, cache.corner_angles)
        assert flips == 0

    @pytest.mark.parametrize("mesh", [torus(2.0, 1.0, 48, 24),
                                      torus(2.0, 0.5, 24, 10)],
                             ids=["48x24", "24x10"])
    def test_rounding_ties_do_not_flip(self, mesh):
        # the quads of a torus of revolution are cocircular: their
        # opposite-angle sums are pi up to rounding and must not flip
        out, count = _flip_edges(mesh, np.pi, build_cache(mesh).corner_angles)
        assert count == 0
        assert out is mesh

    def test_flips_fire_and_preserve_validity(self):
        # a stretched icosphere has long edges whose opposite angles sum
        # to more than pi by up to a radian; they must flip
        base = icosphere(2)
        stretched = TriMesh(base.positions * [1.0, 1.0, 2.5], base.faces)
        validate(stretched)
        flipped, count = _flip_edges(
            stretched, np.pi, build_cache(stretched).corner_angles)
        assert count > 0
        topo = validate(flipped)  # still closed, consistently oriented
        assert topo.euler_characteristic == 2

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(["icosphere", "torus"]),
        stretch=st.tuples(*[st.floats(0.3, 3.0)] * 3),
        threshold=st.floats(0.25 * np.pi, 1.5 * np.pi),
    )
    def test_flips_keep_topology(self, shape, stretch, threshold):
        base = icosphere(2) if shape == "icosphere" else torus(
            2.0, 0.5, 24, 10)
        mesh = TriMesh(base.positions * np.array(stretch), base.faces)
        before = validate(mesh)
        flipped, _ = _flip_edges(
            mesh, threshold, build_cache(mesh).corner_angles)
        after = validate(flipped)  # closed, consistently oriented
        assert after.euler_characteristic == before.euler_characteristic
        f = flipped.faces
        edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]],
                                        f[:, [2, 0]]]), axis=1)
        # every undirected edge twice, once per incident face, and no more
        assert 2 * len(np.unique(edges, axis=0)) == len(edges)

    def test_skipped_flips_return_input(self):
        # every edge of a tetrahedron has opposite angles summing to 2pi/3,
        # and every flipped edge already exists: nothing is applied
        verts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
        mesh = TriMesh(verts, faces)
        if signed_volume(mesh) < 0:
            mesh = TriMesh(verts, faces[:, [0, 2, 1]])
        out, count = _flip_edges(
            mesh, 0.25 * np.pi, build_cache(mesh).corner_angles)
        assert out is mesh
        assert count == 0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(["icosphere", "torus"]),
        stretch=st.tuples(*[st.floats(0.3, 3.0)] * 3),
        threshold=st.floats(0.25 * np.pi, 1.5 * np.pi),
    )
    def test_cache_changes_no_bit(self, shape, stretch, threshold):
        base = icosphere(2) if shape == "icosphere" else torus(
            2.0, 0.5, 24, 10)
        mesh = TriMesh(base.positions * np.array(stretch), base.faces)
        angles = build_cache(mesh).corner_angles
        # the pairing is kept per faces array: flips on a mesh that already
        # built it must match flips on a fresh mesh
        fresh = TriMesh(mesh.positions, mesh.faces)
        plain, plain_count = _flip_edges(fresh, threshold, angles)
        assert _connectivity(mesh).pairing.closed
        cached, count = _flip_edges(mesh, threshold, angles)
        assert count == plain_count
        assert np.array_equal(cached.positions, plain.positions)
        assert np.array_equal(cached.faces, plain.faces)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(["icosphere", "torus"]),
        stretch=st.tuples(*[st.floats(0.3, 3.0)] * 3),
        threshold=st.floats(0.25 * np.pi, 1.5 * np.pi),
    )
    def test_repeated_flips_match_fresh_mesh(self, shape, stretch,
                                             threshold):
        # the pairing belongs to one faces array: a second pass on the
        # flipped mesh must see its new edges, as a rebuilt copy does
        base = icosphere(2) if shape == "icosphere" else torus(
            2.0, 0.5, 24, 10)
        mesh = TriMesh(base.positions * np.array(stretch), base.faces)
        once, _ = _flip_edges(mesh, threshold,
                              build_cache(mesh).corner_angles)
        angles = build_cache(once).corner_angles
        twice, count = _flip_edges(once, threshold, angles)
        fresh = TriMesh(once.positions.copy(), once.faces.copy())
        again, fresh_count = _flip_edges(fresh, threshold, angles)
        assert count == fresh_count
        assert np.array_equal(twice.faces, again.faces)

    @pytest.mark.parametrize("shape", ["icosphere", "torus"])
    def test_returned_face_data_is_the_output_geometry(self, shape):
        base = icosphere(2) if shape == "icosphere" else torus(
            2.0, 0.5, 24, 10)
        mesh = TriMesh(base.positions * [1.0, 1.0, 2.5], base.faces)
        flipped, _ = _flip_edges(mesh, np.pi, build_cache(mesh).corner_angles)
        config = FlowConfig(quality=QualityConfig(enabled=True,
                                                  min_quality=0.0))
        frame, face_data = quality_pass(flipped, config)
        expected_frame = face_frame(flipped)
        for got, want in zip(frame, expected_frame):
            assert np.array_equal(got, want)
        expected = face_geometry(flipped)
        assert len(face_data) == len(expected)
        for got, want in zip(face_data, expected):
            assert np.array_equal(got, want)

    def test_low_quality_collapses(self):
        base = icosphere(2)
        mesh = TriMesh(base.positions * [1.0, 1.0, 2.5], base.faces)
        config = FlowConfig(quality=QualityConfig(enabled=True,
                                                  min_quality=0.99))
        with pytest.raises(QualityCollapseError):
            quality_pass(mesh, config)


class TestRun:
    def test_max_steps_zero_single_record(self):
        mesh = icosphere(2)
        config = FlowConfig(stop=StopRule(max_steps=0))
        traj = run(mesh, config)
        assert len(traj.records) == 1
        assert traj.stop_reason == "max_steps"
        assert traj.final_state.step_index == 0

    def test_sphere_stops_on_speed(self):
        mesh = icosphere(3)
        config = FlowConfig(stop=StopRule(speed_tol=0.05, max_steps=50))
        traj = run(mesh, config)
        assert traj.stop_reason == "speed_tol"
        assert traj.final_state.step_index == 0  # already below tolerance

    def test_times_strictly_increasing(self):
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        config = FlowConfig(record_cadence=5,
                            stop=StopRule(max_steps=25))
        traj = run(mesh, config)
        times = [r.t for r in traj.records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert traj.stop_reason == "max_steps"
        assert traj.records[-1].t == traj.final_state.time

    def test_snapshots_recorded(self):
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        config = FlowConfig(record_cadence=1000,
                            snapshot_times=(1e-6,),
                            stop=StopRule(max_steps=40))
        traj = run(mesh, config)
        assert len(traj.snapshots) == 1
        t_snap, snap_mesh = traj.snapshots[0]
        assert t_snap >= 1e-6
        assert any(r.t == t_snap for r in traj.records)
        assert snap_mesh.vertex_count == mesh.vertex_count

    def test_wbar_stop(self):
        mesh = ellipsoid(1.05, 1.0, 0.95, 2)
        config = FlowConfig(stop=StopRule(wbar_tol=0.05, max_steps=20000))
        traj = run(mesh, config)
        assert traj.stop_reason == "wbar_tol"
        assert wbar(traj.final_state.cache) < 0.05

    def test_failure_attaches_last_state(self):
        # a micron-scale mesh pushes the h^4 heuristic below the dt floor
        mesh = icosphere(1, 1e-5)
        config = FlowConfig(stop=StopRule(max_steps=10))
        with pytest.raises(StepUnderflowError) as err:
            run(mesh, config)
        assert err.value.last_state is not None
        assert err.value.last_state.mesh.vertex_count == mesh.vertex_count


class TestOneStep:
    """``run`` is a loop over the module-level ``step``, whose states carry
    the rates of their own geometry."""

    # on this stretched ellipsoid the first step's flips are kept, and the
    # later steps find no flip candidate
    mesh = ellipsoid(1.0, 1.0, 2.5, 2)

    @staticmethod
    def quality_every_step(max_steps):
        return FlowConfig(
            quality=QualityConfig(enabled=True, cadence_steps=1),
            stop=StopRule(max_steps=max_steps),
        )

    def test_run_calls_module_step_every_step(self, monkeypatch):
        from vpwf import flow

        calls = []
        original = flow.step

        def counted(state, config):
            calls.append(state.step_index)
            return original(state, config)

        monkeypatch.setattr(flow, "step", counted)
        traj = run(self.mesh, self.quality_every_step(12))
        assert len(calls) == traj.final_state.step_index == 12
        assert calls == list(range(12))

    def test_rates_belong_to_the_accepted_geometry(self, monkeypatch):
        # with a quality pass on every step the accepted cache is sometimes
        # the flipped one, not the trial's: the rates must follow it
        from vpwf import flow

        states, trial_caches = [], []
        step_fn, advance_fn = flow.step, flow._advance

        def keep_state(state, config):
            states.append(step_fn(state, config))
            return states[-1]

        def keep_trial(*args):
            out = advance_fn(*args)
            trial_caches.append(out[1])
            return out

        monkeypatch.setattr(flow, "step", keep_state)
        monkeypatch.setattr(flow, "_advance", keep_trial)
        run(self.mesh, self.quality_every_step(10))
        assert len(states) == 10
        maintained = [s for s in states
                      if all(s.cache is not c for c in trial_caches)]
        # both outcomes of the pass occur
        assert 0 < len(maintained) < len(states)
        for state in states:
            cache = state.cache
            assert cache.mesh is state.mesh
            # the volume the check measured is the mesh's, bit for bit
            assert state.volume == signed_volume(state.mesh)
            lam = lagrange_multiplier(cache)
            xi = velocity(cache, lam)
            assert state.rates.lam == lam
            assert np.array_equal(state.rates.xi, xi)
            assert state.rates.max_speed == float(np.abs(xi).max())
            assert state.rates.wbar == wbar(cache)

    def test_step_builds_flipped_face_data_once(self, monkeypatch):
        # the quality pass hands the frame and face data of the flipped mesh
        # to the step's projection, so that mesh's corners are gathered and
        # its face geometry is built once
        from vpwf import flow
        from vpwf import mesh as mesh_module

        built, framed, projected_from, flipped = [], [], [], []
        face_geometry_fn, project_fn = flow.face_geometry, flow.volume_project
        face_frame_fn, pass_fn = flow.face_frame, flow.quality_pass

        def spy_face_geometry(mesh, frame=None):
            built.append(mesh)
            return face_geometry_fn(mesh, frame)

        def spy_face_frame(mesh):
            framed.append(mesh)
            return face_frame_fn(mesh)

        def spy_project(mesh, *args, **kwargs):
            projected_from.append(mesh)
            return project_fn(mesh, *args, **kwargs)

        def spy_pass(mesh, config):
            flipped.append(mesh)
            return pass_fn(mesh, config)

        monkeypatch.setattr(flow, "face_geometry", spy_face_geometry)
        # face_geometry gathers through the mesh module's name when it is
        # handed no frame
        monkeypatch.setattr(flow, "face_frame", spy_face_frame)
        monkeypatch.setattr(mesh_module, "face_frame", spy_face_frame)
        monkeypatch.setattr(flow, "volume_project", spy_project)
        monkeypatch.setattr(flow, "quality_pass", spy_pass)
        step(initial_state(self.mesh), self.quality_every_step(1))
        # trials reach the projection only when their prediction misses;
        # the flipped mesh always does, last
        assert len(flipped) == 1
        assert projected_from[-1] is flipped[0]
        assert sum(m is flipped[0] for m in built) == 1
        assert sum(m is flipped[0] for m in framed) == 1

    def test_step_from_initial_state_is_first_step_of_run(self):
        config = self.quality_every_step(1)
        alone = step(initial_state(self.mesh), config)
        first = run(self.mesh, config).final_state
        assert first.step_index == alone.step_index == 1
        assert np.array_equal(alone.mesh.positions, first.mesh.positions)
        assert np.array_equal(alone.mesh.faces, first.mesh.faces)
        for name in ("time", "target_volume", "accum_L43", "accum_L2A",
                     "last_lambda", "last_max_speed", "last_dt",
                     "last_halvings", "volume", "volume_remainder"):
            assert getattr(alone, name) == getattr(first, name), name
        assert np.array_equal(alone.rates.xi, first.rates.xi)
        assert (alone.rates.lam, alone.rates.max_speed, alone.rates.wbar) == (
            first.rates.lam, first.rates.max_speed, first.rates.wbar)


class TestFlowConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(dt_safety=0.0),
        dict(dt_safety=1.5),
        dict(dt_max=-1.0),
        dict(projection_tol=0.0),
        dict(dissipation_tol=0.0),
        dict(dt_policy="semi-implicit"),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)
