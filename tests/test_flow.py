import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpwf.ddg import _connectivity, build_cache, vertex_normals
from vpwf.errors import (
    DissipationViolationError,
    NonFiniteError,
    ProjectionDivergedError,
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
from vpwf.mesh import TriMesh, face_geometry, validate

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
        out, _ = volume_project(mesh, cache.normals, signed_volume(mesh),
                                1e-10, cache.total_area)
        assert out is mesh

    def test_inflated_sphere_projects_back(self, sphere3):
        mesh, cache = sphere3
        target = signed_volume(mesh)
        inflated = TriMesh(1.01 * mesh.positions, mesh.faces)
        normals = vertex_normals(inflated, face_geometry(inflated))
        projected, _ = volume_project(inflated, normals, target, 1e-10,
                                      face_geometry(inflated)[0].sum())
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
        projected, _ = volume_project(
            offset, vertex_normals(offset, face_geometry(offset)), target,
            tol, face_geometry(offset)[0].sum())
        assert abs(signed_volume(projected) - target) <= tol * abs(target)

    def test_rejects_large_errors(self, sphere3):
        mesh, cache = sphere3
        with pytest.raises(ProjectionDivergedError):
            volume_project(mesh, cache.normals, 10 * signed_volume(mesh),
                           1e-10, cache.total_area)


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
            _, _, wb_trial = flow._advance(
                before, before.cache, before.rates.xi, dt, config
            )
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

    @pytest.mark.parametrize("failure", ["collapse", "projection"])
    def test_failing_quality_pass_is_skipped(self, monkeypatch, failure):
        # a pass whose quality check or re-projection fails is skipped like
        # an energy-raising one: the run equals the run without passes
        from vpwf import flow

        if failure == "collapse":
            quality = QualityConfig(enabled=True, cadence_steps=1,
                                    min_quality=0.99)
        else:
            quality = QualityConfig(enabled=True, cadence_steps=1)
            pass_fn = flow.quality_pass

            def inflate(mesh, config, cache):
                # twice the size is past what the projection bridges
                out, _ = pass_fn(mesh, config, cache)
                out = out.with_positions(2.0 * out.positions)
                return out, face_geometry(out)

            monkeypatch.setattr(flow, "quality_pass", inflate)
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        stop = StopRule(max_steps=5)
        kept = run(mesh, FlowConfig(quality=quality, stop=stop))
        plain = run(mesh, FlowConfig(stop=stop))
        a, b = kept.final_state, plain.final_state
        assert a.step_index == 5
        assert np.array_equal(a.mesh.positions, b.mesh.positions)
        assert np.array_equal(a.mesh.faces, b.mesh.faces)
        assert (a.time, a.accum_L43, a.accum_L2A, a.rates.wbar) == (
            b.time, b.accum_L43, b.accum_L2A, b.rates.wbar)
        assert kept.records == plain.records


class TestQualityPass:
    def test_smoothing_weight_zero_is_identity(self, sphere3):
        mesh, cache = sphere3
        config = FlowConfig(
            quality=QualityConfig(enabled=True,
                                  tangential_smoothing_weight=0.0)
        )
        out, _ = quality_pass(mesh, config, cache)
        assert np.array_equal(out.positions, mesh.positions)

    def test_already_delaunay_no_flips(self, sphere3):
        mesh, cache = sphere3
        out, flips = _flip_edges(mesh, np.pi, cache.corner_angles)
        assert flips == 0

    def test_smoothing_is_tangential(self, sphere3):
        mesh, cache = sphere3
        config = FlowConfig(
            quality=QualityConfig(enabled=True,
                                  tangential_smoothing_weight=0.3)
        )
        out, _ = quality_pass(mesh, config, cache)
        displacement = out.positions - mesh.positions
        normal_part = np.sum(displacement * cache.normals, axis=1)
        assert np.max(np.abs(normal_part)) <= 1e-12

    def test_smoothing_nearly_volume_neutral(self, sphere4):
        mesh, cache = sphere4
        config = FlowConfig(
            quality=QualityConfig(enabled=True,
                                  tangential_smoothing_weight=0.1)
        )
        before = signed_volume(mesh)
        out, _ = quality_pass(mesh, config, cache)
        assert abs(signed_volume(out) - before) <= 1e-6 * abs(before)

    def test_flips_fire_and_preserve_validity(self):
        # stretched torus quads are split along one diagonal; many interior
        # edges violate the opposite-angle criterion and must flip
        mesh = torus(2.0, 0.5, 24, 10)
        stretched = TriMesh(mesh.positions * [1.0, 1.0, 2.5], mesh.faces)
        validate(stretched)
        flipped, count = _flip_edges(
            stretched, np.pi, build_cache(stretched).corner_angles)
        assert count > 0
        topo = validate(flipped)  # still closed, consistently oriented
        assert topo.euler_characteristic == 0

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
        config = FlowConfig(quality=QualityConfig(
            enabled=True, flip_threshold_angle=threshold, min_quality=0.0))
        # the pairing and umbrella are kept per faces array: a pass on a
        # mesh that already built them must match one on a fresh mesh
        fresh = TriMesh(mesh.positions, mesh.faces)
        plain, plain_data = quality_pass(fresh, config, build_cache(fresh))
        cache = build_cache(mesh)
        conn = _connectivity(mesh)
        assert conn.pairing.closed and conn.umbrella is not None
        cached, cached_data = quality_pass(mesh, config, cache)
        assert np.array_equal(cached.positions, plain.positions)
        assert np.array_equal(cached.faces, plain.faces)
        for got, want in zip(cached_data, plain_data):
            assert np.array_equal(got, want)

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

    @pytest.mark.parametrize("shape,weight", [
        ("icosphere", 0.1),    # nothing flips
        ("torus", 0.1),        # flips fire
        ("torus", 0.0),        # flips fire, no smoothing
    ])
    def test_returned_face_data_is_the_output_geometry(self, shape, weight):
        mesh = icosphere(2) if shape == "icosphere" else torus(
            2.0, 0.5, 24, 10)
        config = FlowConfig(quality=QualityConfig(
            enabled=True, tangential_smoothing_weight=weight,
            min_quality=0.0))
        out, face_data = quality_pass(mesh, config, build_cache(mesh))
        expected = face_geometry(out)
        assert len(face_data) == len(expected)
        for got, want in zip(face_data, expected):
            assert np.array_equal(got, want)

    def test_cache_of_another_mesh_rejected(self, sphere3):
        mesh, cache = sphere3
        other = mesh.with_positions(mesh.positions * 1.01)
        config = FlowConfig(quality=QualityConfig(enabled=True))
        with pytest.raises(ValueError):
            quality_pass(other, config, cache)


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

    # on this bump the first step's quality pass is kept and the next ones
    # are skipped for raising the energy
    mesh = perturbed_sphere(2, 1.0, 3, 2, 0.3)

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
        # the maintained one, not the trial's: the rates must follow it
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
            lam = lagrange_multiplier(cache)
            xi = velocity(cache, lam)
            assert state.rates.lam == lam
            assert np.array_equal(state.rates.xi, xi)
            assert state.rates.max_speed == float(np.abs(xi).max())
            assert state.rates.wbar == wbar(cache)

    def test_step_builds_smoothed_face_data_once(self, monkeypatch):
        # the quality pass hands the face data of its output mesh to the
        # step's projection, so that mesh's face geometry is built once
        from vpwf import flow

        built, projected_from = [], []
        face_geometry_fn, project_fn = flow.face_geometry, flow.volume_project

        def spy_face_geometry(mesh, corners=None):
            built.append(mesh)
            return face_geometry_fn(mesh, corners)

        def spy_project(mesh, *args, **kwargs):
            projected_from.append(mesh)
            return project_fn(mesh, *args, **kwargs)

        monkeypatch.setattr(flow, "face_geometry", spy_face_geometry)
        monkeypatch.setattr(flow, "volume_project", spy_project)
        state = step(initial_state(self.mesh), self.quality_every_step(1))
        # one projection per trial, then the maintained mesh's
        assert len(projected_from) == state.last_halvings + 2
        smoothed = projected_from[-1]
        assert sum(m is smoothed for m in built) == 1

    def test_step_from_initial_state_is_first_step_of_run(self):
        config = self.quality_every_step(1)
        alone = step(initial_state(self.mesh), config)
        first = run(self.mesh, config).final_state
        assert first.step_index == alone.step_index == 1
        assert np.array_equal(alone.mesh.positions, first.mesh.positions)
        assert np.array_equal(alone.mesh.faces, first.mesh.faces)
        for name in ("time", "target_volume", "accum_L43", "accum_L2A",
                     "last_lambda", "last_max_speed", "last_dt",
                     "last_halvings"):
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
