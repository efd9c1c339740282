import dataclasses
import tracemalloc
from contextlib import contextmanager
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpwf import diagnostics
from vpwf.ddg import build_cache
from vpwf.diagnostics import (
    _direct_sq,
    _pair_scan,
    area_ratio,
    concentration,
    concentration_profile,
    concentration_radius,
    diameter,
    diameter_bound,
    isoperimetric_ratio,
    record,
    sphere_fit,
    total_curvature_energy,
)
from vpwf.errors import (
    NoFiniteRadiusError,
    SingularFitError,
    ZeroVolumeError,
)
from vpwf.flow import (
    FlowConfig,
    FlowState,
    QualityConfig,
    StopRule,
    initial_state,
    run,
)
from vpwf.functionals import (
    lagrange_multiplier,
    signed_volume,
    wbar,
    willmore,
)
from vpwf.generators import ellipsoid, icosphere, perturbed_sphere, torus
from vpwf.mesh import TriMesh

from oracles import (
    brute_force_concentration,
    brute_force_diameter,
    direct_ball_contents,
    octahedron,
    random_rigid_motion,
)


class TestConcentration:
    def test_large_ball_captures_everything(self, sphere4):
        mesh, cache = sphere4
        value, _ = concentration(mesh, cache, 2.5)
        total = total_curvature_energy(cache)
        assert value == pytest.approx(total, rel=1e-12)
        assert value == pytest.approx(
            wbar(cache) + 2.0 * willmore(cache), rel=1e-12
        )
        assert value == pytest.approx(8 * np.pi, rel=0.01)

    def test_tiny_ball_hits_hottest_vertex(self, sphere3):
        mesh, cache = sphere3
        weights = cache.abs_A_sq * cache.mass
        value, _ = concentration(mesh, cache, 1e-6)
        assert value == pytest.approx(float(weights.max()), rel=1e-14)

    def test_monotone_in_radius(self, ellipsoid4):
        mesh, cache = ellipsoid4
        radii = [0.05, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0]
        values, _ = concentration_profile(mesh, cache, radii)
        assert np.all(np.diff(values) >= 0)

    def test_matches_brute_force(self):
        mesh = perturbed_sphere(2, 1.0, 3, 2, 0.15)
        cache = build_cache(mesh)
        weights = cache.abs_A_sq * cache.mass
        for r in (0.4, 0.9, 1.7):
            value, _ = concentration(mesh, cache, r)
            ref = brute_force_concentration(mesh.positions, weights, r)
            assert value == pytest.approx(ref, rel=1e-13)

    def test_maximizing_center_is_attained(self, ellipsoid4):
        mesh, cache = ellipsoid4
        weights = cache.abs_A_sq * cache.mass
        value, center = concentration(mesh, cache, 0.5)
        d = np.linalg.norm(mesh.positions - center, axis=1)
        assert float(np.sum(weights[d < 0.5])) == pytest.approx(
            value, rel=1e-14
        )


class TestConcentrationRadius:
    def test_no_finite_radius(self, sphere4):
        mesh, cache = sphere4
        with pytest.raises(NoFiniteRadiusError):
            concentration_radius(mesh, cache, 8 * np.pi + 1.0)

    def test_half_energy_radius(self, sphere4):
        # curvature is uniform on the sphere: the 4pi threshold is crossed
        # by the ball that encloses half the total, i.e. euclidean radius
        # sqrt(2) around a surface point
        mesh, cache = sphere4
        r = concentration_radius(mesh, cache, 4 * np.pi)
        assert 0 < r < 2
        assert r == pytest.approx(np.sqrt(2.0), abs=0.02)

    def test_generalized_inverse_bracketing(self, ellipsoid4):
        mesh, cache = ellipsoid4
        threshold = 0.5 * total_curvature_energy(cache)
        r = concentration_radius(mesh, cache, threshold)
        delta = 2e-6 * diameter(mesh)
        below, _ = concentration(mesh, cache, max(r - delta, 1e-12))
        above, _ = concentration(mesh, cache, r + delta)
        assert below < threshold <= above

    def test_scan_oracle(self, sphere3):
        mesh, cache = sphere3
        threshold = 4 * np.pi
        r = concentration_radius(mesh, cache, threshold)
        grid = np.linspace(1e-3, diameter(mesh) * 1.01, 400)
        values = concentration_profile(mesh, cache, grid)[0]
        largest_below = grid[values < threshold].max()
        assert abs(r - largest_below) <= grid[1] - grid[0] + 1e-6

    def test_matches_plain_bisection(self):
        # the probes share the diameter and the direct rows; the radius is
        # still that of a bisection on concentration() alone, bit for bit
        mesh = perturbed_sphere(3, 1.0, 3, 2, 0.08)
        cache = build_cache(mesh)
        threshold = 4 * np.pi
        diam = diameter(mesh)
        lo, hi = 0.0, 1.0000001 * diam
        while hi - lo > 1e-6 * diam:
            mid = 0.5 * (lo + hi)
            if concentration(mesh, cache, mid)[0] < threshold:
                lo = mid
            else:
                hi = mid
        assert concentration_radius(mesh, cache, threshold) == lo

    def test_hot_vertex_floor(self):
        # below the smallest inter-vertex spacing every ball holds a single
        # vertex, so the radius for a threshold just above the hottest
        # single contribution is at least that spacing
        mesh = perturbed_sphere(2, 1.0, 4, 3, 0.2)
        cache = build_cache(mesh)
        weights = cache.abs_A_sq * cache.mass
        p = mesh.positions
        pair_d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
        np.fill_diagonal(pair_d, np.inf)
        min_spacing = float(pair_d.min())
        r = concentration_radius(mesh, cache, float(weights.max()) * 1.001)
        assert r >= min_spacing - 1e-9


class TestDiameter:
    def test_unit_sphere(self, sphere4):
        mesh, _ = sphere4
        assert diameter(mesh) == pytest.approx(2.0, rel=1e-12)

    def test_torus_outer_diameter(self):
        mesh = torus(2.0, 1.0, 48, 24)
        assert diameter(mesh) == pytest.approx(6.0, rel=1e-12)

    def test_brute_force_agreement(self):
        mesh = perturbed_sphere(2, 1.0, 3, 2, 0.2)
        stretched = TriMesh(mesh.positions * [1.3, 0.8, 1.1], mesh.faces)
        assert diameter(stretched) == pytest.approx(
            brute_force_diameter(stretched.positions), rel=1e-14
        )

    def test_diameter_inequality(self, sphere4, ellipsoid4, torus_mesh):
        for mesh, cache in (sphere4, ellipsoid4, torus_mesh):
            bound = diameter_bound(cache.total_area, willmore(cache))
            assert diameter(mesh) <= bound * (1 + 1e-9)

    def test_sphere_closed_form_bound(self, sphere4):
        mesh, cache = sphere4
        bound = diameter_bound(cache.total_area, willmore(cache))
        # (2/pi) sqrt(4pi * 4pi) = 8 for the unit sphere
        assert bound == pytest.approx(8.0, rel=5e-3)


class TestIsoperimetricRatio:
    def test_sphere_value(self):
        value = isoperimetric_ratio(4 * np.pi, 4 * np.pi / 3)
        assert value == pytest.approx(
            np.sqrt(4 * np.pi) / (4 * np.pi / 3) ** (1 / 3), rel=1e-14
        )
        assert value == pytest.approx(2.199, abs=5e-4)

    def test_scale_invariance(self):
        rho = 3.7
        assert isoperimetric_ratio(
            rho ** 2 * 4 * np.pi, rho ** 3 * 4 * np.pi / 3
        ) == pytest.approx(isoperimetric_ratio(4 * np.pi, 4 * np.pi / 3),
                           rel=1e-12)

    def test_zero_volume(self):
        with pytest.raises(ZeroVolumeError):
            isoperimetric_ratio(1.0, 0.0)


class TestAreaRatio:
    def test_flat_density_limit(self, sphere5):
        # the euclidean cap of chord radius sigma on the unit sphere has
        # area exactly pi sigma^2; the residual is vertex sampling noise
        mesh, cache = sphere5
        x = np.array([0.0, 0.0, 1.0])  # on the surface
        assert area_ratio(mesh, cache, x, 0.2) == pytest.approx(
            np.pi, rel=0.10
        )

    def test_ball_covering_everything(self, sphere4):
        mesh, cache = sphere4
        x = np.array([3.0, 0.0, 0.0])
        sigma = 6.0
        assert area_ratio(mesh, cache, x, sigma) == pytest.approx(
            cache.total_area / sigma ** 2, rel=1e-12
        )

    def test_far_center_empty(self, sphere4):
        mesh, cache = sphere4
        assert area_ratio(mesh, cache, np.array([10.0, 0, 0]), 1.0) == 0.0

    def test_membership_is_the_direct_rule(self, sphere4):
        # balls centred on a vertex whose radius is the direct distance to
        # another vertex put that vertex on the boundary, where a fused dot
        # product (einsum) rounds the other way in about one case in ten;
        # the ratio must use the one rule of every other ball
        mesh, cache = sphere4
        pt = mesh.positions.T
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, mesh.vertex_count, (200, 2)):
            if i == j:
                continue
            r = float(np.sqrt(_direct_sq(pt[:, i], pt[:, j])))
            inside = _direct_sq(pt, pt[:, i, None]) < r * r
            expected = float(np.sum(cache.mass[inside])) / r ** 2
            assert area_ratio(mesh, cache, pt[:, i], r) == expected


class TestSphereFit:
    def test_exact_sphere(self, sphere4):
        mesh, cache = sphere4
        center, radius, rms, worst = sphere_fit(mesh, cache.mass)
        assert np.allclose(center, 0.0, atol=1e-12)
        assert radius == pytest.approx(1.0, abs=1e-12)
        assert rms <= 1e-12

    def test_noisy_sphere_monte_carlo(self):
        mesh = icosphere(3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            noise = 1e-3 * rng.uniform(-1, 1, mesh.vertex_count)
            noisy = TriMesh(
                mesh.positions * (1.0 + noise)[:, None], mesh.faces
            )
            _, radius, _, _ = sphere_fit(noisy, build_cache(noisy).mass)
            assert radius == pytest.approx(1.0, abs=2e-3)

    def test_ellipsoid_is_not_a_sphere(self, ellipsoid4):
        mesh, cache = ellipsoid4
        _, _, _, worst = sphere_fit(mesh, cache.mass)
        assert worst > 0.1

    def test_coplanar_raises(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        positions = np.column_stack(
            [xs.reshape(-1), ys.reshape(-1), np.zeros(25)]
        )
        faces = []
        for i in range(4):
            for j in range(4):
                v = i * 5 + j
                faces.append([v, v + 1, v + 5])
                faces.append([v + 1, v + 6, v + 5])
        flat = TriMesh(positions, np.array(faces))
        with pytest.raises(SingularFitError):
            sphere_fit(flat, build_cache(flat).mass)

    def test_off_center_sphere(self):
        mesh = icosphere(3, 2.0)
        moved = TriMesh(mesh.positions + [1.0, -2.0, 0.5], mesh.faces)
        center, radius, rms, _ = sphere_fit(moved, build_cache(moved).mass)
        assert np.allclose(center, [1.0, -2.0, 0.5], atol=1e-10)
        assert radius == pytest.approx(2.0, abs=1e-10)


class TestRecord:
    def test_full_row(self, sphere4):
        mesh, cache = sphere4
        state = initial_state(mesh, cache)
        config = FlowConfig(kappa_radii=(0.5, 1.0, 3.0))
        row = record(state, cache, config)
        assert row.li_yau is True
        assert tuple(row.kappa.keys()) == (0.5, 1.0, 3.0)
        assert row.diameter <= row.diameter_bound * (1 + 1e-9)
        assert row.area == pytest.approx(4 * np.pi, rel=2e-3)
        assert row.volume == pytest.approx(4 * np.pi / 3, rel=5e-3)
        kappa_values = list(row.kappa.values())
        assert kappa_values == sorted(kappa_values)
        assert row.kappa[3.0] == pytest.approx(
            row.wbar + 2 * row.willmore, rel=1e-12
        )
        assert row.min_face_quality > 0.5
        assert row.t == 0.0

    def test_torus_row(self, torus_mesh):
        mesh, cache = torus_mesh
        state = initial_state(mesh, cache)
        config = FlowConfig(kappa_radii=(1.0, 3.0, 7.0))
        row = record(state, cache, config)
        assert row.li_yau is True  # 4 pi^2 / sqrt(3) < 8 pi
        assert abs(row.gauss_bonnet_defect) == pytest.approx(
            abs(row.wbar - 2 * row.willmore), rel=1e-12
        )

    def test_energy_columns_consistent(self, ellipsoid4):
        mesh, cache = ellipsoid4
        row = record(FlowState(mesh=mesh), cache, FlowConfig())
        assert row.gauss_bonnet_defect == pytest.approx(
            row.wbar - (2 * row.willmore - 4 * np.pi * 2), abs=1e-12
        )
        assert row.lam == pytest.approx(lagrange_multiplier(cache), rel=1e-14)
        assert row.area == cache.total_area
        assert row.volume == signed_volume(mesh)
        assert (row.willmore, row.wbar) == (willmore(cache), wbar(cache))


class TestRowVolume:
    """A row's V is the cache's volume: the signed volume of the row's mesh,
    bit for bit, however the step that made the mesh measured it."""

    config = FlowConfig(kappa_radii=(0.5, 3.0))

    def assert_row_volume(self, state):
        row = record(state, state.cache, self.config)
        assert row.volume == state.volume == signed_volume(state.mesh)

    def test_initial_state(self):
        self.assert_row_volume(initial_state(ellipsoid(1.2, 1.0, 0.85, 2)))

    def test_after_a_newton_fallback(self):
        from vpwf import flow

        state = initial_state(ellipsoid(1.2, 1.0, 0.85, 2))
        dt = flow.choose_dt(state.cache, self.config, state.rates.max_speed)
        # a remainder off by 1e-4 of the volume: the prediction misses
        missed = dataclasses.replace(
            state, volume_remainder=1e-4 * state.target_volume / dt ** 2)
        with mock.patch.object(flow, "volume_project",
                               wraps=flow.volume_project) as project:
            after = flow.step(missed, self.config)
        assert project.call_count >= 1
        self.assert_row_volume(after)

    def test_after_a_kept_flip_pass(self):
        from vpwf import flow

        mesh = ellipsoid(1.0, 1.0, 2.5, 2)
        config = FlowConfig(quality=QualityConfig(enabled=True,
                                                  cadence_steps=1))
        with mock.patch.object(flow, "quality_pass",
                               wraps=flow.quality_pass) as entered:
            after = flow.step(initial_state(mesh), config)
        # only a kept pass changes the faces
        assert entered.call_count == 1
        assert not np.array_equal(after.mesh.faces, mesh.faces)
        self.assert_row_volume(after)


def _assert_scan_exact(positions, weights, radii):
    """diameter and concentration_profile against the direct oracles."""
    mesh = SimpleNamespace(positions=positions,
                           columns=np.ascontiguousarray(positions.T))
    cache = SimpleNamespace(abs_A_sq=weights, mass=np.ones(len(weights)))
    assert diameter(mesh) == brute_force_diameter(positions)
    values, centres = concentration_profile(mesh, cache, radii)
    for r, value, centre in zip(radii, values, centres):
        contents = direct_ball_contents(positions, weights, r)
        first = int(np.argmax(contents))
        assert value == contents[first]
        assert np.array_equal(centre, positions[first])
    order = np.argsort(radii, kind="stable")
    assert np.all(np.diff(values[order]) >= 0.0)


class TestPairScanProperties:
    """The one pair scan equals a direct float64 brute force exactly."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 120),
        seed=st.integers(0, 2 ** 32 - 1),
        offset=st.floats(-1e3, 1e3),
        spread=st.sampled_from([1e-3, 1.0, 50.0]),
        clusters=st.integers(0, 6),
        fractions=st.lists(st.floats(1e-3, 1.2), min_size=1, max_size=4),
    )
    def test_random_clouds(self, n, seed, offset, spread, clusters,
                           fractions):
        rng = np.random.default_rng(seed)
        points = offset + spread * rng.normal(size=(n, 3))
        weights = rng.uniform(0.1, 1.0, size=n)
        if clusters:
            # near-coincident points with weights from a short list: many
            # centres hold the same ball, so contents tie exactly or to the
            # last bit and only the first-argmax rule decides
            points = (offset + spread * rng.normal(size=(clusters, 3)))[
                rng.integers(clusters, size=n)]
            points += 1e-6 * spread * rng.normal(size=(n, 3))
            weights = rng.choice([0.1, 0.3, 0.7], size=n)
        diam = brute_force_diameter(points)
        radii = [max(f * diam, 1e-9 * spread) for f in fractions]
        _assert_scan_exact(points, weights, radii)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.sampled_from(["icosphere", "ellipsoid"]),
        radii=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3),
    )
    def test_meshes_under_rigid_motion(self, seed, shape, radii):
        base = (icosphere(3) if shape == "icosphere"
                else ellipsoid(1.2, 1.0, 0.85, 3))
        mesh = TriMesh(random_rigid_motion(base.positions, seed), base.faces)
        cache = build_cache(mesh)
        weights = cache.abs_A_sq * cache.mass
        # a radius just above the diameter: every ball holds every vertex
        radii = radii + [1.001 * brute_force_diameter(mesh.positions)]
        _assert_scan_exact(mesh.positions, weights, radii)
        row = record(initial_state(mesh, cache), cache,
                     FlowConfig(kappa_radii=tuple(radii)))
        assert row.diameter == diameter(mesh)
        for r in radii:
            assert row.kappa[r] == concentration(mesh, cache, r)[0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 120),
        seed=st.integers(0, 2 ** 32 - 1),
        offset=st.floats(-1e6, 1e6),
        spread=st.sampled_from([1e-6, 1e-4, 1e-2, 1.0]),
        fractions=st.lists(st.floats(1e-3, 1.2), min_size=1, max_size=3),
    )
    def test_far_offset_clouds(self, n, seed, offset, spread, fractions):
        # the float32 blocks see only the centred coordinates; a cloud far
        # from the origin must still come out exact
        rng = np.random.default_rng(seed)
        points = offset + spread * rng.normal(size=(n, 3))
        weights = rng.uniform(0.1, 1.0, size=n)
        diam = brute_force_diameter(points)
        radii = [max(f * diam, 1e-9 * spread) for f in fractions]
        _assert_scan_exact(points, weights, radii)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2 ** 32 - 1),
        offset=st.floats(-1e6, 1e6),
        spread=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
    )
    def test_direct_rows_match_row_sums(self, n, seed, offset, spread):
        # the component-first rule sums (dx^2 + dy^2) + dz^2 in the order
        # of np.sum over the last axis of (n, 3) differences
        rng = np.random.default_rng(seed)
        p = offset + spread * rng.normal(size=(n, 3))
        pt = np.ascontiguousarray(p.T)
        for i in rng.integers(n, size=min(n, 5)):
            assert np.array_equal(_direct_sq(pt, pt[:, i, None]),
                                  np.sum((p - p[i]) ** 2, axis=1))
        i, j = rng.integers(n, size=(2, 3 * n))
        assert np.array_equal(_direct_sq(pt[:, i], pt[:, j]),
                              np.sum((p[i] - p[j]) ** 2, axis=1))

    def test_level5_sphere(self, sphere5):
        mesh, cache = sphere5
        moved = random_rigid_motion(mesh.positions, 5)
        _assert_scan_exact(moved, cache.abs_A_sq * cache.mass, [0.7])

    def test_rounding_scale_balls(self):
        # balls as small as the rounding of the block products: membership
        # rests on the band and the direct recomputation alone
        for seed in range(40):
            rng = np.random.default_rng(seed)
            points = rng.normal(size=(4, 3))[rng.integers(4, size=300)]
            points += 1e-7 * rng.normal(size=points.shape)
            weights = rng.choice([0.1, 0.3, 0.7], size=300)
            _assert_scan_exact(points, weights, [1e-7, 2e-7, 5e-7])

    def test_level4_ties(self, sphere4, ellipsoid4):
        # mirror-symmetric centres of the ellipsoid tie to within 2e-16;
        # the scan must still return the first of them
        moved = TriMesh(sphere4[0].positions + [0.1, -0.3, 0.2],
                        sphere4[0].faces)
        for mesh, radii in ((moved, (1.0, 3.0)),
                            (ellipsoid4[0], (0.5, 1.0, 4.0))):
            cache = build_cache(mesh)
            _assert_scan_exact(mesh.positions, cache.abs_A_sq * cache.mass,
                               list(radii))

    def test_record_memory(self, sphere4):
        mesh, cache = sphere4
        state = initial_state(mesh, cache)
        config = FlowConfig(kappa_radii=(1.0, 3.0))
        record(state, cache, config)
        tracemalloc.start()
        try:
            record(state, cache, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


@contextmanager
def _scan_slot(scan):
    """Run with ``scan`` as the latest block scan record, then restore."""
    saved = diagnostics._last_scan
    diagnostics._last_scan = scan
    try:
        yield
    finally:
        diagnostics._last_scan = saved


@lru_cache(maxsize=None)
def _reuse_case(shape):
    """Positions, weights and radii of one scan that a later scan follows."""
    if shape == "cloud":
        # near-coincident points with weights from a short list: contents
        # tie and only the first-argmax rule decides
        rng = np.random.default_rng(7)
        points = rng.normal(size=(5, 3))[rng.integers(5, size=150)]
        points += 1e-6 * rng.normal(size=points.shape)
        return points, rng.choice([0.1, 0.3, 0.7], size=150), (0.3, 1.0)
    if shape == "sphere3":
        mesh, radii = icosphere(3), (0.5, 1.0, 3.0)
    elif shape == "ellipsoid3":
        mesh, radii = ellipsoid(1.2, 1.0, 0.85, 3), (0.5, 4.0)
    elif shape == "moved_sphere4":
        # the tie meshes of test_level4_ties
        base = icosphere(4)
        mesh = TriMesh(base.positions + [0.1, -0.3, 0.2], base.faces)
        radii = (1.0, 3.0)
    else:
        mesh, radii = ellipsoid(1.2, 1.0, 0.85, 4), (0.5, 1.0, 4.0)
    cache = build_cache(mesh)
    return mesh.positions, cache.abs_A_sq * cache.mass, radii


class TestScanReuse:
    """A scan that follows another equals a fresh one; it reuses the
    earlier block bounds only while the points hold still."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(["sphere3", "ellipsoid3", "cloud",
                               "moved_sphere4", "ellipsoid4"]),
        seed=st.integers(0, 2 ** 32 - 1),
        log_move=st.one_of(st.none(), st.floats(-11.0, -3.0)),
        weight_step=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]),
        change=st.sampled_from(["none", "radii", "count"]),
    )
    def test_follow_up_equals_fresh_scan(self, shape, seed, log_move,
                                         weight_step, change):
        # displacements of 1e-11 to 1e-3 span the window in which the
        # earlier bounds still hold (about 1e-6 here)
        p0, w0, radii0 = _reuse_case(shape)
        rng = np.random.default_rng(seed)
        p, radii = p0.copy(), radii0
        if log_move is not None:
            p += 10.0 ** log_move * rng.normal(size=p.shape)
        # weights move up and down
        w = w0 * (1.0 + weight_step * rng.uniform(-1.0, 1.0, size=w0.shape))
        if change == "radii":
            radii = radii0[:-1] + (1.1 * radii0[-1],)
        elif change == "count":
            p, w = p[:-1], w[:-1]
        with _scan_slot(None):
            _pair_scan(p0.T, w0, radii0)
            with mock.patch.object(diagnostics, "_block_bounds",
                                   wraps=diagnostics._block_bounds) as spy:
                follow = _pair_scan(p.T, w, radii)
        with _scan_slot(None):
            fresh = _pair_scan(p.T, w, radii)
        assert follow[0] == fresh[0]
        assert np.array_equal(follow[1], fresh[1])
        assert np.array_equal(follow[2], fresh[2])
        if log_move is None and change == "none":
            assert spy.call_count == 0

    def test_pair_overtaking_the_diameter(self):
        # C-E starts just outside the near band of the farthest pair A-B;
        # moving A, B in and C, E out by a quarter band makes C-E the
        # diameter, a move the drift tests must refuse
        band = 256.0 * float(np.finfo(np.float32).eps)
        c = 0.5 * np.sqrt(4.0 - 3.0 * band)
        p0 = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                       [0.0, -c, 0.0], [0.0, c, 0.0]])
        p = p0 + 0.25 * band * np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                         [0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
        w = np.ones(4)
        with _scan_slot(None):
            _pair_scan(p0.T, w, (0.1,))
            diam_sq, _, _ = _pair_scan(p.T, w, (0.1,))
        assert diam_sq == _direct_sq(p[2], p[3]) > _direct_sq(p[0], p[1])
        assert np.sqrt(diam_sq) == brute_force_diameter(p)

    def test_foreign_record_changes_no_bit(self, sphere4):
        # a record of other points with the same count and radii: the
        # drift tests reject it and the scan runs its own block loop
        mesh, cache = sphere4
        weights = cache.abs_A_sq * cache.mass
        moved = random_rigid_motion(mesh.positions, 3)
        with _scan_slot(None):
            _pair_scan(moved.T, weights, (1.0, 3.0))
            follow = _pair_scan(mesh.columns, weights, (1.0, 3.0))
        with _scan_slot(None):
            fresh = _pair_scan(mesh.columns, weights, (1.0, 3.0))
        assert follow[0] == fresh[0]
        assert np.array_equal(follow[1], fresh[1])
        assert np.array_equal(follow[2], fresh[2])

    def _block_loops(self, monkeypatch, mesh, cadence, steps):
        spy = mock.Mock(wraps=diagnostics._block_bounds)
        monkeypatch.setattr(diagnostics, "_last_scan", None)
        monkeypatch.setattr(diagnostics, "_block_bounds", spy)
        config = FlowConfig(record_cadence=cadence, kappa_radii=(0.5, 3.0),
                            stop=StopRule(max_steps=steps))
        traj = run(mesh, config)
        return len(traj.records), spy.call_count

    def test_still_sphere_scans_once(self, monkeypatch):
        # a row per step on a stationary sphere: only the t = 0 row runs
        # the block loop
        rows, loops = self._block_loops(monkeypatch, icosphere(3), 1, 49)
        assert (rows, loops) == (50, 1)

    def test_moving_mesh_scans_every_row(self, monkeypatch):
        mesh = ellipsoid(1.2, 1.0, 0.85, 3)
        rows, loops = self._block_loops(monkeypatch, mesh, 50, 150)
        assert (rows, loops) == (4, 4)
