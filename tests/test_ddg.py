import functools
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpwf.ddg import (
    COT_HALF_WEIGHT_FLOOR,
    _connectivity,
    _matvec,
    build_cache,
    build_laplacian,
    gaussian_curvature,
    half_cotangents,
    lumped_mass,
    mean_curvature,
    tracefree_sq,
    vertex_normals,
)
from vpwf import ddg
from vpwf.errors import DegenerateFaceError, ZeroNormalError
from vpwf.functionals import signed_volume
from vpwf.generators import ellipsoid, icosphere, torus
from vpwf.mesh import TriMesh, face_frame, face_geometry

from oracles import (
    csr_matrix,
    laplacian_of_scalar,
    octahedron,
    reference_geometry,
    reference_rates,
    sphere_values,
    torus_curvatures,
)


def flipped(mesh):
    return TriMesh(mesh.positions, mesh.faces[:, [0, 2, 1]])


def mass_of(mesh):
    """:func:`lumped_mass` of ``mesh`` from its own face data."""
    face_data = face_geometry(mesh)
    return lumped_mass(mesh, face_data, half_cotangents(face_data))


class TestLumpedMass:
    def test_octahedron_thirds(self):
        # equilateral faces: the mixed cell is exactly the barycentric third
        mesh = octahedron()
        mass = mass_of(mesh)
        assert np.allclose(mass, 4 * np.sqrt(3) / 6, rtol=1e-14)
        assert mass.sum() == pytest.approx(4 * np.sqrt(3), rel=1e-14)

    def test_sums_to_total_area(self, sphere4):
        mesh, cache = sphere4
        assert cache.mass.sum() == pytest.approx(cache.total_area, rel=1e-13)
        assert cache.mass.sum() == pytest.approx(4 * np.pi, rel=2e-3)

    def test_positive(self, ellipsoid4):
        _, cache = ellipsoid4
        assert np.all(cache.mass > 0)

    def test_locality(self, sphere3):
        mesh, cache = sphere3
        positions = np.array(mesh.positions)
        positions[0] *= 1.01
        moved = TriMesh(positions, mesh.faces)
        other = mass_of(moved)
        ring = set(mesh.faces[np.any(mesh.faces == 0, axis=1)].reshape(-1))
        untouched = np.setdiff1d(np.arange(mesh.vertex_count), sorted(ring))
        assert np.array_equal(other[untouched], cache.mass[untouched])
        assert not np.allclose(other[0], cache.mass[0])

    def test_obtuse_fallback_tiles(self):
        # squashed octahedron has obtuse faces; tiling must stay exact
        mesh = octahedron()
        squashed = TriMesh(mesh.positions * [1.0, 1.0, 0.2], mesh.faces)
        areas = face_geometry(squashed)[0]
        mass = mass_of(squashed)
        assert mass.sum() == pytest.approx(areas.sum(), rel=1e-14)
        assert np.all(mass > 0)


class TestVertexNormals:
    def test_icosphere_radial(self, sphere4):
        mesh, cache = sphere4
        radial = -mesh.positions / np.linalg.norm(
            mesh.positions, axis=1, keepdims=True
        )
        angle = np.arccos(
            np.clip(np.sum(cache.normals * radial, axis=1), -1, 1)
        )
        # symmetric (valence-5) vertices are exact; the worst asymmetric
        # stencils carry an O(h) tilt
        assert angle.max() < 1e-2

    def test_refinement_improves_normals(self):
        worst = []
        for level in (3, 4):
            mesh = icosphere(level)
            cache = build_cache(mesh)
            radial = -mesh.positions / np.linalg.norm(
                mesh.positions, axis=1, keepdims=True
            )
            angle = np.arccos(
                np.clip(np.sum(cache.normals * radial, axis=1), -1, 1)
            )
            worst.append(angle.max())
        assert worst[1] < worst[0]

    def test_octahedron_axis_vertex(self):
        mesh = octahedron()
        normals, _ = vertex_normals(mesh, face_geometry(mesh))
        assert np.allclose(normals[0], [-1, 0, 0], atol=1e-15)

    def test_orientation_reversal_negates(self, sphere3):
        mesh, cache = sphere3
        other = flipped(mesh)
        assert np.allclose(
            vertex_normals(other, face_geometry(other))[0], -cache.normals,
            atol=1e-15,
        )

    @pytest.mark.parametrize("builder", [
        octahedron, lambda: icosphere(3), lambda: torus(2.0, 1.0, 16, 16),
    ])
    def test_volume_slope_is_the_volume_derivative(self, builder):
        # d/de V(X + e w nu) at e = 0 is volume_slope . w, the slope at
        # vertex i being -1/3 of the length of its area-weighted normal sum
        mesh = builder()
        cache = build_cache(mesh)
        w = np.random.default_rng(7).uniform(-1.0, 1.0, mesh.vertex_count)
        eps = 1e-6

        def volume_at(e):
            return signed_volume(mesh.with_positions(
                mesh.positions + e * w[:, None] * cache.normals))

        slope = (volume_at(eps) - volume_at(-eps)) / (2.0 * eps)
        assert np.all(cache.volume_slope < 0.0)
        assert cache.volume_slope @ w == pytest.approx(slope, rel=1e-7)
        _, lengths = vertex_normals(mesh, face_geometry(mesh))
        assert np.array_equal(cache.volume_slope, lengths / -3.0)

    def test_fold_raises(self):
        # exactly flat double sheet: the per-vertex normal sums cancel
        mesh = octahedron()
        positions = np.array(mesh.positions)
        positions[:, 2] = 0.0
        squashed = TriMesh(positions, mesh.faces)
        with pytest.raises(ZeroNormalError):
            vertex_normals(squashed, face_geometry(squashed))


class TestCurvatures:
    def test_sphere_mean_curvature(self, sphere4):
        _, cache = sphere4
        assert np.max(np.abs(cache.H - 2.0) / 2.0) < 0.02  # actual ~1e-5

    def test_radius_scaling(self):
        mesh = icosphere(3, 2.0)
        cache = build_cache(mesh)
        assert np.max(np.abs(cache.H - 1.0)) < 0.01

    def test_orientation_reversal(self, sphere3):
        mesh, cache = sphere3
        other = build_cache(flipped(mesh))
        assert np.allclose(other.H, -cache.H, atol=1e-12)
        assert np.allclose(other.K, cache.K, atol=1e-12)
        assert np.allclose(other.mass, cache.mass, atol=1e-15)
        assert np.allclose(other.tracefree_sq, cache.tracefree_sq, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(["icosphere", "torus"]),
        stretch=st.tuples(*[st.floats(0.3, 3.0)] * 3),
    )
    def test_corner_angles_sum_to_pi(self, shape, stretch):
        base = icosphere(2) if shape == "icosphere" else torus(
            2.0, 0.5, 24, 10)
        mesh = TriMesh(base.positions * np.array(stretch), base.faces)
        cache = build_cache(mesh)
        assert cache.corner_angles.shape == (3, mesh.face_count)
        assert np.max(np.abs(cache.corner_angles.sum(axis=0) - np.pi)) <= 1e-12
        # the cached angles give K bit for bit as freshly built ones do
        angles = ddg._corner_angles(face_geometry(mesh))
        assert np.array_equal(
            cache.K, gaussian_curvature(mesh, cache.mass, angles))

    @pytest.mark.parametrize("make,chi", [
        (lambda: icosphere(2), 2),
        (lambda: icosphere(3), 2),
        (lambda: torus(2.0, 1.0, 24, 16), 0),
        (lambda: octahedron(), 2),
    ])
    def test_discrete_gauss_bonnet_exact(self, make, chi):
        mesh = make()
        cache = build_cache(mesh)
        total = float(np.sum(cache.K * cache.mass))
        assert abs(total - 2.0 * np.pi * chi) < 1e-9

    def test_sphere_gaussian_curvature(self, sphere4):
        _, cache = sphere4
        assert np.max(np.abs(cache.K - 1.0)) < 0.05  # actual ~1.4e-3

    def test_torus_pointwise_oracle(self):
        mesh = torus(10.0, 1.0, 96, 24)
        cache = build_cache(mesh)
        # vertices at the outer equator have tube angle v = 0
        outer = np.isclose(
            np.linalg.norm(mesh.positions[:, :2], axis=1), 11.0
        ) & np.isclose(mesh.positions[:, 2], 0.0)
        assert outer.sum() == 96
        H_ref, K_ref = torus_curvatures(10.0, 1.0, 0.0)
        assert np.allclose(cache.H[outer], H_ref, rtol=0.02)
        assert np.allclose(cache.K[outer], K_ref, rtol=0.05, atol=5e-4)
        a0_ref = 0.5 * H_ref ** 2 - 2.0 * K_ref
        assert np.allclose(cache.tracefree_sq[outer], a0_ref, rtol=0.02)

    def test_sphere_is_umbilic(self, sphere4):
        _, cache = sphere4
        assert np.max(cache.tracefree_sq) <= 1e-3

    def test_tracefree_clamped_nonnegative(self, sphere4, ellipsoid4):
        for _, cache in (sphere4, ellipsoid4):
            assert np.all(cache.tracefree_sq >= 0)

    def test_tracefree_formula(self):
        H = np.array([1.0, 2.0, -1.0])
        K = np.array([0.0, 3.0, 0.6])
        assert np.allclose(tracefree_sq(H, K), [0.5, 0.0, 0.0])


class TestLaplaceOperator:
    def test_symmetry_exact(self, sphere3):
        _, cache = sphere3
        L = csr_matrix(cache.laplacian)
        assert abs(L - L.T).max() == 0.0

    def test_zero_row_sums(self, sphere3):
        mesh, cache = sphere3
        ones = np.ones(mesh.vertex_count)
        assert np.max(np.abs(_matvec(cache.laplacian, ones))) < 1e-12

    def test_constant_field(self, sphere3):
        mesh, cache = sphere3
        u = np.full(mesh.vertex_count, 7.3)
        lap = laplacian_of_scalar(cache.laplacian, cache.mass, u)
        assert np.max(np.abs(lap)) < 1e-10

    def test_linearity(self, sphere3):
        mesh, cache = sphere3
        rng = np.random.default_rng(7)
        u = rng.normal(size=mesh.vertex_count)
        v = rng.normal(size=mesh.vertex_count)
        left = laplacian_of_scalar(
            cache.laplacian, cache.mass, 2.0 * u - 3.0 * v
        )
        right = 2.0 * laplacian_of_scalar(
            cache.laplacian, cache.mass, u
        ) - 3.0 * laplacian_of_scalar(cache.laplacian, cache.mass, v)
        assert np.allclose(left, right, atol=1e-10)

    def test_coordinate_eigenfunction(self, sphere4):
        # z restricted to the unit sphere satisfies lap z = -2 z
        mesh, cache = sphere4
        z = mesh.positions[:, 2]
        lap = laplacian_of_scalar(cache.laplacian, cache.mass, z)
        mask = np.abs(z) > 0.3
        assert np.allclose(lap[mask], -2.0 * z[mask], rtol=0.03, atol=2e-3)

    def test_matches_mean_curvature_convention(self, sphere4):
        mesh, cache = sphere4
        H = mean_curvature(mesh, cache.laplacian, cache.mass, cache.normals)
        assert np.array_equal(H, cache.H)
        assert np.all(H > 0)  # inward sphere => positive


class TestScatterOrder:
    """The sparse scatters add up in the order of a sequential scatter.

    np.bincount and np.add.at accumulate in index order, face by face; the
    operators must round exactly like them.  Values spread over many
    decades make any other summation order show up.
    """

    @staticmethod
    def spread_values(shape, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)

    def test_corner_and_face_sums(self, sphere3):
        mesh, _ = sphere3
        conn = _connectivity(mesh)
        flat = mesh.faces.reshape(-1)
        n, m = mesh.vertex_count, mesh.face_count
        per_corner = self.spread_values((3, m), 1)
        assert np.array_equal(
            csr_matrix(conn.corner_sum) @ per_corner.reshape(-1),
            np.bincount(flat, weights=per_corner.T.reshape(-1), minlength=n),
        )
        per_face = self.spread_values(m, 2)
        assert np.array_equal(
            csr_matrix(conn.face_sum) @ per_face,
            np.bincount(flat, weights=np.repeat(per_face, 3), minlength=n),
        )

    def test_laplacian_assembly(self, sphere3):
        mesh, cache = sphere3
        f = mesh.faces
        areas, _, dots, _ = face_geometry(mesh)
        w = np.maximum(dots / (4.0 * areas), COT_HALF_WEIGHT_FLOOR)
        w = w.reshape(-1)
        a = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
        b = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
        dense = np.zeros((mesh.vertex_count, mesh.vertex_count))
        np.add.at(
            dense,
            (np.concatenate([a, b, a, b]), np.concatenate([b, a, a, b])),
            np.concatenate([w, w, -w, -w]),
        )
        assert np.array_equal(csr_matrix(cache.laplacian).toarray(), dense)

    def test_kernel_matches_matmul(self, sphere3):
        # the flow calls the CSR kernel directly; it must give what ``@``
        # gives, bit for bit, for vectors and (n, 3) stacks
        mesh, cache = sphere3
        conn = _connectivity(mesh)
        laplacian = cache.laplacian
        for seed, op in enumerate([
            conn.assemble, conn.corner_sum, conn.face_sum, laplacian,
        ]):
            matrix = csr_matrix(op)
            cols = matrix.shape[1]
            for shape in ((cols,), (cols, 3)):
                x = self.spread_values(shape, 10 + seed)
                got = _matvec(op, x)
                assert got.shape == (matrix.shape[0],) + shape[1:]
                assert np.array_equal(got, matrix @ x)
        assert np.array_equal(
            _matvec(laplacian, mesh.positions),
            csr_matrix(laplacian) @ mesh.positions,
        )
        for bad in (np.ones(mesh.vertex_count - 1), np.ones((1, 3)),
                    np.ones((mesh.vertex_count, 3, 1)), np.float64(1.0)):
            with pytest.raises(ValueError):
                _matvec(laplacian, bad)

    def test_missing_kernel_names_its_path(self, monkeypatch):
        monkeypatch.setattr(ddg.os.path, "isfile", lambda path: False)
        searched = os.path.join("scipy", "sparse", "_sparsetools")
        with pytest.raises(ImportError, match=re.escape(searched)):
            ddg._load_sparsetools()


def test_build_cache_refuses_degenerate_face():
    mesh = icosphere(1)
    positions = np.array(mesh.positions)
    i, j, k = mesh.faces[0]
    positions[k] = 0.5 * (positions[i] + positions[j])
    with pytest.raises(DegenerateFaceError):
        build_cache(TriMesh(positions, mesh.faces))


class TestRefinementConvergence:
    def test_mean_curvature_order(self, sphere3, sphere4, sphere5):
        errors = [
            np.max(np.abs(cache.H - 2.0) / 2.0)
            for _, cache in (sphere3, sphere4, sphere5)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] >= 1.8
        assert errors[1] / errors[2] >= 1.8

    def test_lumped_mass_total_converges(self, sphere3, sphere4, sphere5):
        errs = [
            abs(cache.mass.sum() - 4 * np.pi) / (4 * np.pi)
            for _, cache in (sphere3, sphere4, sphere5)
        ]
        assert errs[0] / errs[1] >= 1.8 and errs[1] / errs[2] >= 1.8


# unjittered meshes of the bit-identity test, built once
_BASE_MESHES = {
    "icosphere2": lambda: icosphere(2),
    "icosphere3": lambda: icosphere(3),
    "ellipsoid2": lambda: ellipsoid(1.2, 1.0, 0.85, 2),
    "ellipsoid3": lambda: ellipsoid(1.2, 1.0, 0.85, 3),
    "torus": lambda: torus(2.0, 0.7, 24, 12),
}


@functools.cache
def _base_mesh(shape):
    return _BASE_MESHES[shape]()


class TestBitIdentity:
    """The trial's geometry and rates keep every bit of the earlier
    formulas in ``oracles.reference_geometry``: the edge ring, the
    component-first vertex sums and the shared half-cotangents are pure
    rewrites."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(sorted(_BASE_MESHES)),
        seed=st.integers(0, 2 ** 32 - 1),
        # up to a fifth of the shortest edge: obtuse corners appear, and
        # no face degenerates
        jitter=st.floats(0.0, 0.2),
    )
    def test_cache_and_rates_match_the_reference(self, shape, seed, jitter):
        from vpwf.flow import _settle

        base = _base_mesh(shape)
        h = float(np.sqrt(face_geometry(base)[3].min()))
        noise = np.random.default_rng(seed).uniform(
            -1.0, 1.0, base.positions.shape)
        mesh = base.with_positions(base.positions + jitter * h * noise)
        want = reference_geometry(mesh)
        for cache in (build_cache(mesh),
                      build_cache(mesh, face_frame(mesh))):
            lap = cache.laplacian
            for got, ref in zip((lap.data, lap.indices, lap.indptr),
                                want["laplacian"]):
                assert np.array_equal(got, ref)
            for name, ref in want.items():
                if name != "laplacian":
                    got = getattr(cache, name)
                    assert np.shape(got) == np.shape(ref), name
                    assert np.array_equal(got, ref), name
        cache, rates = _settle(mesh, face_frame(mesh))
        lam, xi, max_speed, wb = reference_rates(cache)
        assert (rates.lam, rates.max_speed, rates.wbar) == (
            lam, max_speed, wb)
        assert np.array_equal(rates.xi, xi)
