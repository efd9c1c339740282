import numpy as np
import pytest

from vpwf.errors import (
    DanglingVertexError,
    DegenerateFaceError,
    InconsistentOrientationError,
    NonManifoldError,
)
from vpwf.generators import icosphere, torus
from vpwf.mesh import (
    TriMesh,
    face_geometry,
    validate,
)

from oracles import face_area_normal, octahedron, shortest_edge_length


class TestValidate:
    def test_octahedron_topology(self):
        topo = validate(octahedron())
        assert topo.vertex_count == 6
        assert topo.edge_count == 12
        assert topo.face_count == 8
        assert topo.euler_characteristic == 2  # 6 - 12 + 8
        assert topo.genus == 0

    def test_torus_topology(self):
        topo = validate(torus(2.0, 1.0, 16, 16))
        assert topo.euler_characteristic == 0
        assert topo.genus == 1

    def test_missing_face_is_non_manifold(self):
        mesh = octahedron()
        with pytest.raises(NonManifoldError):
            validate(TriMesh(mesh.positions, mesh.faces[:-1]))

    def test_flipped_face_is_inconsistent(self):
        mesh = octahedron()
        faces = np.array(mesh.faces)
        faces[0] = faces[0][::-1]
        with pytest.raises(InconsistentOrientationError):
            validate(TriMesh(mesh.positions, faces))

    def test_out_of_range_index(self):
        mesh = octahedron()
        faces = np.array(mesh.faces)
        faces[0, 0] = 99
        with pytest.raises(DanglingVertexError):
            validate(TriMesh(mesh.positions, faces))

    def test_underused_vertex(self):
        mesh = octahedron()
        positions = np.vstack([mesh.positions, [2.0, 2.0, 2.0]])
        with pytest.raises(DanglingVertexError):
            validate(TriMesh(positions, mesh.faces))

    def test_degenerate_face(self):
        mesh = octahedron()
        positions = np.array(mesh.positions)
        # collapse vertex 0 onto vertex 2: its faces lose their area
        positions[0] = positions[2]
        with pytest.raises(DegenerateFaceError):
            validate(TriMesh(positions, mesh.faces))

    def test_idempotent_and_pure(self):
        mesh = octahedron()
        before = np.array(mesh.positions)
        assert validate(mesh) == validate(mesh)
        assert np.array_equal(mesh.positions, before)

    def test_icosphere_always_genus_zero(self):
        for level in (0, 1, 2, 3):
            assert validate(icosphere(level)).euler_characteristic == 2

    def test_torus_always_genus_one(self):
        for nu, nv in ((8, 8), (16, 12), (12, 16)):
            assert validate(torus(2.0, 0.7, nu, nv)).euler_characteristic == 0


class TestFaceGeometry:
    def test_right_triangle(self):
        mesh = TriMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 2], [0, 2, 1]],  # not valid, but face ops work per face
        )
        area, normal = face_area_normal(mesh, 0)
        assert area == pytest.approx(0.5)
        assert np.allclose(normal, [0, 0, 1])
        area, normal = face_area_normal(mesh, 1)
        assert np.allclose(normal, [0, 0, -1])

    def test_equilateral_side_two(self):
        h = np.sqrt(3.0)
        mesh = TriMesh(
            [[0, 0, 0], [2, 0, 0], [1, h, 0], [0, 0, 1]],
            [[0, 1, 2], [0, 2, 1]],
        )
        area, _ = face_area_normal(mesh, 0)
        assert area == pytest.approx(np.sqrt(3.0), rel=1e-14)

    def test_degenerate_face_raises(self):
        mesh = TriMesh(
            [[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]]
        )
        with pytest.raises(DegenerateFaceError):
            face_area_normal(mesh, 0)

    @pytest.mark.parametrize("builder", [
        octahedron,
        lambda: icosphere(2),
        lambda: torus(2.0, 1.0, 16, 16),
    ])
    def test_closed_meshes_have_zero_total_vector_area(self, builder):
        mesh = builder()
        areas, normals, _, _ = face_geometry(mesh)
        resultant = np.linalg.norm((areas * normals).sum(axis=1))
        assert resultant <= 1e-12 * areas.sum()

    def test_shortest_edge(self):
        assert shortest_edge_length(octahedron()) == pytest.approx(np.sqrt(2))


class TestTriMesh:
    def test_positions_are_read_only(self):
        mesh = octahedron()
        with pytest.raises(ValueError):
            mesh.positions[0, 0] = 5.0

    def test_with_positions_shares_connectivity(self):
        mesh = octahedron()
        mesh.topology()
        moved = mesh.with_positions(mesh.positions * 2.0)
        assert moved.topology() is mesh.topology()

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            TriMesh([[0, 0], [1, 1]], [[0, 1, 1]])
        with pytest.raises(ValueError):
            TriMesh([[0, 0, 0]], [[0, 0]])
