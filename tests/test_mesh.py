import numpy as np
import pytest

from vpwf.errors import (
    DanglingVertexError,
    DegenerateFaceError,
    InconsistentOrientationError,
    NonManifoldError,
)
from vpwf.functionals import signed_volume
from vpwf.generators import ellipsoid, icosphere, torus
from vpwf.mesh import (
    TriMesh,
    dot3,
    face_frame,
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

    def test_frame_edge_ring(self):
        # edge k runs from corner k to corner k+1; edge k-1 is the ring's
        # first three slots, and both are views of the one ring
        mesh = ellipsoid(1.2, 1.0, 0.85, 1)
        frame = face_frame(mesh)
        p = mesh.positions[mesh.faces].transpose(2, 1, 0)
        expected = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1],
                             p[:, 0] - p[:, 2]], axis=1)
        assert np.array_equal(frame.edges, expected)
        assert np.array_equal(frame.ring[:, :3], expected[:, [2, 0, 1]])
        assert frame.edges.base is frame.ring
        assert np.array_equal(frame.cross,
                              np.cross(expected[:, 0].T, expected[:, 1].T).T)


CLOSED_MESHES = [
    octahedron,
    lambda: icosphere(3),
    lambda: ellipsoid(1.2, 1.0, 0.85, 3),
    lambda: torus(2.0, 1.0, 16, 16),
]


class TestTetVolume:
    """The edge-cross sum -(1/6) sum p0 . (e01 x e12) is the package's one
    volume formula: signed_volume and the flow's trial check both use it."""

    @staticmethod
    def corner_triple_sum(mesh):
        """The signed-tetrahedron sum in its corner form, p0 . (p1 x p2)."""
        p0, p1, p2 = (mesh.positions[mesh.faces[:, k]] for k in range(3))
        return -float(np.sum(p0 * np.cross(p1, p2))) / 6.0

    @pytest.mark.parametrize("builder", CLOSED_MESHES)
    def test_agrees_with_corner_triple_product(self, builder):
        mesh = builder()
        volume = face_frame(mesh).volume
        assert volume == signed_volume(mesh)
        assert volume == pytest.approx(self.corner_triple_sum(mesh),
                                       rel=1e-13)

    @pytest.mark.parametrize("builder", CLOSED_MESHES)
    def test_frame_volume_is_the_edge_cross_sum(self, builder):
        # measured once, as the frame is built, from its own arrays
        frame = face_frame(builder())
        assert frame.volume == -float(
            dot3(frame.corners[:, 0], frame.cross).sum()) / 6.0

    @pytest.mark.parametrize("builder", CLOSED_MESHES)
    @pytest.mark.parametrize("shift", [
        (1e-3, 0.0, 0.0), (2.5, -1.0, 0.5), (-40.0, 30.0, 25.0),
    ])
    def test_translation_invariant(self, builder, shift):
        mesh = builder()
        volume = signed_volume(mesh)
        moved = TriMesh(mesh.positions + np.array(shift), mesh.faces)
        # the translation term t . sum(e01 x e12) cancels up to rounding
        # of the face vector areas, of order |t| * area * eps
        scale = np.linalg.norm(shift) * face_geometry(mesh)[0].sum()
        assert abs(signed_volume(moved) - volume) <= 1e-14 * (
            abs(volume) + scale)


class TestTriMesh:
    def test_positions_are_read_only(self):
        mesh = octahedron()
        with pytest.raises(ValueError):
            mesh.positions[0, 0] = 5.0

    def test_columns_are_the_transposed_positions(self):
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        columns, face_columns = mesh.columns, mesh.face_columns
        assert columns is mesh.columns and face_columns is mesh.face_columns
        for got, want in ((columns, mesh.positions.T),
                          (face_columns, mesh.faces.T)):
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous and not got.flags.writeable
        moved = mesh.with_positions(2.0 * mesh.positions)
        assert moved.face_columns is face_columns
        assert np.array_equal(moved.columns, 2.0 * columns)

    def test_with_columns_adopts_the_columns(self):
        mesh = ellipsoid(1.2, 1.0, 0.85, 2)
        mesh.topology()
        columns = mesh.columns + 0.25
        moved = mesh.with_columns(columns)
        assert moved.columns is columns and not columns.flags.writeable
        assert np.array_equal(moved.positions, mesh.positions + 0.25)
        assert moved.positions.flags.c_contiguous
        assert moved.topology() is mesh.topology()
        assert np.array_equal(face_frame(moved).corners,
                              face_frame(TriMesh(moved.positions,
                                                 mesh.faces)).corners)

    def test_with_positions_shares_connectivity(self):
        mesh = octahedron()
        mesh.topology()
        moved = mesh.with_positions(mesh.positions * 2.0)
        assert moved.topology() is mesh.topology()

    @pytest.mark.parametrize("make_mesh", CLOSED_MESHES)
    @pytest.mark.parametrize("scale, shift", [
        (1.0, (0.0, 0.0, 0.0)), (1.0 + 1e-9, (1e-7, 0.0, -1e-7)),
        (3.7, (2.5, -1.0, 0.5)), (1e-3, (-40.0, 30.0, 25.0)),
    ])
    def test_with_positions_floor_matches_a_fresh_mesh(
        self, make_mesh, scale, shift
    ):
        mesh = make_mesh()
        mesh.area_floor()  # cached on the source mesh
        positions = scale * mesh.positions + np.array(shift)
        moved = mesh.with_positions(positions)
        fresh = TriMesh(positions, mesh.faces)
        # np.linalg.norm of the extent, the floor's earlier formula
        diag = float(np.linalg.norm(positions.max(axis=0)
                                    - positions.min(axis=0)))
        assert moved.area_floor() == fresh.area_floor() == 1e-12 * (diag * diag)

    @staticmethod
    def tiny_face_tetrahedron(ratio):
        """A tetrahedron whose face 0 has ``ratio`` times its area floor.

        Face 0 is the right triangle of legs s at the origin; the apex at
        height 1 makes the squared bounding-box diagonal 2 s^2 + 1.
        """
        q = 2e-12 * ratio
        s = np.sqrt(q / (1.0 - 2.0 * q))
        positions = [[0, 0, 0], [s, 0, 0], [0, s, 0], [0, 0, 1]]
        faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]]
        return np.array(positions, dtype=float), np.array(faces)

    def test_face_just_under_the_floor_raises(self):
        positions, faces = self.tiny_face_tetrahedron(1.0 - 1e-6)
        diag_sq = float(np.linalg.norm(positions.max(axis=0))) ** 2
        area = 0.5 * positions[1, 0] * positions[2, 1]
        message = "face 0 has area %.3e below floor %.3e" % (
            area, 1e-12 * diag_sq)
        source = TriMesh(positions + [[0.0, 0.0, 5.0]], faces)
        source.area_floor()
        for mesh in (TriMesh(positions, faces),
                     source.with_positions(positions)):
            with pytest.raises(DegenerateFaceError) as info:
                face_geometry(mesh)
            assert str(info.value) == message

    def test_face_just_over_the_floor_passes(self):
        positions, faces = self.tiny_face_tetrahedron(1.0 + 1e-6)
        areas = face_geometry(TriMesh(positions, faces))[0]
        assert areas[0] == pytest.approx(
            1e-12 * float(np.linalg.norm(positions.max(axis=0))) ** 2,
            rel=2e-6)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            TriMesh([[0, 0], [1, 1]], [[0, 1, 1]])
        with pytest.raises(ValueError):
            TriMesh([[0, 0, 0]], [[0, 0]])
