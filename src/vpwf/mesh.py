"""Closed oriented triangle meshes: storage, validation, elementary geometry.

A mesh is an indexed face set: an (n, 3) float64 array of vertex positions
and an (m, 3) int array of vertex index triples.  Face winding is
counter-clockwise as seen from the side the unit normal points away from;
generators in this package wind faces so the normal points toward the
bounded component ("inward"), which makes the signed volume positive.

Meshes are immutable after construction (the arrays are marked read-only);
every flow step builds a successor mesh instead of mutating in place, so a
mesh can be shared freely across threads for read-only analysis.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DanglingVertexError,
    DegenerateFaceError,
    InconsistentOrientationError,
    NonManifoldError,
)

# Degenerate faces are rejected relative to the squared bounding-box
# diagonal; they are never repaired, so downstream operators stay well-posed.
AREA_FLOOR_SCALE = 1e-12


def cross3(a, b):
    """Cross product of vector fields stored component-first, shape (3, ...).

    Each component is a contiguous run when the fields come from a
    :class:`FaceFrame`, which is what makes the per-face kernels fast.
    """
    out = np.empty_like(a)
    tmp = np.empty_like(out[0])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        np.multiply(a[k], b[j], out=tmp)
        out[i] -= tmp
    return out


def dot3(a, b):
    """Dot product of vector fields stored component-first, shape (3, ...)."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def bounding_box_extent(columns):
    """Per-axis extent (max minus min) of (3, n) component-first points.

    Reduced over one contiguous row per axis, such as a mesh's
    :attr:`TriMesh.columns`: ``points.max(axis=0)`` on the (n, 3) points
    is about ten times slower and gives the same values.
    """
    return columns.max(axis=1) - columns.min(axis=1)


@dataclass(frozen=True)
class MeshTopologySummary:
    """Counts and derived topological invariants of a closed oriented mesh."""

    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    genus: int


class TriMesh:
    """Indexed triangle mesh; topology and operator structures are cached.

    Parameters
    ----------
    positions : array_like
        (n, 3) vertex coordinates.
    faces : array_like
        (m, 3) vertex index triples, consistently wound.

    Notes
    -----
    Construction only checks array shapes; call :func:`validate` for the
    full closedness/orientation/degeneracy check.  The arrays are adopted
    without copying when already contiguous float64/int64 and are marked
    read-only; pass a copy if you need to keep writing to yours.
    """

    def __init__(self, positions, faces):
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must be an (n, 3) array")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError("faces must be an (m, 3) array")
        positions.setflags(write=False)
        faces.setflags(write=False)
        self.positions = positions
        self.faces = faces
        self._columns = None
        self._face_columns = None
        self._topology = None
        self._area_floor = None
        self._conn = None  # operator index structures, built by ddg

    @property
    def vertex_count(self):
        return self.positions.shape[0]

    @property
    def face_count(self):
        return self.faces.shape[0]

    @property
    def columns(self):
        """(3, n) read-only component-first copy of the positions (cached).

        Row a holds coordinate a of every vertex, contiguous: the corner
        gather, the bounding box, the Laplacian of the coordinates and the
        diagnostics' pair scan all read it.
        """
        if self._columns is None:
            columns = np.ascontiguousarray(self.positions.T)
            columns.setflags(write=False)
            self._columns = columns
        return self._columns

    @property
    def face_columns(self):
        """(3, m) read-only contiguous copy of ``faces.T`` (cached)."""
        if self._face_columns is None:
            face_columns = np.ascontiguousarray(self.faces.T)
            face_columns.setflags(write=False)
            self._face_columns = face_columns
        return self._face_columns

    def with_positions(self, positions):
        """Successor mesh with identical connectivity and new coordinates."""
        out = TriMesh(positions, self.faces)
        # connectivity-derived caches stay valid
        out._face_columns = self._face_columns
        out._topology = self._topology
        out._conn = self._conn
        return out

    def with_columns(self, columns):
        """:meth:`with_positions` from (3, n) component-first coordinates.

        ``columns`` becomes the successor's :attr:`columns` (it is marked
        read-only) and its positions are the transposed copy.
        """
        out = self.with_positions(columns.T)
        columns.setflags(write=False)
        out._columns = columns
        return out

    def bounding_box_diagonal(self):
        # np.linalg.norm of a 1-D real array is this square root of a dot
        # product, bit for bit; its dispatch costs more than the sum
        extent = bounding_box_extent(self.columns)
        return math.sqrt(float(extent.dot(extent)))

    def area_floor(self):
        """Face-area degeneracy floor for this mesh's scale (cached).

        It is never carried over by :meth:`with_positions`: the floor scales
        with the positions' own bounding box, so a successor keeping its
        parent's floor would not reject exactly the faces a fresh mesh does.
        """
        if self._area_floor is None:
            diag = self.bounding_box_diagonal()
            self._area_floor = AREA_FLOOR_SCALE * (diag * diag if diag else 1.0)
        return self._area_floor

    def topology(self):
        """Validated topology summary (cached)."""
        if self._topology is None:
            self._topology = validate(self)
        return self._topology


class FaceFrame(NamedTuple):
    """A mesh's corners, edges, edge cross products and volume, gathered once.

    Every array field is component-first: ``corners[a, k, f]`` is
    coordinate ``a`` of corner ``k`` of face ``f``.  ``ring`` holds the
    edges e20, e01, e12, e20 in its four slots, so that :attr:`edges`, edge
    k from corner k to corner k+1, is ``ring[:, 1:]`` and edge k-1 is
    ``ring[:, :3]``: both are views.  ``cross`` is e01 x e12, twice the
    face area along the winding normal.  ``corners[:, k]`` and
    ``edges[:, k]`` are (3, m) vector fields for :func:`cross3` and
    :func:`dot3`.

    ``volume`` is the signed enclosed volume, the signed-tetrahedron sum
    -(1/6) sum p0 . (e01 x e12), positive for inward orientation.  It
    equals the sum of p0 . (p1 x p2) in real arithmetic and reuses
    ``cross``; it is the package's one volume formula, measured once per
    frame, so the flow's volume check, the cache built on the same frame
    and the diagnostics row all read the same number.
    """

    corners: np.ndarray
    ring: np.ndarray
    cross: np.ndarray
    volume: float

    @property
    def edges(self):
        """(3, 3, m) edges e01, e12, e20, a view of :attr:`ring`."""
        return self.ring[:, 1:]


def face_frame(mesh):
    """The :class:`FaceFrame` of ``mesh``: one gather of its corners."""
    corners = np.take(mesh.columns, mesh.face_columns, axis=1)
    ring = np.empty((3, 4, corners.shape[2]))
    np.subtract(corners[:, 1:], corners[:, :2], out=ring[:, 1:3])
    np.subtract(corners[:, 0], corners[:, 2], out=ring[:, 3])
    ring[:, 0] = ring[:, 3]
    cross = cross3(ring[:, 1], ring[:, 2])
    volume = -float(dot3(corners[:, 0], cross).sum()) / 6.0
    return FaceFrame(corners, ring, cross, volume)


def face_geometry(mesh, frame=None):
    """Areas, winding normals, corner dots and squared edge lengths.

    The package's one face-geometry kernel.  Per-face arrays are
    component-first, shape (3, m): ``normals[a]`` is coordinate a,
    ``dots[k]`` the dot product of the two edges leaving corner k and
    ``sq[k]`` the squared length of the edge from corner k to corner k+1.
    Both are read off the frame's edge ring, whose edge k and edge k-1 are
    views, so no edge array is copied.  ``frame`` lets a caller that
    already built the mesh's :class:`FaceFrame` (the flow's volume check,
    the quality pass and :func:`~vpwf.ddg.build_cache` do) hand it over.

    Raises
    ------
    DegenerateFaceError
        If any face area is below the mesh's degeneracy floor.
    """
    if frame is None:
        frame = face_frame(mesh)
    ring, edges, cross = frame.ring, frame.edges, frame.cross
    double_area = np.sqrt(dot3(cross, cross))
    areas = 0.5 * double_area
    floor = mesh.area_floor()
    if (areas < floor).any():
        worst = int(np.argmin(areas))
        raise DegenerateFaceError(
            "face %d has area %.3e below floor %.3e"
            % (worst, areas[worst], floor)
        )
    normals = cross / double_area
    # the edges leaving corner k are edge k and the reverse of edge k-1
    dots = np.negative(dot3(edges, ring[:, :3]))
    sq = dot3(edges, edges)
    return areas, normals, dots, sq


def shape_quality(areas, sq):
    """Per-face shape quality 4*sqrt(3)*area / sum of squared edge lengths.

    From face areas and (3, m) squared edge lengths; equals 1 for
    equilateral triangles and tends to 0 for slivers.
    """
    return 4.0 * np.sqrt(3.0) * areas / sq.sum(axis=0)


def validate(mesh):
    """Check all mesh invariants and return a :class:`MeshTopologySummary`.

    The checks, in order: indices in range and every vertex referenced by at
    least three faces; every undirected edge incident to exactly two faces
    (closed surface); the two incident faces traverse the edge in opposite
    directions (consistent orientation); no face area below the degeneracy
    floor.  Pure function: the mesh is not modified.

    Raises
    ------
    DanglingVertexError, NonManifoldError, InconsistentOrientationError,
    DegenerateFaceError
    """
    f = mesh.faces
    n = mesh.vertex_count
    if f.size == 0:
        raise NonManifoldError("mesh has no faces")
    if f.min() < 0 or f.max() >= n:
        raise DanglingVertexError(
            "face references vertex index outside [0, %d)" % n
        )
    if np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2]) or np.any(
        f[:, 2] == f[:, 0]
    ):
        raise DegenerateFaceError("face with repeated vertex indices")
    refs = np.bincount(f.reshape(-1), minlength=n)
    if np.any(refs < 3):
        bad = int(np.argmin(refs))
        raise DanglingVertexError(
            "vertex %d referenced by %d < 3 faces" % (bad, refs[bad])
        )

    directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    # encode each directed edge as a single integer for fast counting
    code = directed[:, 0] * np.int64(n) + directed[:, 1]
    code_sorted = np.sort(code)
    dup = code_sorted[1:] == code_sorted[:-1]
    if np.any(dup):
        i, j = divmod(int(code_sorted[:-1][dup][0]), n)
        raise InconsistentOrientationError(
            "directed edge (%d, %d) traversed twice in the same direction"
            % (i, j)
        )
    lo = np.minimum(directed[:, 0], directed[:, 1])
    hi = np.maximum(directed[:, 0], directed[:, 1])
    ucode = lo * np.int64(n) + hi
    uniq, counts = np.unique(ucode, return_counts=True)
    if np.any(counts != 2):
        bad = uniq[counts != 2][0]
        i, j = divmod(int(bad), n)
        raise NonManifoldError(
            "edge (%d, %d) incident to %d faces (expected 2)"
            % (i, j, int(counts[counts != 2][0]))
        )

    face_geometry(mesh)  # raises DegenerateFaceError

    edge_count = uniq.size
    face_count = f.shape[0]
    chi = n - edge_count + face_count
    genus = (2 - chi) // 2
    return MeshTopologySummary(
        vertex_count=n,
        edge_count=int(edge_count),
        face_count=int(face_count),
        euler_characteristic=int(chi),
        genus=int(genus),
    )
