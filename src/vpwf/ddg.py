"""Discrete differential-geometry operators on closed triangle meshes.

Conventions, anchored by the round sphere with inward normal:

* the cotangent operator ``L`` has off-diagonal entries +(cot a + cot b)/2,
  zero row sums and is symmetric negative semidefinite;
* the mass-normalized operator applied to the coordinate functions gives
  the mean curvature vector, so ``H = <(L f)/M, nu>`` is +2/r on a sphere
  of radius r with the normal pointing toward the center;
* Gaussian curvature is the angle defect divided by the mixed Voronoi
  vertex area, which keeps the curvature integral summing to 2*pi*chi
  exactly while staying pointwise consistent at irregular vertices.

Each operator takes the face data of :func:`~vpwf.mesh.face_geometry`;
:func:`build_cache` builds it once per mesh and passes it down, together
with the one half-cotangent array that the Laplacian and the vertex areas
share.  Vertex vector fields are summed component-first, into the rows of
a (3, n) array, and the cache's (n, 3) normals are a transposed view of
those rows.  The flow rebuilds the operator every step but connectivity
almost never changes, so the sparsity pattern and all index arrays are
derived once per faces array and only the cotangent data is refreshed.

Every sparse product runs scipy's compiled CSR kernel, ``_sparsetools``,
on plain CSR arrays (:class:`CSR`).  The kernel is loaded from its own
file rather than imported as ``scipy.sparse._sparsetools``: importing
``scipy.sparse`` would run scipy's package init, whose array-API layer
pulls in ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` and so costs
most of a command's cold start, while the kernel alone loads in about a
millisecond.  The extension has no Python dependencies besides numpy.
"""

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ZeroNormalError
from .mesh import dot3, face_frame, face_geometry

# Half-cotangents are clamped from below to limit blow-up on near-degenerate
# triangles; the quality pass in the flow engine is the primary defense.
COT_HALF_WEIGHT_FLOOR = -10.0


def _load_sparsetools():
    """scipy's compiled CSR kernel module, loaded from its file.

    ``find_spec`` locates the scipy package without running its init; the
    module is loaded under a private name so that it never stands in for
    ``scipy.sparse._sparsetools`` in ``sys.modules``.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    path = os.path.join(
        scipy_spec.submodule_search_locations[0], "sparse",
        "_sparsetools" + importlib.machinery.EXTENSION_SUFFIXES[0],
    )
    if not os.path.isfile(path):
        raise ImportError("scipy's CSR kernel not found at %s" % path)
    # the extension's init function is found by the name's last component
    name = __name__ + "._sparsetools"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(name, loader)
    )
    loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix as plain CSR arrays, the operand of :func:`_matvec`.

    ``data``/``indices``/``indptr`` are scipy's CSR layout with int32
    indices; ``shape`` is (rows, cols).
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def _matvec(a, x, out=None):
    """``a @ x`` for a CSR matrix ``a`` and a vector or (n, k) stack ``x``.

    ``a`` is a :class:`CSR` record: a cache's Laplacian or one of the
    connectivity's summation matrices.  This runs the compiled kernel that
    ``scipy.sparse``'s ``@`` ends up in, on the same arrays and into the
    same zeroed output, so every sum keeps its order and its rounding.  It
    skips scipy's dispatch around the kernel, which costs more than the
    product itself on meshes of a few thousand vertices.

    ``out``, for a vector ``x``, is a zero-filled array of ``a``'s row
    count that receives the product (the kernel adds to it), such as one
    row of a component-first (3, n) array.
    """
    rows, cols = a.shape
    x = np.asarray(x)
    # the kernel reads x at every column index unchecked
    if x.ndim not in (1, 2) or x.shape[0] != cols:
        raise ValueError(
            "operand of shape %s does not fit a %d x %d matrix"
            % (x.shape, rows, cols)
        )
    if x.ndim == 1:
        if out is None:
            out = np.zeros(rows)
        _sparsetools.csr_matvec(
            rows, cols, a.indptr, a.indices, a.data, x, out
        )
    else:
        k = x.shape[1]
        out = np.zeros((rows, k))
        _sparsetools.csr_matvecs(
            rows, cols, k, a.indptr, a.indices, a.data, x.ravel(),
            out.ravel(),
        )
    return out


def _summation_matrix(rows, cols, shape, values=None):
    """:class:`CSR` matrix whose product adds ``values`` up by ``rows``.

    Each row keeps its entries in input order, so ``M @ x`` sums in exactly
    the order (and with exactly the rounding) of the equivalent
    ``np.bincount`` scatter, at a fraction of its cost.
    """
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    data = np.ones(rows.size) if values is None else values[order]
    return CSR(data, cols[order].astype(np.int32), indptr, shape)


class _Connectivity:
    """Index structures derived from one faces array (shared across steps).

    Per-face data is stored component-first, shape (3, m), so corner ``k``
    of face ``f`` sits at flat index ``k * m + f``.  The summation matrices
    scatter such data to vertices (``corner_sum``: one value per corner,
    ``face_sum``: one value per face) and to the Laplacian's nonzeros
    (``assemble``).  The edge-flip pass's half-edge pairing,
    :attr:`pairing`, is built on first use.
    """

    def __init__(self, faces, vertex_count):
        f = faces
        m = f.shape[0]
        self.faces = faces
        self.vertex_count = vertex_count
        flat = f.reshape(-1)
        # half-edge k of a face is the edge opposite corner k
        edge_a = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
        edge_b = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
        rows = np.concatenate([edge_a, edge_b, edge_a, edge_b])
        cols = np.concatenate([edge_b, edge_a, edge_a, edge_b])
        order = np.lexsort((cols, rows))
        rs, cs = rows[order], cols[order]
        fresh = np.empty(rs.size, dtype=bool)
        fresh[0] = True
        fresh[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        slot_sorted = np.cumsum(fresh) - 1
        self.nnz = int(slot_sorted[-1]) + 1
        slot = np.empty(rows.size, dtype=np.intp)
        slot[order] = slot_sorted
        self.indices = cs[fresh].astype(np.int32)
        counts = np.bincount(rs[fresh], minlength=vertex_count)
        self.indptr = np.zeros(vertex_count + 1, dtype=np.int32)
        np.cumsum(counts, out=self.indptr[1:])

        # off-diagonal slots take +w twice, the diagonal -w per half-edge
        sign = np.repeat([1.0, 1.0, -1.0, -1.0], 3 * m)
        self.assemble = _summation_matrix(
            slot, np.tile(np.arange(3 * m), 4), (self.nnz, 3 * m), sign
        )
        # corners listed face by face, the order the vertex sums run in
        face_of = np.repeat(np.arange(m), 3)
        corner_col = np.tile(np.arange(3), m) * m + face_of
        self.corner_sum = _summation_matrix(
            flat, corner_col, (vertex_count, 3 * m)
        )
        self.face_sum = _summation_matrix(
            flat, face_of, (vertex_count, m)
        )

    @cached_property
    def pairing(self):
        """Half-edges paired into edges (:class:`_EdgePairing`)."""
        return _EdgePairing(self.faces, self.vertex_count)


class _EdgePairing:
    """Half-edges paired into undirected edges, for the edge-flip pass.

    Half-edge ``k * m + f`` runs from corner k of face f to corner k+1; the
    corner opposite it is corner k+2, at that slot of a component-first
    (3, m) corner array.  Edges are listed by increasing code
    ``min * n + max`` of their end vertices; the first half-edge of an
    edge is the lower-numbered one.  Per edge:

    * ``codes``: the sorted codes, one per edge;
    * ``ends``: (i, j), the ends of the first half-edge, in its direction;
    * ``apexes``: (k, l), the vertices opposite the first and second halves;
    * ``corners``: the corner slots of k and l;
    * ``faces``: the faces of the first and second halves.

    ``closed`` is False when the half-edges do not pair up two by two; the
    other fields are then meaningless.
    """

    def __init__(self, faces, vertex_count):
        m = faces.shape[0]
        start = faces.T.reshape(-1)
        end = faces[:, [1, 2, 0]].T.reshape(-1)
        code = (np.minimum(start, end) * np.int64(vertex_count)
                + np.maximum(start, end))
        order = np.argsort(code, kind="stable")
        code_sorted = code[order]
        self.closed = bool(np.array_equal(code_sorted[::2], code_sorted[1::2]))
        first, second = order[::2], order[1::2]
        self.codes = code_sorted[::2]
        self.ends = (start[first], end[first])
        opposite = (np.arange(3 * m) + 2 * m) % (3 * m)
        self.corners = (opposite[first], opposite[second])
        self.apexes = (start[self.corners[0]], start[self.corners[1]])
        self.faces = (first % m, second % m)


def _connectivity(mesh):
    conn = getattr(mesh, "_conn", None)
    if conn is None:
        conn = _Connectivity(mesh.faces, mesh.vertex_count)
        mesh._conn = conn
    return conn


@dataclass(eq=False)
class GeometryCache:
    """Per-vertex discrete geometry of one mesh, immutable once built.

    ``volume`` is the signed enclosed volume of the
    :class:`~vpwf.mesh.FaceFrame` the cache was built on, the number
    :func:`~vpwf.functionals.signed_volume` returns: the flow's volume
    check and the diagnostics row read it here instead of gathering the
    corners again.
    """

    mesh: object
    laplacian: CSR              # cotangent operator, see build_laplacian
    mass: np.ndarray            # mixed Voronoi vertex areas, sums to area
    normals: np.ndarray         # (n, 3) unit vertex normals, see vertex_normals
    # dV/ds_i as vertex i moves by s_i along its normal: the volume's
    # gradient at i is -1/3 of the normal's area-weighted sum
    volume_slope: np.ndarray
    H: np.ndarray               # mean curvature, +2/r on inward unit sphere
    K: np.ndarray               # angle-defect Gaussian curvature
    tracefree_sq: np.ndarray    # |A0|^2 = max(H^2/2 - 2K, 0)
    lap_H: np.ndarray           # mass-normalized Laplacian of H
    face_areas: np.ndarray = field(repr=False)
    face_sq: np.ndarray = field(repr=False)  # (3, m) squared edge lengths
    # (3, m) interior angle at each corner, the angles of the defect in K
    corner_angles: np.ndarray = field(repr=False)
    total_area: float
    volume: float               # signed, positive for inward orientation
    h_min: float                # shortest edge length

    @property
    def abs_A_sq(self):
        """Squared second-fundamental-form norm |A|^2 = |A0|^2 + H^2/2."""
        return self.tracefree_sq + 0.5 * self.H ** 2


def half_cotangents(face_data):
    """(3, m) half-cotangent of each corner's angle, dots / (4 areas).

    Unclamped: :func:`build_laplacian` clamps it and :func:`lumped_mass`
    takes a quarter of it.
    """
    areas, _, dots, _ = face_data
    return dots / (4.0 * areas)


def build_laplacian(mesh, half_cot):
    """Cotangent operator as a :class:`CSR` record.

    Corner k's half-cotangent (:func:`half_cotangents`), clamped, weights
    the opposite edge; the connectivity's ``assemble`` adds the weights up
    symmetrically with zero row sums, on its sparsity pattern.
    """
    weights = np.maximum(half_cot, COT_HALF_WEIGHT_FLOOR)
    conn = _connectivity(mesh)
    n = conn.vertex_count
    return CSR(_matvec(conn.assemble, weights.reshape(-1)), conn.indices,
               conn.indptr, (n, n))


def lumped_mass(mesh, face_data, half_cot):
    """Mixed Voronoi vertex areas (exact tiling, positive).

    Non-obtuse triangles contribute their circumcentric cell pieces
    (1/8)(|e|^2 cot of opposite angle) per incident edge; obtuse triangles
    fall back to half the area at the obtuse corner and a quarter at the
    other two.  The pieces tile each triangle exactly, so the areas sum to
    the total mesh area, and on equilateral triangles they reduce to the
    barycentric thirds.  This pairing with the cotangent operator is what
    keeps the curvature estimates pointwise consistent at irregular
    vertices (a one-third lumping leaves an O(1) error at the twelve
    valence-5 vertices of any subdivided icosahedron).  ``half_cot`` is
    :func:`half_cotangents` of ``face_data``.
    """
    areas, _, dots, sq = face_data
    # cot at corner k over 8, times the squared lengths of the edges at k;
    # a quarter of the half-cotangent is exact, being a power-of-two scaling
    cot8 = 0.25 * half_cot
    shared = sq[0] * cot8[2]
    part = np.empty_like(cot8)
    part[0] = shared + sq[2] * cot8[1]
    part[1] = shared + sq[1] * cot8[0]
    part[2] = sq[2] * cot8[1] + sq[1] * cot8[0]
    obtuse = dots < 0.0
    any_obtuse = obtuse.any(axis=0)
    if any_obtuse.any():
        spread = np.broadcast_to(areas, part.shape)
        part[:, any_obtuse] = 0.25 * spread[:, any_obtuse]
        part[obtuse] = 0.5 * spread[obtuse]
    return _matvec(_connectivity(mesh).corner_sum, part.reshape(-1))


def vertex_normals(mesh, face_data):
    """Area-weighted average of incident face normals, unit length.

    Returns (normals, lengths), ``lengths`` being the length of each
    vertex's sum of area-weighted face normals, the sum the normal
    normalises.  The sums are taken component by component into the rows
    of a (3, n) array; ``normals`` is its (n, 3) transpose, a view.
    """
    areas, fnormals = face_data[:2]
    weighted = areas * fnormals
    face_sum = _connectivity(mesh).face_sum
    acc = np.zeros((3, mesh.vertex_count))
    for a in range(3):
        _matvec(face_sum, weighted[a], out=acc[a])
    norms = np.sqrt(dot3(acc, acc))
    if (norms < 1e-14).any():
        bad = int(np.argmin(norms))
        raise ZeroNormalError(
            "vertex %d normal sum has magnitude %.3e" % (bad, norms[bad])
        )
    acc /= norms
    return acc.T, norms


def mean_curvature(mesh, laplacian, mass, normals):
    """H_i from the normal component of the mass-normalized Laplacian.

    The Laplacian is applied to the three coordinate rows of the
    positions, the mesh's :attr:`~vpwf.mesh.TriMesh.columns`; ``normals``
    is (n, 3), best the transposed view that :func:`vertex_normals`
    returns, whose rows are then contiguous.
    """
    coords = mesh.columns
    lap = np.zeros(coords.shape)
    for a in range(3):
        _matvec(laplacian, coords[a], out=lap[a])
    return dot3(lap, normals.T) / mass


def _corner_angles(face_data):
    """(3, m) interior angles, corner k's from its area and edge dot."""
    areas, _, dots, _ = face_data
    return np.arctan2(2.0 * areas, dots)


def gaussian_curvature(mesh, mass, angles):
    """Angle-defect Gaussian curvature (2*pi minus corner angles) / area.

    ``angles`` are the (3, m) corner angles of :func:`_corner_angles`.
    """
    defect = 2.0 * np.pi - _matvec(
        _connectivity(mesh).corner_sum, angles.reshape(-1)
    )
    return defect / mass


def tracefree_sq(H, K):
    """|A0|^2 = H^2/2 - 2K, clamped at zero.

    Nonnegative in the smooth setting; the clamp keeps discretization noise
    from injecting negative energy density.
    """
    return np.maximum(0.5 * H ** 2 - 2.0 * K, 0.0)


def build_cache(mesh, frame=None):
    """Assemble every per-vertex quantity the flow and diagnostics need.

    This is the one way to get them: the face data of
    :func:`~vpwf.mesh.face_geometry` is built once and handed to each
    operator.  ``frame`` is the mesh's :class:`~vpwf.mesh.FaceFrame` when
    the caller has it (the flow's volume check does); the cache's
    ``volume`` is the frame's, never summed again.
    """
    if frame is None:
        frame = face_frame(mesh)
    face_data = face_geometry(mesh, frame)
    volume = frame.volume
    # nothing below reads the corners or edges: a frame built here is freed
    del frame
    half_cot = half_cotangents(face_data)
    laplacian = build_laplacian(mesh, half_cot)
    mass = lumped_mass(mesh, face_data, half_cot)
    normals, normal_lengths = vertex_normals(mesh, face_data)
    H = mean_curvature(mesh, laplacian, mass, normals)
    angles = _corner_angles(face_data)
    K = gaussian_curvature(mesh, mass, angles)
    return GeometryCache(
        mesh=mesh,
        laplacian=laplacian,
        mass=mass,
        normals=normals,
        volume_slope=normal_lengths / -3.0,
        H=H,
        K=K,
        tracefree_sq=tracefree_sq(H, K),
        lap_H=_matvec(laplacian, H) / mass,
        face_areas=face_data[0],
        face_sq=face_data[3],
        corner_angles=angles,
        total_area=float(face_data[0].sum()),
        volume=volume,
        h_min=float(np.sqrt(face_data[3].min())),
    )
