"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own discrete operators:
closed forms, analytic parametrizations with high-order quadrature, and
brute-force scans.  The conventions match the library (normals point
toward the bounded region, positive enclosed volume, H = sum of principal
curvatures, H = +2/r on the unit sphere).
"""

import numpy as np
from scipy import sparse


def sphere_values(radius=1.0):
    return {
        "area": 4.0 * np.pi * radius ** 2,
        "volume": 4.0 * np.pi * radius ** 3 / 3.0,
        "willmore": 4.0 * np.pi,
        "H": 2.0 / radius,
        "K": 1.0 / radius ** 2,
    }


def torus_area(big_radius, tube_radius):
    return 4.0 * np.pi ** 2 * big_radius * tube_radius


def torus_willmore(big_radius, tube_radius, n=4096):
    """Quadrature of the bending energy of a torus of revolution.

    (pi / (2a)) * integral_0^{2pi} (R + 2a cos v)^2 / (R + a cos v) dv;
    the periodic trapezoid rule converges spectrally.  Equals
    4 pi^2 / sqrt(3) at R/a = 2.
    """
    v = 2.0 * np.pi * np.arange(n) / n
    integrand = (big_radius + 2.0 * tube_radius * np.cos(v)) ** 2 / (
        big_radius + tube_radius * np.cos(v)
    )
    return np.pi / (2.0 * tube_radius) * np.mean(integrand) * 2.0 * np.pi


def torus_curvatures(big_radius, tube_radius, v):
    """Pointwise H (inward convention) and K at tube angle v."""
    k1 = np.cos(v) / (big_radius + tube_radius * np.cos(v))
    k2 = 1.0 / tube_radius
    return k1 + k2, k1 * k2


def ellipsoid_quadrature(a, b, c, n_theta=192, n_phi=384):
    """Area, volume, Willmore energy and bending energy of an ellipsoid.

    Analytic first and second fundamental forms on the standard
    parametrization, Gauss-Legendre in the polar angle, periodic trapezoid
    in the azimuth.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w_theta = 0.5 * np.pi * wts
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    st, ct = np.sin(tt), np.cos(tt)
    sp, cp = np.sin(pp), np.cos(pp)

    f_t = np.stack([a * ct * cp, b * ct * sp, -c * st], axis=-1)
    f_p = np.stack([-a * st * sp, b * st * cp, np.zeros_like(st)], axis=-1)
    f_tt = np.stack([-a * st * cp, -b * st * sp, -c * ct], axis=-1)
    f_tp = np.stack([-a * ct * sp, b * ct * cp, np.zeros_like(st)], axis=-1)
    f_pp = np.stack([-a * st * cp, -b * st * sp, np.zeros_like(st)], axis=-1)

    E = np.einsum("...i,...i", f_t, f_t)
    F = np.einsum("...i,...i", f_t, f_p)
    G = np.einsum("...i,...i", f_p, f_p)
    w2 = E * G - F ** 2
    normal = np.cross(f_t, f_p)  # outward
    inward = -normal / np.sqrt(w2)[..., None]
    e = np.einsum("...i,...i", f_tt, inward)
    f2 = np.einsum("...i,...i", f_tp, inward)
    g = np.einsum("...i,...i", f_pp, inward)

    H = (e * G - 2.0 * f2 * F + g * E) / w2
    K = (e * g - f2 ** 2) / w2
    dA = np.sqrt(w2) * w_theta[:, None] * w_phi
    return {
        "area": float(np.sum(dA)),
        "volume": 4.0 * np.pi * a * b * c / 3.0,
        "willmore": float(np.sum(0.25 * H ** 2 * dA)),
        "wbar": float(np.sum((0.5 * H ** 2 - 2.0 * K) * dA)),
    }


def random_smooth_normal_field(points, rng, modes=3):
    """Smooth O(1) scalar field: a few low-frequency trigonometric waves."""
    phi = np.zeros(points.shape[0])
    for _ in range(modes):
        k = rng.uniform(-1.5, 1.5, size=3)
        shift = rng.uniform(0.0, 2.0 * np.pi)
        phi += rng.uniform(0.3, 1.0) * np.sin(points @ k + shift)
    return phi


def brute_force_diameter(points):
    best = 0.0
    for i in range(points.shape[0]):
        d = np.linalg.norm(points[i + 1:] - points[i], axis=1)
        if d.size:
            best = max(best, float(d.max()))
    return best


def direct_ball_contents(positions, weights, radius):
    """Content of the open ball around every vertex, by the direct rule.

    ``weights[d2 < r*r].sum()`` with ``d2 = sum((p_i - p_j)**2)``, one
    float64 difference per pair.  Its max and first argmax are the
    concentration value and centre.
    """
    r_sq = radius * radius
    return np.array([
        weights[np.sum((positions - x) ** 2, axis=1) < r_sq].sum()
        for x in positions
    ])


def random_rigid_motion(positions, seed):
    """Positions under a rotation and translation picked by ``seed``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return positions @ q.T + rng.uniform(-2.0, 2.0, size=3)


def brute_force_ball_energy(positions, weights, center, radius):
    """Direct evaluation of the local curvature energy in one open ball."""
    d = np.linalg.norm(positions - center, axis=1)
    return float(np.sum(weights[d < radius]))


def brute_force_concentration(positions, weights, radius):
    """Max local curvature energy over vertex-centered balls, by direct scan."""
    best = -np.inf
    for i in range(positions.shape[0]):
        val = brute_force_ball_energy(positions, weights, positions[i], radius)
        best = max(best, val)
    return best


def face_area_normal(mesh, face_index):
    """Area and unit winding normal of one face, by one cross product.

    Raises DegenerateFaceError below the mesh's area floor.
    """
    from vpwf.errors import DegenerateFaceError

    p = mesh.positions
    i, j, k = mesh.faces[face_index]
    cross = np.cross(p[j] - p[i], p[k] - p[i])
    double_area = float(np.linalg.norm(cross))
    area = 0.5 * double_area
    if area < mesh.area_floor():
        raise DegenerateFaceError(
            "face %d has area %.3e below floor %.3e"
            % (face_index, area, mesh.area_floor())
        )
    return area, cross / double_area


def shortest_edge_length(mesh):
    """Minimum length over the three edges of every face."""
    p, faces = mesh.positions, mesh.faces
    edges = p[np.roll(faces, -1, axis=1)] - p[faces]
    return float(np.sqrt(np.sum(edges ** 2, axis=2)).min())


def volume_gradient_normal(mesh, normals):
    """Exact per-vertex derivative of the signed volume along the normals.

    Entry i is d/dc V(f + c * e_i * nu_i) at c = 0; the corresponding vector
    gradient at vertex i is minus one third of the area-weighted sum of the
    incident face normals, i.e. minus one sixth of the incident face cross
    products.
    """
    p, faces = mesh.positions, mesh.faces
    p0, p1, p2 = p[faces[:, 0]], p[faces[:, 1]], p[faces[:, 2]]
    weighted = 0.5 * np.cross(p1 - p0, p2 - p0)
    idx = faces.reshape(-1)
    grad = np.empty((mesh.vertex_count, 3))
    for k in range(3):
        grad[:, k] = np.bincount(
            idx, weights=np.repeat(weighted[:, k], 3),
            minlength=mesh.vertex_count,
        )
    return -np.sum(grad * normals, axis=1) / 3.0


def csr_matrix(record):
    """``scipy.sparse.csr_matrix`` on the arrays of a ddg CSR record.

    ``record`` is a :class:`~vpwf.ddg.CSR`, such as a cache's Laplacian or
    one of the connectivity's summation matrices; the matrix shares its
    arrays.
    """
    return sparse.csr_matrix(
        (record.data, record.indices, record.indptr), shape=record.shape,
        copy=False,
    )


def laplacian_of_scalar(laplacian, mass, u):
    """Mass-normalized operator application, same sign convention as H."""
    from vpwf.ddg import _matvec

    return _matvec(laplacian, u) / mass


def octahedron(scale=1.0):
    """Regular octahedron (vertices on the axes), inward winding."""
    from vpwf.mesh import TriMesh
    from vpwf.functionals import signed_volume

    verts = scale * np.array([
        [1.0, 0, 0], [-1.0, 0, 0],
        [0, 1.0, 0], [0, -1.0, 0],
        [0, 0, 1.0], [0, 0, -1.0],
    ])
    faces = np.array([
        [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
        [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
    ])
    mesh = TriMesh(verts, faces)
    if signed_volume(mesh) < 0:
        mesh = TriMesh(verts, faces[:, [0, 2, 1]])
    return mesh


def per_row_obj_text(positions, faces, comments=()):
    """OBJ text as written one numpy row at a time, ``repr`` per element."""
    out = ["# %s\n" % line for line in comments]
    for p in positions:
        out.append("v %s %s %s\n" % (repr(float(p[0])), repr(float(p[1])),
                                       repr(float(p[2]))))
    for f in faces:
        out.append("f %d %d %d\n" % (f[0] + 1, f[1] + 1, f[2] + 1))
    return "".join(out)


def reference_read_obj(path):
    """The line-at-a-time OBJ reader that ``fileio.read_obj`` replaced.

    Returns (positions, faces) or raises its ``FileFormatError``; the
    whole-file parser must give the same arrays and the same error text.
    """
    from vpwf.errors import FileFormatError

    positions = []
    faces = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise FileFormatError(
                        "vertex record needs 3 coordinates", path, lineno)
                try:
                    positions.append([float(x) for x in parts[1:4]])
                except ValueError:
                    raise FileFormatError(
                        "bad vertex coordinate", path, lineno) from None
            elif tag == "f":
                if len(parts) != 4:
                    raise FileFormatError(
                        "only triangular faces are supported", path, lineno)
                try:
                    idx = [int(p.split("/")[0]) for p in parts[1:]]
                except ValueError:
                    raise FileFormatError(
                        "bad face index", path, lineno) from None
                if any(i == 0 for i in idx):
                    raise FileFormatError(
                        "OBJ face indices are 1-based", path, lineno)
                faces.append(
                    [i - 1 if i > 0 else len(positions) + i for i in idx])
    if not positions or not faces:
        raise FileFormatError("no geometry found", path)
    return np.array(positions), np.array(faces)


def reference_geometry(mesh):
    """Every :class:`~vpwf.ddg.GeometryCache` field by the earlier formulas.

    These are the formulas the package used before it kept its edges in a
    ring, summed vertex vectors component-first and shared one
    half-cotangent array; each rewrite claims the same bits:

    * the corner dots pair the edges with a fancy-indexed copy, edge k with
      edge k-1 by ``edges[:, [2, 0, 1]]``;
    * the normals are summed into the columns of an (n, 3) array;
    * the Laplacian is applied to the (n, 3) positions in one
      ``csr_matvecs`` call and dotted with the normals row by row;
    * the vertex areas take cot/8 as dots / (16 areas).

    Returns a dict keyed by field name; ``laplacian`` is the CSR record's
    (data, indices, indptr).
    """
    from vpwf.ddg import CSR, COT_HALF_WEIGHT_FLOOR, _connectivity, _matvec
    from vpwf.mesh import cross3, dot3

    corners = np.take(mesh.positions.T, mesh.faces.T, axis=1)
    edges = np.empty_like(corners)
    edges[:, :2] = corners[:, 1:] - corners[:, :2]
    edges[:, 2] = corners[:, 0] - corners[:, 2]
    cross = cross3(edges[:, 0], edges[:, 1])
    double_area = np.sqrt(dot3(cross, cross))
    areas = 0.5 * double_area
    face_normals = cross / double_area
    dots = np.negative(dot3(edges, edges[:, [2, 0, 1]]))
    sq = dot3(edges, edges)

    conn = _connectivity(mesh)
    half_cot = np.maximum(dots / (4.0 * areas), COT_HALF_WEIGHT_FLOOR)
    laplacian_data = _matvec(conn.assemble, half_cot.reshape(-1))

    cot8 = dots / (16.0 * areas)
    part = np.empty_like(cot8)
    part[0] = sq[0] * cot8[2] + sq[2] * cot8[1]
    part[1] = sq[0] * cot8[2] + sq[1] * cot8[0]
    part[2] = sq[2] * cot8[1] + sq[1] * cot8[0]
    obtuse = dots < 0.0
    any_obtuse = obtuse.any(axis=0)
    spread = np.broadcast_to(areas, part.shape)
    part[:, any_obtuse] = 0.25 * spread[:, any_obtuse]
    part[obtuse] = 0.5 * spread[obtuse]
    mass = _matvec(conn.corner_sum, part.reshape(-1))

    weighted = areas * face_normals
    acc = np.empty((mesh.vertex_count, 3))
    for a in range(3):
        acc[:, a] = _matvec(conn.face_sum, weighted[a])
    lengths = np.sqrt(dot3(acc.T, acc.T))
    normals = acc / lengths[:, None]

    n = mesh.vertex_count
    laplacian = CSR(laplacian_data, conn.indices, conn.indptr, (n, n))
    lap_pos = _matvec(laplacian, mesh.positions)
    H = dot3(lap_pos.T, normals.T) / mass
    angles = np.arctan2(2.0 * areas, dots)
    K = (2.0 * np.pi - _matvec(conn.corner_sum, angles.reshape(-1))) / mass
    return {
        "laplacian": (laplacian_data, conn.indices, conn.indptr),
        "mass": mass,
        "normals": normals,
        "volume_slope": lengths / -3.0,
        "H": H,
        "K": K,
        "tracefree_sq": np.maximum(0.5 * H ** 2 - 2.0 * K, 0.0),
        "lap_H": _matvec(laplacian, H) / mass,
        "face_areas": areas,
        "face_sq": sq,
        "corner_angles": angles,
        "total_area": float(areas.sum()),
        "h_min": float(np.sqrt(sq.min())),
    }


def reference_defects(mesh, cache, origin=None):
    """(scale defect, translation defect) by their (n, 3) formulas.

    The radial term is the row sum of ``normals * positions``; the
    translation vector is the column sum of a C-ordered (n, 3) array, which
    runs one vertex row after another.  The package's component-first forms
    claim the same bits.
    """
    from vpwf.functionals import scalar_willmore_gradient

    grad = scalar_willmore_gradient(cache)
    pos = mesh.positions if origin is None else mesh.positions - origin
    radial = np.sum(cache.normals * pos, axis=1)
    terms = np.ascontiguousarray(
        grad[:, None] * cache.normals * cache.mass[:, None])
    return (float(np.sum(grad * radial * cache.mass)),
            float(np.linalg.norm(terms.sum(axis=0))))


def reference_rates(cache):
    """(lam, xi, max|xi|, wbar) of ``cache``, one public call per field."""
    from vpwf.flow import velocity
    from vpwf.functionals import lagrange_multiplier, wbar

    lam = lagrange_multiplier(cache)
    xi = velocity(cache, lam)
    return lam, xi, float(np.abs(xi).max()), wbar(cache)
