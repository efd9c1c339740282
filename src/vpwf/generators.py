"""Closed-surface generators: icosphere, ellipsoid, torus, perturbed sphere.

All generators emit faces wound so the unit normal points toward the
bounded component, which makes the signed volume positive; a sign check on
the generated mesh enforces this regardless of the construction order.
"""

import numpy as np

from .errors import BadParamsError
from .mesh import TriMesh, face_frame

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=np.float64,
)

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _oriented_inward(positions, faces):
    """Flip windings if needed so the signed volume comes out positive."""
    mesh = TriMesh(positions, faces)
    if face_frame(mesh).volume < 0.0:
        mesh = TriMesh(positions, faces[:, [0, 2, 1]])
    return mesh


def _subdivide(positions, faces):
    """One 4-to-1 midpoint subdivision step, winding preserved."""
    pairs = np.concatenate(
        [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]
    )
    pairs_sorted = np.sort(pairs, axis=1)
    edges, inverse = np.unique(pairs_sorted, axis=0, return_inverse=True)
    mid = 0.5 * (positions[edges[:, 0]] + positions[edges[:, 1]])
    new_positions = np.vstack([positions, mid])

    nf = faces.shape[0]
    m01 = positions.shape[0] + inverse[0:nf]
    m12 = positions.shape[0] + inverse[nf:2 * nf]
    m20 = positions.shape[0] + inverse[2 * nf:3 * nf]
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.concatenate(
        [
            np.column_stack([a, m01, m20]),
            np.column_stack([b, m12, m01]),
            np.column_stack([c, m20, m12]),
            np.column_stack([m01, m12, m20]),
        ]
    )
    return new_positions, new_faces


def icosphere(level, radius=1.0):
    """Icosahedron subdivided ``level`` times, vertices projected to ``radius``.

    Vertex count is 10 * 4**level + 2.
    """
    if level < 0 or int(level) != level:
        raise BadParamsError("level must be a nonnegative integer")
    if radius <= 0:
        raise BadParamsError("radius must be positive")
    positions = _ICO_VERTS.copy()
    faces = _ICO_FACES.copy()
    positions /= np.linalg.norm(positions, axis=1)[:, None]
    for _ in range(int(level)):
        positions, faces = _subdivide(positions, faces)
        positions /= np.linalg.norm(positions, axis=1)[:, None]
    return _oriented_inward(radius * positions, faces)


def ellipsoid(a, b, c, level):
    """Icosphere mapped by diag(a, b, c)."""
    if min(a, b, c) <= 0:
        raise BadParamsError("ellipsoid semi-axes must be positive")
    sphere = icosphere(level, 1.0)
    positions = sphere.positions * np.array([a, b, c])
    return _oriented_inward(positions, sphere.faces)


def torus(big_radius, tube_radius, nu, nv):
    """Structured torus of revolution, quad grid split into triangles.

    ``big_radius`` is the distance from the axis to the tube center and
    ``tube_radius`` the tube radius; requires big_radius > tube_radius > 0
    (embedded torus).
    """
    if tube_radius <= 0 or big_radius <= tube_radius:
        raise BadParamsError("torus requires big_radius > tube_radius > 0")
    if nu < 3 or nv < 3:
        raise BadParamsError("torus grid needs nu, nv >= 3")
    u = 2.0 * np.pi * np.arange(nu) / nu
    v = 2.0 * np.pi * np.arange(nv) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = big_radius + tube_radius * np.cos(vv)
    positions = np.column_stack(
        [
            (ring * np.cos(uu)).reshape(-1),
            (ring * np.sin(uu)).reshape(-1),
            (tube_radius * np.sin(vv)).reshape(-1),
        ]
    )
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    i, j = i.reshape(-1), j.reshape(-1)
    v00 = i * nv + j
    v10 = ((i + 1) % nu) * nv + j
    v11 = ((i + 1) % nu) * nv + (j + 1) % nv
    v01 = i * nv + (j + 1) % nv
    faces = np.concatenate(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])]
    )
    return _oriented_inward(positions, faces)


def real_spherical_harmonic(l, m, directions):
    """Real orthonormal spherical harmonic evaluated at unit directions."""
    x, y, z = directions[:, 0], directions[:, 1], directions[:, 2]
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    try:
        from scipy.special import sph_harm_y

        ylm = sph_harm_y(l, abs(m), theta, phi)
    except ImportError:  # scipy < 1.15
        from scipy.special import sph_harm

        ylm = sph_harm(abs(m), l, phi, theta)
    if m > 0:
        return np.sqrt(2.0) * (-1.0) ** m * ylm.real
    if m < 0:
        return np.sqrt(2.0) * (-1.0) ** m * ylm.imag
    return ylm.real


def perturbed_sphere(level, radius, l, m, amplitude):
    """Icosphere with a radial real-spherical-harmonic offset.

    Deterministic in its parameters: identical inputs produce bit-identical
    meshes.
    """
    if radius <= 0:
        raise BadParamsError("radius must be positive")
    if l < 0 or abs(m) > l:
        raise BadParamsError("harmonic indices need l >= 0 and |m| <= l")
    sphere = icosphere(level, 1.0)
    offset = amplitude * real_spherical_harmonic(l, m, sphere.positions)
    radii = radius + offset
    if np.any(radii <= 0):
        raise BadParamsError("perturbation amplitude collapses the surface")
    return _oriented_inward(radii[:, None] * sphere.positions, sphere.faces)

