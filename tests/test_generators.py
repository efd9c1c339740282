import numpy as np
import pytest

from vpwf.ddg import build_cache
from vpwf.errors import BadParamsError
from vpwf.functionals import signed_volume, willmore
from vpwf.generators import (
    ellipsoid,
    icosphere,
    perturbed_sphere,
    real_spherical_harmonic,
    torus,
)
from vpwf.mesh import validate

from oracles import ellipsoid_quadrature, torus_area, torus_willmore


def test_icosahedron_counts():
    mesh = icosphere(0, 1.0)
    assert mesh.vertex_count == 12
    assert mesh.face_count == 20
    assert validate(mesh).euler_characteristic == 2


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_subdivision_counts(level):
    mesh = icosphere(level)
    assert mesh.vertex_count == 10 * 4 ** level + 2
    assert mesh.face_count == 20 * 4 ** level


def test_icosphere_vertices_on_sphere():
    mesh = icosphere(3, 2.5)
    radii = np.linalg.norm(mesh.positions, axis=1)
    assert np.allclose(radii, 2.5, rtol=1e-14, atol=0)


@pytest.mark.parametrize("make", [
    lambda: icosphere(2),
    lambda: ellipsoid(1.2, 1.0, 0.85, 2),
    lambda: torus(2.0, 1.0, 24, 16),
    lambda: perturbed_sphere(2, 1.0, 3, 2, 0.05),
])
def test_generators_emit_inward_orientation(make):
    mesh = make()
    validate(mesh)
    assert signed_volume(mesh) > 0


def test_ellipsoid_energy_window(ellipsoid4):
    mesh, cache = ellipsoid4
    w = willmore(mesh, cache)
    assert 4 * np.pi < w < 8 * np.pi
    oracle = ellipsoid_quadrature(1.2, 1.0, 0.85)
    assert w == pytest.approx(oracle["willmore"], rel=5e-3)


def test_torus_against_quadrature(torus_mesh):
    mesh, cache = torus_mesh
    assert torus_willmore(2.0, 1.0) == pytest.approx(
        4 * np.pi ** 2 / np.sqrt(3.0), rel=1e-12
    )
    assert willmore(mesh, cache) == pytest.approx(
        4 * np.pi ** 2 / np.sqrt(3.0), rel=0.02
    )
    assert cache.total_area == pytest.approx(torus_area(2.0, 1.0), rel=0.01)


def test_perturbed_sphere_deterministic():
    m1 = perturbed_sphere(3, 1.0, 3, 2, 0.05)
    m2 = perturbed_sphere(3, 1.0, 3, 2, 0.05)
    assert np.array_equal(m1.positions, m2.positions)
    assert np.array_equal(m1.faces, m2.faces)


def test_perturbed_sphere_below_li_yau():
    mesh = perturbed_sphere(3, 1.0, 3, 2, 0.08)
    assert willmore(mesh, build_cache(mesh)) < 8 * np.pi


def test_real_harmonics_orthonormal():
    # quadrature over a fine icosphere approximates the L2 inner products
    mesh = icosphere(4)
    cache = build_cache(mesh)
    y32 = real_spherical_harmonic(3, 2, mesh.positions)
    y20 = real_spherical_harmonic(2, 0, mesh.positions)
    assert float(np.sum(y32 ** 2 * cache.mass)) == pytest.approx(1.0, rel=0.01)
    assert abs(float(np.sum(y32 * y20 * cache.mass))) < 0.01


@pytest.mark.parametrize("call", [
    lambda: icosphere(-1),
    lambda: icosphere(2, 0.0),
    lambda: ellipsoid(1.0, -1.0, 1.0, 2),
    lambda: torus(1.0, 1.0, 16, 16),
    lambda: torus(2.0, 1.0, 2, 16),
    lambda: perturbed_sphere(2, 1.0, 3, 5, 0.05),
    lambda: perturbed_sphere(2, 1.0, 2, 0, 5.0),
])
def test_bad_params(call):
    with pytest.raises(BadParamsError):
        call()
