"""Mesh builders: point placement, normals, weights, volumes."""

from dataclasses import replace

import numpy as np
import pytest

from emscat.cli import cmd_mesh_export
from emscat.config import ConfigError, RunConfig
from emscat.diagnostics import check_tangentiality
from emscat.geometry import (
    CollocationMesh,
    ParametricSurface,
    mesh_cube,
    mesh_ellipsoid,
    mesh_parametric,
    mesh_sphere,
    sphere_band_counts,
    sphere_point_count,
    sphere_resolution_for,
)
from emscat.one_body import solve_current
from emscat.waves import default_wave


def ellipsoid_area_oracle(a, b, c, n=1500):
    """High-resolution Riemann sum of the parametric surface element."""
    theta = (np.arange(2 * n) + 0.5) * (2 * np.pi / (2 * n))
    phi = (np.arange(n) + 0.5) * (np.pi / n)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ct, st, cp, sp = np.cos(tt), np.sin(tt), np.cos(pp), np.sin(pp)
    f_t = np.stack([-a * st * sp, b * ct * sp, np.zeros_like(tt)], axis=-1)
    f_p = np.stack([a * ct * cp, b * st * cp, -c * sp], axis=-1)
    element = np.linalg.norm(np.cross(f_t, f_p), axis=-1)
    return element.sum() * (2 * np.pi / (2 * n)) * (np.pi / n)


# --- reference resolutions ---------------------------------------------------

def test_reference_point_counts():
    assert sphere_point_count(12) == 766
    assert sphere_point_count(14) == 1052
    assert sphere_point_count(16) == 1386
    assert sphere_point_count(18) == 1762


def test_resolution_search_inverts_counts():
    for target, m_phi in ((766, 12), (1052, 14), (1386, 16), (1762, 18)):
        assert sphere_resolution_for(target) == m_phi


def test_m_phi_lower_bound():
    with pytest.raises(ValueError):
        mesh_sphere(1e-9, 1)


# --- sphere ------------------------------------------------------------------

def test_sphere_points_on_surface(sphere766):
    radii = np.linalg.norm(sphere766.points, axis=1)
    np.testing.assert_allclose(radii, 1e-9, rtol=1e-12)


def test_sphere_normals_radial_and_unit(sphere766):
    np.testing.assert_allclose(
        sphere766.normals, sphere766.points / 1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        np.linalg.norm(sphere766.normals, axis=1), 1.0, atol=1e-12
    )


def test_sphere_area_and_volume(sphere766):
    area = 4.0 * np.pi * 1e-18
    assert abs(sphere766.area - area) / area < 0.02
    assert sphere766.volume == pytest.approx(4.0 / 3.0 * np.pi * 1e-27, rel=1e-12)
    replace(sphere766)  # construction checks every invariant


def test_sphere_weights_positive(sphere766):
    assert np.all(sphere766.weights > 0)


def test_outward_orientation(sphere766, cube600):
    for mesh in (sphere766, cube600):
        dots = np.einsum("ij,ij->i", mesh.points - mesh.center, mesh.normals)
        assert np.all(dots > 0)


def test_sphere_area_refinement_monotone():
    area = 4.0 * np.pi
    errs = [
        abs(mesh_sphere(1.0, m).area - area)
        for m in (6, 12, 24)
    ]
    assert errs[0] >= errs[1] >= errs[2]


def test_sphere_off_center():
    # tolerance limited by float cancellation: |center| ~ 1 vs radius 2e-9
    mesh = mesh_sphere(2e-9, 8, center=(1.0, 2.0, 3.0))
    radii = np.linalg.norm(mesh.points - np.array([1.0, 2.0, 3.0]), axis=1)
    np.testing.assert_allclose(radii, 2e-9, rtol=1e-6)


# --- per-point loop oracles ----------------------------------------------------
# The builders as they were written before they became array code, one Python
# iteration per point.  The sphere and cube builders must reproduce them bit
# for bit; the ellipsoid's points too, its normals and weights to rounding.

def _loop_band_nodes(m_phi):
    phi, m_theta = sphere_band_counts(m_phi)
    d_phi = np.pi / (m_phi + 1)
    for phi_j, mt in zip(phi, m_theta):
        d_theta = 2.0 * np.pi / mt
        for i in range(1, mt + 1):
            yield i * d_theta, phi_j, d_theta, d_phi


def _loop_sphere(radius, m_phi, center=(0.0, 0.0, 0.0)):
    center = np.asarray(center, dtype=float)
    pts, nrm, wts = [], [], []
    for theta, phi, d_theta, d_phi in _loop_band_nodes(m_phi):
        n = np.array(
            [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)]
        )
        pts.append(center + radius * n)
        nrm.append(n)
        wts.append(radius * radius * np.sin(phi) * d_theta * d_phi)
    residual = 4.0 * np.pi * radius * radius - float(np.sum(wts))
    if residual <= 0:
        residual = 2.0 * min(wts)
    for pole in (1.0, -1.0):
        pts.append(center + np.array([0.0, 0.0, pole * radius]))
        nrm.append(np.array([0.0, 0.0, pole]))
        wts.append(residual / 2.0)
    return pts, nrm, wts, 4.0 / 3.0 * np.pi * radius**3, center


def _loop_ellipsoid(a, b, c, m_phi, center=(0.0, 0.0, 0.0)):
    center = np.asarray(center, dtype=float)
    pts, nrm, wts = [], [], []
    for theta, phi, d_theta, d_phi in _loop_band_nodes(m_phi):
        ct, st = np.cos(theta), np.sin(theta)
        cp, sp = np.cos(phi), np.sin(phi)
        pts.append(center + np.array([a * ct * sp, b * st * sp, c * cp]))
        n = np.array([ct * sp / a, st * sp / b, cp / c])
        nrm.append(n / np.linalg.norm(n))
        f_theta = np.array([-a * st * sp, b * ct * sp, 0.0])
        f_phi = np.array([a * ct * cp, b * st * cp, -c * sp])
        wts.append(np.linalg.norm(np.cross(f_theta, f_phi)) * d_theta * d_phi)
    d_phi = np.pi / (m_phi + 1)
    cap_phi = d_phi / 4.0
    cap_element = np.linalg.norm(
        np.cross(
            np.array([0.0, b * np.sin(cap_phi), 0.0]),
            np.array([a * np.cos(cap_phi), 0.0, -c * np.sin(cap_phi)]),
        )
    )
    for pole in (1.0, -1.0):
        pts.append(center + np.array([0.0, 0.0, pole * c]))
        nrm.append(np.array([0.0, 0.0, pole]))
        wts.append(cap_element * 2.0 * np.pi * (d_phi / 2.0))
    return pts, nrm, wts, 4.0 / 3.0 * np.pi * a * b * c, center


def _loop_cube(a_half, n, center=(0.0, 0.0, 0.0)):
    center = np.asarray(center, dtype=float)
    h = 2.0 * a_half / n
    grid = -a_half + h * (np.arange(n) + 0.5)
    pts, nrm = [], []
    for axis in range(3):
        for sign in (1.0, -1.0):
            normal = np.zeros(3)
            normal[axis] = sign
            u_axis, v_axis = [ax for ax in range(3) if ax != axis]
            for u in grid:
                for v in grid:
                    p = np.zeros(3)
                    p[axis] = sign * a_half
                    p[u_axis] = u
                    p[v_axis] = v
                    pts.append(center + p)
                    nrm.append(normal)
    return pts, nrm, np.full(6 * n * n, h * h), (2.0 * a_half) ** 3, center


def assert_mesh_equal(mesh, oracle):
    pts, nrm, wts, volume, center = oracle
    for name, want in zip(("points", "normals", "weights", "center"),
                          (pts, nrm, wts, center)):
        assert np.array_equal(getattr(mesh, name), np.array(want)), name
    assert mesh.volume == volume


OFF_CENTER = (1.0e-8, -2.5e-9, 3.0e-9)


@pytest.mark.parametrize("m_phi, center", [
    *((m, (0.0, 0.0, 0.0)) for m in (2, 3, 7, 12, 14, 16, 18, 24)),
    (12, OFF_CENTER),
])
def test_sphere_bit_identical_to_loop_oracle(m_phi, center):
    assert_mesh_equal(
        mesh_sphere(1e-9, m_phi, center=center), _loop_sphere(1e-9, m_phi, center)
    )


@pytest.mark.parametrize("n, center", [
    *((n, (0.0, 0.0, 0.0)) for n in (2, 3, 10)),
    (10, OFF_CENTER),
])
def test_cube_bit_identical_to_loop_oracle(n, center):
    assert_mesh_equal(mesh_cube(1e-7, n, center=center), _loop_cube(1e-7, n, center))


@pytest.mark.parametrize("m_phi", [14, 4])
def test_ellipsoid_matches_loop_oracle(m_phi):
    mesh = mesh_ellipsoid(1e-8, 1e-9, 1e-9, m_phi)
    pts, nrm, wts, volume, center = _loop_ellipsoid(1e-8, 1e-9, 1e-9, m_phi)
    assert np.array_equal(mesh.points, np.array(pts))
    np.testing.assert_allclose(mesh.normals, np.array(nrm), rtol=1e-15, atol=0)
    np.testing.assert_allclose(mesh.weights, np.array(wts), rtol=1e-15, atol=0)
    assert np.array_equal(mesh.center, center)
    assert mesh.volume == volume


# --- ellipsoid ---------------------------------------------------------------

def test_ellipsoid_degenerates_to_sphere():
    sph = mesh_sphere(1e-9, 8)
    ell = mesh_ellipsoid(1e-9, 1e-9, 1e-9, 8)
    np.testing.assert_allclose(ell.points, sph.points, atol=1e-21)
    np.testing.assert_allclose(ell.normals, sph.normals, atol=1e-12)


def test_ellipsoid_reference_count(ellipsoid1052):
    assert ellipsoid1052.n_points == 1052


def test_ellipsoid_normals_orthogonal_to_tangents(ellipsoid1052):
    # finite-difference tangent oracle at a sample of band points; the node
    # parameters are regenerated exactly as the builder lays them out
    from emscat.geometry import _band_grid

    a, b, c = 1e-8, 1e-9, 1e-9
    theta_all, phi_all, _, _ = _band_grid(14)
    params = list(zip(theta_all, phi_all))
    rng = np.random.default_rng(5)
    idx = rng.choice(len(params), size=40, replace=False)
    f = lambda t, p: np.array(
        [a * np.cos(t) * np.sin(p), b * np.sin(t) * np.sin(p), c * np.cos(p)]
    )
    h = 1e-6
    for i in idx:
        theta, phi = params[i]
        np.testing.assert_allclose(ellipsoid1052.points[i], f(theta, phi), atol=1e-24)
        t_theta = (f(theta + h, phi) - f(theta - h, phi)) / (2 * h)
        t_phi = (f(theta, phi + h) - f(theta, phi - h)) / (2 * h)
        n = ellipsoid1052.normals[i]
        # defect normalized by the body scale: tangent lengths vary over
        # orders of magnitude on a 10:1 body, so per-tangent normalization
        # is ill-conditioned at the tips
        assert abs(n @ t_theta) <= 1e-10 * a
        assert abs(n @ t_phi) <= 1e-10 * a


def test_ellipsoid_area_against_quadrature_oracle():
    a, b, c = 1e-8, 1e-9, 1e-9
    oracle = ellipsoid_area_oracle(a, b, c)
    mesh = mesh_ellipsoid(a, b, c, 14)
    assert abs(mesh.area - oracle) / oracle < 0.02


def test_ellipsoid_area_refinement_monotone():
    a, b, c = 1e-8, 1e-9, 1e-9
    oracle = ellipsoid_area_oracle(a, b, c)
    errs = [abs(mesh_ellipsoid(a, b, c, m).area - oracle) for m in (7, 14, 28)]
    assert errs[0] > errs[1] > errs[2]


def test_ellipsoid_volume():
    mesh = mesh_ellipsoid(1e-8, 1e-9, 1e-9, 8)
    assert mesh.volume == pytest.approx(4.0 / 3.0 * np.pi * 1e-26, rel=1e-12)


def test_ellipsoid_rejects_bad_axes():
    with pytest.raises(ValueError):
        mesh_ellipsoid(1e-8, 0.0, 1e-9, 8)


# --- cube --------------------------------------------------------------------

def test_cube_point_count(cube600):
    assert cube600.n_points == 600


def test_cube_weights_tile_exactly(cube600):
    assert cube600.area == pytest.approx(6.0 * (2e-7) ** 2, rel=1e-14)
    assert np.all(cube600.weights == cube600.weights[0])


def test_cube_points_on_faces(cube600):
    maxc = np.max(np.abs(cube600.points), axis=1)
    np.testing.assert_allclose(maxc, 1e-7, rtol=1e-15)


def test_cube_normals_axis_aligned(cube600):
    assert set(np.abs(cube600.normals).sum(axis=1)) == {1.0}


def test_cube_volume(cube600):
    assert cube600.volume == pytest.approx((2e-7) ** 3, rel=1e-14)


def test_cube_rejects_small_n():
    with pytest.raises(ValueError):
        mesh_cube(1e-7, 1)


# --- parametric --------------------------------------------------------------

def sphere_surface(radius):
    return ParametricSurface(
        func=lambda u, v: (
            radius * np.cos(u) * np.sin(v),
            radius * np.sin(u) * np.sin(v),
            radius * np.cos(v),
        ),
        u_range=(0.0, 2.0 * np.pi),
        v_range=(0.0, np.pi),
        n_u=40,
        n_v=20,
    )


def test_parametric_sphere_geometry():
    mesh = mesh_parametric(sphere_surface(1e-9))
    radii = np.linalg.norm(mesh.points - mesh.center, axis=1)
    np.testing.assert_allclose(radii, 1e-9, rtol=1e-10)
    np.testing.assert_allclose(
        mesh.normals, (mesh.points - mesh.center) / radii[:, None], atol=1e-6
    )
    replace(mesh)  # construction checks every invariant


def test_parametric_sphere_volume_and_area():
    mesh = mesh_parametric(sphere_surface(2.0))
    assert abs(mesh.volume - 4.0 / 3.0 * np.pi * 8.0) / (4.0 / 3.0 * np.pi * 8.0) < 0.02
    assert abs(mesh.area - 16.0 * np.pi) / (16.0 * np.pi) < 0.02


def test_parametric_ellipsoid_volume():
    surf = ParametricSurface(
        func=lambda u, v: (
            3.0 * np.cos(u) * np.sin(v),
            2.0 * np.sin(u) * np.sin(v),
            1.0 * np.cos(v),
        ),
        u_range=(0.0, 2.0 * np.pi),
        v_range=(0.0, np.pi),
        n_u=60,
        n_v=30,
    )
    mesh = mesh_parametric(surf)
    expected = 4.0 / 3.0 * np.pi * 6.0
    assert abs(mesh.volume - expected) / expected < 0.02


def star(u, v, a=1e-9):
    """The README quick start's body, r = a (1 + 0.3 sin^2 v cos 4u)."""
    r = a * (1.0 + 0.3 * np.sin(v) ** 2 * np.cos(4.0 * u))
    return (r * np.cos(u) * np.sin(v), r * np.sin(u) * np.sin(v), r * np.cos(v))


STAR = ParametricSurface(star, u_range=(0.0, 2.0 * np.pi), v_range=(0.0, np.pi),
                         n_u=40, n_v=20)


def _loop_parametric(surface):
    """mesh_parametric as a per-point loop: five scalar calls of func per cell."""
    u0, u1 = surface.u_range
    v0, v1 = surface.v_range
    du = (u1 - u0) / surface.n_u
    dv = (v1 - v0) / surface.n_v
    hu, hv = du * 1e-4, dv * 1e-4
    f = lambda u, v: np.asarray(surface.func(u, v), dtype=float)
    pts, nrm, wts = [], [], []
    for i in range(surface.n_u):
        u = u0 + (i + 0.5) * du
        for j in range(surface.n_v):
            v = v0 + (j + 0.5) * dv
            p = f(u, v)
            t_u = (f(u + hu, v) - f(u - hu, v)) / (2 * hu)
            t_v = (f(u, v + hv) - f(u, v - hv)) / (2 * hv)
            cross = np.cross(t_u, t_v)
            jac = np.linalg.norm(cross)
            if jac <= 1e-30 * max(1.0, np.linalg.norm(t_u) * np.linalg.norm(t_v)):
                raise ValueError(f"degenerate parametrization at (u, v)=({u}, {v})")
            pts.append(p)
            nrm.append(cross / jac)
            wts.append(jac * du * dv)
    points, normals = np.array(pts), np.array(nrm)
    centroid = points.mean(axis=0)
    normals[np.einsum("ij,ij->i", points - centroid, normals) < 0] *= -1.0
    return points, normals, np.array(wts), centroid


def test_parametric_star_body_matches_loop_oracle():
    # the row-wise norm of the array code rounds unlike the 1-D one, so normals
    # and weights may differ in the last bits
    mesh = mesh_parametric(STAR)
    points, normals, weights, centroid = _loop_parametric(STAR)
    assert np.array_equal(mesh.points, points)
    assert np.array_equal(mesh.center, centroid)
    assert np.abs(mesh.normals - normals).max() <= 4e-16
    assert np.abs(mesh.weights - weights).max() <= 4e-16 * weights.max()


def test_parametric_calls_func_five_times_on_all_cells():
    shapes = []

    def counted(u, v):
        shapes.append(np.shape(u))
        return star(u, v)

    mesh_parametric(replace(STAR, func=counted))
    assert shapes == [(40, 20)] * 5


def test_parametric_star_body_solves_with_a_tangential_density():
    # finite-difference normals are not mirror-exact, so no group is asserted
    body = mesh_parametric(STAR)
    replace(body)  # construction checks every invariant
    current = solve_current(body, default_wave())
    assert body.n_points == 800 and current.report.converged
    assert check_tangentiality(current, body) <= 1e-12


def test_parametric_degenerate_raises():
    flat = ParametricSurface(
        func=lambda u, v: (u, u, u), u_range=(0, 1), v_range=(0, 1), n_u=4, n_v=4
    )
    with pytest.raises(ValueError, match="degenerate"):
        mesh_parametric(flat)


def test_parametric_degenerate_message_names_the_first_such_cell():
    # non-degenerate for u < 0.5; the first degenerate cell is (0.625, 0.125)
    half = ParametricSurface(
        func=lambda u, v: (u, v * (u < 0.5), 0.0 * u), u_range=(0, 1), v_range=(0, 1),
        n_u=4, n_v=4,
    )
    with pytest.raises(ValueError) as oracle:
        _loop_parametric(half)
    with pytest.raises(ValueError) as err:
        mesh_parametric(half)
    assert str(err.value) == str(oracle.value) == (
        "degenerate parametrization at (u, v)=(0.625, 0.125)")


# --- misc --------------------------------------------------------------------

def test_mesh_csv_roundtrip(tmp_path, cube600):
    path = tmp_path / "mesh.csv"
    config = RunConfig(shape="cube", radius=1e-7, n_per_face=10)
    assert cmd_mesh_export(config, str(path)) == 0
    # the first line is the "# config:" provenance line, the second the header
    data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
    assert data.shape[0] == 600
    np.testing.assert_allclose(
        np.stack([data["x"], data["y"], data["z"]], axis=1), cube600.points, rtol=1e-15
    )
    np.testing.assert_allclose(data["w"], cube600.weights, rtol=1e-15)


def test_run_config_mesh_dispatch():
    assert RunConfig(m_phi=8).mesh().n_points == sphere_point_count(8)
    assert RunConfig(shape="cube", radius=1e-7, n_per_face=3).mesh().n_points == 54
    ellipsoid = RunConfig(shape="ellipsoid", semi_axes=(1e-8, 1e-9, 1e-9), m_phi=8)
    assert ellipsoid.mesh().n_points == sphere_point_count(8)
    with pytest.raises(ConfigError, match="semi_axes"):
        RunConfig(shape="ellipsoid").mesh()
    with pytest.raises(ConfigError, match="torus"):
        RunConfig(shape="torus").mesh()


def test_mesh_validate_catches_bad_normals(cube600):
    with pytest.raises(ValueError, match="mesh normals must be unit vectors"):
        CollocationMesh(
            points=cube600.points,
            normals=cube600.normals * 2.0,
            weights=cube600.weights,
            volume=cube600.volume,
            center=cube600.center,
        )


#: A field of the 600-point cube made to break one invariant, and the message
#: (doubled normals: test_mesh_validate_catches_bad_normals).
BROKEN_MESH_FIELDS = {
    "zero-weight": (lambda m: {"weights": np.where(np.arange(600) == 7, 0.0, m.weights)},
                    "mesh weights must be positive"),
    "short-normals": (lambda m: {"normals": m.normals[:-1]},
                      r"mesh normals must have shape \(600, 3\), got \(599, 3\)"),
    "short-weights": (lambda m: {"weights": m.weights[1:]},
                      r"mesh weights must have shape \(600,\), got \(599,\)"),
    "flat-points": (lambda m: {"points": m.points.ravel()},
                    r"mesh points must have shape \(1800, 3\), got \(1800,\)"),
    "center-shape": (lambda m: {"center": np.zeros(2)},
                     r"mesh center must have shape \(3,\), got \(2,\)"),
    "zero-volume": (lambda m: {"volume": 0.0}, "mesh volume must be positive, got 0"),
    "no-points": (lambda m: {"points": np.zeros((0, 3)), "normals": np.zeros((0, 3)),
                             "weights": np.zeros(0)},
                  "mesh points must hold at least one point, got none"),
}


@pytest.mark.parametrize("case", BROKEN_MESH_FIELDS)
def test_mesh_rejects_a_broken_invariant_naming_the_field(cube600, case):
    change, message = BROKEN_MESH_FIELDS[case]
    with pytest.raises(ValueError, match=message):
        replace(cube600, **change(cube600))


@pytest.mark.parametrize("name", ["points", "normals", "weights", "volume", "center"])
def test_mesh_rejects_non_finite_entries(cube600, name):
    fields = {key: np.array(getattr(cube600, key))
              for key in ("points", "normals", "weights", "volume", "center")}
    fields[name].flat[-1] = np.nan
    with pytest.raises(ValueError, match=f"mesh {name} must be finite"):
        CollocationMesh(**fields)
