"""Boundary-integral solver for one perfectly conducting body.

The scattered field is represented as the curl of a single-layer potential
with tangential surface density J; enforcing the perfect-conductor boundary
condition at the collocation points gives the 3P x 3P linear system

    J(i) + s sum_{j != i} [grad g(i,j) (N(i).J(j)) - J(j) (grad g(i,j).N(i))] w_j
        = -s N(i) x E0(i)

whose off-diagonal block (i, j) is s [grad_p g N_q(i) - delta_pq grad g.N(i)] w_j
and whose diagonal blocks are the identity (the weakly singular self-cell is
dropped).  The scale s selects between two self-consistent conventions:

* s = 1 (default): the moment Q = sum J(i) w_i of the solved density obeys
  (I + Gamma) Q = -|D| curl E0 with the source-frame coupling matrix Gamma
  (diag(-1/3, -1/3, 1/6) for a sphere), i.e. the convention against which
  the closed-form asymptotic moment is exact.  All moment-level reference
  values assume it.
* s = 2: the classical half-jump equation (I + 2A) J = -2 N x E0.  Its
  density carries the physically correct electric-dipole response, and the
  reference near-field tables (exact-versus-asymptotic E errors) assume it.

The two conventions cannot be reconciled: for tangential J on a sphere the
coupling integral contracts with the tangential eigenvalue -1/3, so the
s = 2 moment converges to (3/2) |D| |curl E0| while the asymptotic formula
(and the s = 1 moment) gives (6/7) |D| |curl E0|.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import linalg
from .geometry import CollocationMesh
from .kernels import (PackedCoupling, _cross, _cross_columns, _cross_sum, _moment_columns,
                      block_row_entries, kernel_gradient_parts, moment_fields, packed_pairs,
                      packed_product, pair_matrix, plane_wave_images, radiative_field,
                      static_parts)
from .linalg import ConvergenceError, SolveReport, check_array, check_dense_bytes, check_solver
from .waves import IncidentWave

__all__ = [
    "GammaMatrix",
    "SurfaceCurrent",
    "CharacterBasis",
    "OneBodyOperator",
    "mirror_group",
    "assemble_one_body",
    "solve_current",
    "solve_currents",
    "moment_q_exact",
    "moment_q_asymptotic",
    "gamma_numeric",
    "gamma_sphere_analytic",
    "field_e_exact",
    "field_e_asymptotic",
    "field_h",
]

#: The small-body expansion degrades once k * radius approaches 1.
KA_WARN_THRESHOLD = 0.1


@dataclass(frozen=True)
class GammaMatrix:
    """Shape coupling matrix gamma, finite and 3 x 3, and tau = (I + gamma)^-1."""

    gamma: np.ndarray
    tau: np.ndarray

    @classmethod
    def from_gamma(cls, gamma: np.ndarray) -> "GammaMatrix":
        matrix = check_array("gamma", gamma, (3, 3), "a finite 3 x 3 matrix",
                             kinds="biufc").astype(complex)
        shifted = np.eye(3) + matrix
        if abs(np.linalg.det(shifted)) < 1e-12:
            raise np.linalg.LinAlgError("I + gamma is singular")
        return cls(gamma=matrix, tau=np.linalg.inv(shifted))


@dataclass(frozen=True)
class SurfaceCurrent:
    """Solved surface density, one complex 3-vector per collocation point.

    operator is the record of the operator that produced the current
    (OneBodyOperator.record) and characters the characters of its mirror
    group that the solve kept, those the right-hand side does not leave
    empty (solve_currents); both None when the current was not built by a
    solve.
    """

    values: np.ndarray
    report: SolveReport
    operator: dict | None = None
    characters: tuple | None = None


#: A mirror maps a mesh onto itself when every image lands on a mesh point,
#: every normal on the mirrored normal and every weight on an equal weight,
#: each within this many ulps (of the body size for the points).  The bundled
#: meshes match within 8, 19 and 17 ulps up to P = 20258.
MIRROR_ULPS = 128

#: Quantum, relative to the body size, on which points are sorted to pair
#: them with their mirror images: far above the rounding, far below the
#: point spacing.  A pair split by a rounding boundary only drops the mirror.
_MIRROR_QUANTUM = 2.0**-24


def mirror_group(mesh: CollocationMesh) -> tuple[tuple[int, ...], np.ndarray]:
    """The mirrors about mesh.center that map the mesh onto itself.

    Returns (axes, images): axes are the mirrored coordinate axes in
    increasing order, and element g of their group, a bit mask over axes,
    moves point i to point images[g, i], an (2^len(axes), P) array.  Points
    are paired with their images by sorting, in O(P log P); a mesh with two
    points in one sorting cell, or no mirror, gives the trivial group.
    """
    x = mesh.points - mesh.center
    p = len(x)
    images = np.arange(p)[None]
    size = float(np.abs(x).max())
    if size == 0.0:
        return (), images
    keys = np.rint(x / (_MIRROR_QUANTUM * size)).astype(np.int64)
    order = np.lexsort(keys.T)
    if np.any(np.all(keys[order[1:]] == keys[order[:-1]], axis=1)):
        return (), images
    tol = MIRROR_ULPS * np.finfo(float).eps
    axes = []
    for axis in range(3):
        flip = np.ones(3, dtype=np.int64)
        flip[axis] = -1
        perm = np.empty(p, dtype=np.intp)
        perm[np.lexsort((keys * flip).T)] = order
        if (np.array_equal(keys[perm], keys * flip)
                and np.abs(x[perm] - x * flip).max() <= tol * size
                and np.abs(mesh.normals[perm] - mesh.normals * flip).max() <= tol
                and np.all(np.abs(mesh.weights[perm] - mesh.weights) <= tol * mesh.weights)):
            axes.append(axis)
            images = np.concatenate([images, perm[images]])
    return tuple(axes), images


@dataclass
class _Orbits:
    """A mesh's points as orbits of its mirror group G (mirror_group).

    Element g of G, a bit mask over axes, is the diagonal reflection R_g with
    signs[g] on its diagonal and moves representative reps[n] to mesh point
    maps[g, n].  Point i is g_i r_i, row gather[i] of a (|G| R) stack of
    per-element results, one (R, ...) block per g.  stabiliser[n] counts the
    elements that fix reps[n], and characters[psi, g] = psi(g) is the +-1
    character table.  static_sums are gamma_numeric's (R, 12) pair sums
    (_StaticSums), once a pass over the mesh has made them.
    """

    axes: tuple[int, ...]
    reps: np.ndarray  # (R,)
    maps: np.ndarray  # (|G|, R)
    gather: np.ndarray  # (P,)
    signs: np.ndarray  # (|G|, 3)
    stabiliser: np.ndarray  # (R,)
    characters: np.ndarray  # (|G|, |G|)
    static_sums: np.ndarray | None = None  # (R, 12)

    @property
    def mirrors(self) -> tuple:
        """(signs, ids, characters): one pass per element, as kernels.packed_pairs takes them."""
        return self.signs, [(self.reps, images) for images in self.maps], self.characters

    def column_weights(self, mesh: CollocationMesh) -> np.ndarray:
        """w_s / |Stab s| at the representatives: an orbit's weight over its points."""
        return mesh.weights[self.reps] / self.stabiliser


#: The _Orbits of each mesh object, made once and dropped with the mesh.
#: A mesh's arrays are read-only, so they cannot go stale.
_MESH_ORBITS = weakref.WeakKeyDictionary()


def _orbits(mesh: CollocationMesh) -> _Orbits:
    """The orbit tables of mesh under its mirror group; the lowest index represents."""
    orbits = _MESH_ORBITS.get(mesh)
    if orbits is not None:
        return orbits
    axes, images = mirror_group(mesh)
    p = mesh.n_points
    rep_of = images.min(axis=0)
    reps = np.flatnonzero(rep_of == np.arange(p))
    maps = images[:, reps]
    g_of = np.argmax(images[:, rep_of] == np.arange(p), axis=0)
    signs = np.ones((1, 3))
    characters = np.ones((1, 1))
    for axis in axes:
        flip = np.ones(3)
        flip[axis] = -1.0
        signs = np.concatenate([signs, signs * flip])
        characters = np.kron([[1.0, 1.0], [1.0, -1.0]], characters)
    orbits = _MESH_ORBITS[mesh] = _Orbits(
        axes=axes, reps=reps, maps=maps, gather=g_of * len(reps) + np.searchsorted(reps, rep_of),
        signs=signs, stabiliser=np.sum(maps == reps, axis=0), characters=characters)
    return orbits


class _StaticSums:
    """gamma_numeric's pair sums, gathered block row by block row from a mirrored pass.

    product[r] = sum_s c_rs [N_s, x_s (x) N_s] v_s over every image g s of the
    representatives, c_rs = -1 / (4 pi r_rs^3) and v_s = w_s / |Stab s|: the
    image g s has R_g x_s and R_g N_s, so its columns are the representatives'
    times the signs R_g puts on them.  Called as kernels.packed_pairs' visit
    on block row [a, b) of K_g, the static block c0, it applies the row's two
    GEMMs, as packed_product does, and stores nothing.
    """

    def __init__(self, mesh: CollocationMesh, orbits: _Orbits):
        x = mesh.points[orbits.reps] - mesh.center
        self.columns = _moment_columns(x, mesh.normals[orbits.reps])
        self.columns *= orbits.column_weights(mesh)[:, None]
        self.signs = [_moment_columns(sign[None], sign[None]) for sign in orbits.signs]
        self.product = np.zeros(self.columns.shape)

    def __call__(self, g: int, a: int, b: int, c0: np.ndarray) -> tuple:
        z = self.columns[a:] * self.signs[g]
        self.product[a:b] += c0 @ z
        self.product[b:] += c0[:, b - a:].T @ z[:b - a]
        return ()


#: A character whose right-hand side is at most this many ulps of |b| holds
#: only rounding: the incidence leaves it empty by symmetry, and the solve
#: skips it.  The default wave's empty characters hold at most 1.5e-16 |b|
#: on the bundled meshes; a character holding 1e-13 |b| is solved.
EMPTY_CHARACTER_ULPS = 64


class CharacterBasis(NamedTuple):
    """Unknowns of a one-body solve: the components of J on some characters.

    A vector of the basis is the flattened (R, n, 3) array
    c[r, k] = sqrt(|G| / |Stab r|) J_psi(r) of the n characters
    psi = characters[k] of the mirror group, J_psi the part of J with
    J_psi(g i) = psi(g) R_g J_psi(i) (OneBodyOperator.to_characters).  The
    factor makes the map from the points an isometry.  A representative r
    fixed by g has J_psi(r) = psi(g) R_g J_psi(r), so where psi(g) R_g flips
    component q that component is zero; scale[r, k, q] is the factor, and 0
    on such a forced zero.  mirrored[g, k, q] = psi(g) (R_g)_qq.

    Column c of [J_psi, x x J_psi] is a field of character psi ^ chi_c, which
    D_{psi ^ chi_c} multiplies: the columns, flattened to (R, 6 n), go to the
    stored blocks `blocks`, a slice, column i into slot slot[i] of block
    blocks.start + block[i].
    """

    characters: tuple
    scale: np.ndarray  # (R, n, 3)
    mirrored: np.ndarray  # (|G|, n, 3)
    blocks: slice
    block: np.ndarray  # (6 n,)
    slot: np.ndarray  # (6 n,)


class OneBodyOperator(PackedCoupling):
    """Matrix-free application of the discretized boundary operator I + s A.

    A is the collocated coupling sum over grad g(i, j) terms; the scale s
    multiplies it (see assemble_one_body).  Every pair term is a scalar times
    x_i - x_j: grad g(i, j) w_j = C_ij (x_i - x_j) with

        C_ij = g(r_ij) (ik - 1/r_ij) / r_ij * w_j,   C_ii = 0.

    With d = x_i - x_j the pair term d (N_i . J_j) - J_j (d . N_i) is N_i x (d x J_j),
    so the coupling is N_i x [x_i x (C J)_i - (C (x x J))_i] (kernels._cross_sum):
    one product of C with the 6 columns [J, x x J].  The coordinates x are taken
    relative to mesh.center: with raw coordinates the expansion cancels
    catastrophically for a small body far from the origin.  Unknowns are
    interleaved (X1, Y1, Z1, X2, ...).

    C is not stored: it commutes with the mirror group G of the mesh
    (mirror_group), so it splits into one block per character psi of G
    (Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal. 29, 534,
    1992).  With one representative r per orbit (R ~ P / |G| of them), the
    operator stores the |G| (R, R) matrices

        D_psi[r, s] = sum_g psi(g) K_g[r, s],

    K_g[r, s] = c(|x_r - R_g x_s|), zero where g fixes r = s.  R_g is an
    orthogonal involution, so |x_r - R_g x_s| = |x_s - R_g x_r|: each K_g,
    and so each D_psi, is symmetric, and kernels.packed_pairs stores D once,
    as packed upper block rows, from one pass per g over the upper triangle
    summed through the character table as each block row comes.  The
    weights v_s = w_s / |Stab s| go on the columns: a scalar field f with
    f(g i) = psi(g) f(i) has (C f)_r = (D_psi (v f))_r.

    The operator works on the characters' components of J (CharacterBasis):
    J(g i) = R_g J(i) psi(g) makes its component q a field of character
    psi sigma_q, sigma_q(g) the sign R_g puts on axis q, and its column
    (x x J)_p = x_q J_r - x_r J_q one of psi sigma_q sigma_r, that is
    psi sigma_0 sigma_1 sigma_2 sigma_p.  So matvec(c, basis) forms the 6
    columns of the basis's characters at the representatives, applies each
    D_psi that pairs with one of them to those columns only, as one
    kernels.packed_product on a slice of the blocks (two GEMMs per block
    row, one where a block row covers all R rows), and takes the cross
    products at the representatives: no gather over the points, and no
    product on a character the basis leaves out.  solve_currents maps the
    right-hand side to the characters once, solves those it does not leave
    empty, and maps each solution back once.  matvec(x) in the point basis
    is to_points(matvec(to_characters(x))).  A mesh without mirrors is the
    trivial group, D = C / w_j.  The scale s multiplies at matvec time.

    D is stored real, with the plane-wave table, or complex by
    kernels.PackedCoupling's rule, with 6 columns per character; real D is
    summed by the series in (kr)^2 while k D <= 1 (record["series"] gives
    its degree, 2 on the bundled bodies).  On the real branch the coupling
    gains N_i x sum_j i Im grad g(x_i - x_j) x w_j J_j
    (kernels.radiative_field), in O(R Q |G|) per character: each axis
    mirror maps the rule's directions onto themselves, so the table holds
    the phases at the R representatives only and the mirrored sums are
    gathered from theirs (kernels.plane_wave_images).  The bundled spheres
    and ellipsoid store real D at the default k (Q = 32); a body many
    wavelengths across, or a coarse mesh such as the 600-point cube of side
    2e-7 cm (Q = 50, |G| = 8), keeps complex D.

    The series scales the static kernel c0 = -1 / (4 pi r^3), so on that
    branch the pass also makes gamma_numeric's static sums, unless the mesh
    already keeps them: each static block row of K_g feeds their two GEMMs
    before the series scales it (_StaticSums).  The mesh keeps them, with
    its orbit tables, and not the operator.
    """

    def __init__(self, mesh: CollocationMesh, wavenumber: float, scale: float = 1.0):
        orbits = _orbits(mesh)
        order = len(orbits.signs)
        reps = orbits.reps
        self._maps, self._gather = orbits.maps, orbits.gather
        self._signs, self._characters = orbits.signs, orbits.characters
        # column c of [J, x x J] is a field of character psi ^ chi_c
        bit = {axis: 1 << n for n, axis in enumerate(orbits.axes)}
        axis_bits = np.array([bit.get(q, 0) for q in range(3)])
        self._chi = np.concatenate([axis_bits, np.bitwise_xor.reduce(axis_bits) ^ axis_bits])
        # orbit r has |G| / |Stab r| points; component q of J_psi(r) is free
        # where every g fixing r has psi(g) sigma_q(g) = 1
        self._norms = np.sqrt(order / orbits.stabiliser)
        flips = orbits.characters[:, :, None] * orbits.signs < 0  # (psi, g, q)
        fixes = (orbits.maps == reps).T  # (R, g)
        self._free = ~np.any(flips & fixes[:, None, :, None], axis=2)  # (R, psi, q)

        x = mesh.points - mesh.center
        sums = _StaticSums(mesh, orbits) if orbits.static_sums is None else None
        self._pack(mesh.points[reps], mesh.center, wavenumber, x, (6,) * order,
                   "the one-body operator", mirrors=orbits.mirrors, rows=reps, static=sums)
        if sums is not None and self.series is not None:
            orbits.static_sums = sums.product
        if self.directions is not None:
            self._images = plane_wave_images(self.directions, orbits.signs)
        self._x = x[reps]
        self._normals = mesh.normals[reps]
        self._column_weights = orbits.column_weights(mesh) / self._norms
        self._mesh = mesh
        self._scale = float(scale)
        self.mirrors = tuple("xyz"[axis] for axis in orbits.axes)
        self.orbits = len(reps)
        self.wavenumber = float(wavenumber)
        self.n_points = mesh.n_points
        self.shape = (3 * mesh.n_points,) * 2

    @property
    def record(self) -> dict:
        """What the operator is, as the artifacts write it: its mirrors, group
        order, orbits, bytes, plane-wave directions (None for complex D) and
        the degree of the series that summed real D (None where the complex
        kernel did)."""
        return {"mirrors": list(self.mirrors), "order": len(self._signs), "orbits": self.orbits,
                "bytes": self.nbytes, "directions": self.directions, "series": self.series}

    def basis(self, characters=None) -> CharacterBasis:
        """The CharacterBasis of characters, indices into the group's character
        table in increasing order; every character by default."""
        order = len(self._signs)
        kept = np.arange(order) if characters is None else np.asarray(characters, dtype=np.intp)
        if kept.ndim != 1 or not kept.size or np.any(np.diff(kept) <= 0) or not (
                0 <= kept[0] and kept[-1] < order):
            raise ValueError(f"characters must be increasing indices below {order}, "
                             f"got {characters!r}")
        block = (kept[:, None] ^ self._chi).ravel()
        slot = np.array([np.count_nonzero(block[:i] == h) for i, h in enumerate(block)])
        low = int(block.min())
        return CharacterBasis(characters=tuple(kept.tolist()),
                              scale=self._norms[:, None, None] * self._free[:, kept],
                              mirrored=self._characters[kept].T[:, :, None] * self._signs[:, None],
                              blocks=slice(low, int(block.max()) + 1), block=block - low,
                              slot=slot)

    def to_characters(self, x: np.ndarray, basis: CharacterBasis | None = None) -> np.ndarray:
        """The (R, n, 3) components in basis (every character by default) of the
        current x at the points, 3P values or (P, 3):
        J_psi(r) = sum_g psi(g) R_g J(g r) / |G|, scaled by basis.scale."""
        basis = self.basis() if basis is None else basis
        j = np.asarray(x, dtype=complex).reshape(self.n_points, 3)
        c = np.einsum("gkq,grq->rkq", basis.mirrored, j[self._maps])
        c *= basis.scale / len(self._signs)
        return c

    def to_points(self, c: np.ndarray, basis: CharacterBasis | None = None) -> np.ndarray:
        """The (P, 3) current at the points of the components c in basis (every
        character by default): J(g r) = sum_psi psi(g) R_g J_psi(r)."""
        basis = self.basis() if basis is None else basis
        c = np.reshape(c, (self.orbits, -1, 3)) / self._norms[:, None, None]
        return np.einsum("gkq,rkq->grq", basis.mirrored, c).reshape(-1, 3)[self._gather]

    def matvec(self, x: np.ndarray, basis: CharacterBasis | None = None) -> np.ndarray:
        """(I + s A) x for a current x at the points, 3P values.  With basis, x
        holds the flattened components in basis and so does the result: the
        product GMRES runs on, which the point basis maps to and from."""
        if basis is None:
            basis = self.basis()
            return self.to_points(self._product(self.to_characters(x, basis), basis),
                                  basis).reshape(-1)
        return self._product(np.reshape(x, (self.orbits, -1, 3)), basis).reshape(-1)

    def _product(self, c: np.ndarray, basis: CharacterBasis) -> np.ndarray:
        """(I + s A) c for the (R, n, 3) components c in basis."""
        vj = c * self._column_weights[:, None, None]
        # D_psi takes column c of character psi ^ chi_c
        columns = _cross_columns(self._x[:, None], vj).reshape(self.orbits, -1)
        z = np.zeros((basis.blocks.stop - basis.blocks.start,
                      self.orbits, basis.slot.max() + 1), dtype=complex)
        z[basis.block, :, basis.slot] = columns.T
        product = packed_product(self._blocks, basis.blocks, z)[basis.block, :, basis.slot]
        # (A J_psi)(r) = N_r x sum_s D_psi[r, s] v_s (x_r - x_s) x J_psi(s)
        field = _cross_sum(self._x[:, None], product.T.reshape(vj.shape[:2] + (6,)))
        if self.directions is not None:
            field += radiative_field(self.wavenumber, self._table, vj,
                                     (self._images, basis.mirrored))
        coupling = _cross(self._normals[:, None], field)
        coupling *= self._scale * basis.scale
        coupling += c
        return coupling

    def to_dense(self) -> np.ndarray:
        """Materialize the full (3P, 3P) matrix (small systems / oracles).

        Block (i, j) is s C_ij [(x_i - x_j) N_i^T - I (x_i - x_j) . N_i],
        plus the identity on the diagonal blocks.  C is evaluated afresh on
        every pair of the mesh, not taken from the stored D, so this is an
        independent oracle for the matvec.  It needs 200 B per pair of
        points: the 144 B of the matrix, which the blocks are written into,
        and C, the normal term, one gradient component and one coordinate
        difference while they are built.
        """
        mesh = self._mesh
        p = self.n_points
        check_dense_bytes(200 * p * p, "the dense one-body matrix")
        coeff = pair_matrix(
            mesh.points, mesh.center, lambda r: kernel_gradient_parts(self.wavenumber, r)[1],
            weights=mesh.weights,
        )
        x = mesh.points - mesh.center
        a = np.empty((p, 3, p, 3), dtype=complex)
        normal_dot = np.zeros((p, p), dtype=complex)
        grad = np.empty((p, p), dtype=complex)
        for comp in range(3):
            np.multiply(coeff, np.subtract.outer(x[:, comp], x[:, comp]), out=grad)
            np.multiply(grad[:, :, None], mesh.normals[:, None, :], out=a[:, comp])
            grad *= mesh.normals[:, comp, None]
            normal_dot += grad
        for comp in range(3):
            a[:, comp, :, comp] -= normal_dot
        a *= self._scale
        for comp in range(3):
            a[np.arange(p), comp, np.arange(p), comp] += 1.0
        return a.reshape(3 * p, 3 * p)


#: Scale applied to both the coupling operator and the right-hand side.
#: 1.0 reproduces the bundled reference tables; 2.0 gives the classical
#: half-jump boundary equation (I + 2A) J = -2 N x E0.
DEFAULT_BIE_SCALE = 1.0


def assemble_one_body(
    mesh: CollocationMesh, wave: IncidentWave, scale: float = DEFAULT_BIE_SCALE
) -> tuple[OneBodyOperator, np.ndarray]:
    """Build the boundary operator (I + s A) and right-hand side -s N x E0.

    Emits a warning when k * body radius exceeds the small-body threshold;
    the discretization stays valid but the asymptotic comparisons degrade.
    """
    ka = wave.wavenumber * mesh.radius
    if ka >= KA_WARN_THRESHOLD:
        warnings.warn(
            f"k * radius = {ka:.3g}; outside the small-body regime", stacklevel=2
        )
    rhs = -scale * np.cross(mesh.normals, wave.field(mesh.points))
    return OneBodyOperator(mesh, wave.wavenumber, scale=scale), rhs.reshape(-1)


def solve_currents(
    mesh: CollocationMesh,
    wave: IncidentWave,
    scales,
    tol: float = 1e-10,
    restart: int = 50,
    max_iter: int = 1000,
) -> list[SurfaceCurrent]:
    """Solve the boundary system at every scale on one assembled operator.

    The operator and right-hand side are assembled at s0 = scales[0].  At
    another scale s, (I + s A) J = -s N x E0 is (s / s0) times
    (I + s0 A + sigma I) J = -s0 N x E0 with sigma = s0 / s - 1, so every
    scale is a shift of one system and GMRES solves them on one Krylov
    basis (linalg.solve_gmres), which never materializes the matrix.

    GMRES runs on the components of J on the characters of the mesh's
    mirror group (OneBodyOperator.basis): the right-hand side is mapped to
    them once, a character whose part of it is at most EMPTY_CHARACTER_ULPS
    ulps of |b| is left out, since the operator keeps every character to
    itself, and each solution is mapped back once.  The map is an isometry,
    so the report's final_residual is that of the point system: GMRES's
    residual and the right-hand side left out, sqrt(r^2 + d^2) / |b|.  With
    every character left out (b = 0) the current is zero, converged, after
    0 iterations.

    Raises ConvergenceError if GMRES stalls; every current carries the
    report of the whole solve.  ValueError, before assembly, for a bad knob
    (linalg.check_solver) or bad scales (linalg.check_array): none, or one
    that is not a number, 0 or not finite.
    """
    check_solver(tol, restart, max_iter)
    scales = check_array("scales", scales, (None,), "finite and non-zero numbers, at least one",
                         valid=lambda a: a.size > 0 and np.isfinite(a) & (a != 0)
                         ).astype(float).tolist()
    operator, rhs = assemble_one_body(mesh, wave, scale=scales[0])
    b_norm = float(np.linalg.norm(rhs))
    if not np.isfinite(b_norm):
        raise ValueError("right-hand side holds NaN or inf entries")
    b = operator.to_characters(rhs)
    norms = np.linalg.norm(b, axis=(0, 2))
    kept = np.flatnonzero(norms > EMPTY_CHARACTER_ULPS * np.finfo(float).eps * b_norm)
    if not kept.size:
        values = [np.zeros((mesh.n_points, 3), dtype=complex) for _ in scales]
        report = SolveReport(0, 0.0, True, [])
    else:
        basis = operator.basis(kept)
        x, report = linalg.solve_gmres(partial(operator.matvec, basis=basis),
                                       b[:, kept].reshape(-1), tol=tol, restart=restart,
                                       max_iter=max_iter,
                                       shifts=[scales[0] / s - 1.0 for s in scales])
        residual = math.hypot(report.final_residual * float(np.linalg.norm(norms[kept])),
                              float(np.linalg.norm(np.delete(norms, kept)))) / b_norm
        report = replace(report, final_residual=residual,
                         converged=report.converged and residual <= tol)
        if not report.converged:
            raise ConvergenceError(f"boundary solve stalled at residual {residual:.3e}", report)
        values = [operator.to_points(row, basis) for row in x]
    return [SurfaceCurrent(values=v, report=report, operator=operator.record,
                           characters=tuple(kept.tolist())) for v in values]


def solve_current(
    mesh: CollocationMesh,
    wave: IncidentWave,
    tol: float = 1e-10,
    restart: int = 50,
    max_iter: int = 1000,
    scale: float = DEFAULT_BIE_SCALE,
) -> SurfaceCurrent:
    """Solve the boundary system (I + scale A) J = -scale N x E0 for J.

    Raises ConvergenceError if GMRES stalls.
    """
    return solve_currents(mesh, wave, (scale,), tol=tol, restart=restart,
                          max_iter=max_iter)[0]


def moment_q_exact(current: SurfaceCurrent, mesh: CollocationMesh) -> np.ndarray:
    """Quadrature of the surface density: Q = sum_i J(i) w_i."""
    return mesh.weights @ current.values


def gamma_sphere_analytic() -> GammaMatrix:
    """Closed-form coupling matrix of a sphere: diag(-1/3, -1/3, 1/6).

    The frame puts the third axis along the source-point normal; the
    corresponding tau is diag(3/2, 3/2, 6/7).
    """
    return GammaMatrix.from_gamma(np.diag([-1.0 / 3.0, -1.0 / 3.0, 1.0 / 6.0]))


def _local_frames(normals: np.ndarray) -> np.ndarray:
    """Orthonormal bases (u, v, n) per point, n the outward normal.

    Returns (P, 3, 3) with basis vectors in columns; the tangent pair is a
    deterministic function of n only.
    """
    n = normals
    ref = np.zeros_like(n)
    use_y = np.abs(n[:, 0]) > 0.9
    ref[~use_y, 0] = 1.0
    ref[use_y, 1] = 1.0
    u = ref - n * np.einsum("ij,ij->i", ref, n)[:, None]
    u /= np.linalg.norm(u, axis=1)[:, None]
    v = np.cross(n, u)
    return np.stack([u, v, n], axis=-1)


def gamma_numeric(mesh: CollocationMesh, frame: str = "local") -> GammaMatrix:
    """Coupling matrix from static-kernel quadrature over the mesh.

    For each source point t the matrix G_pq(t) = sum_{s != t}
    d g0 / d s_p (s, t) N_q(s) w_s is formed; the returned gamma is the
    area-weighted average over t, either rotated into the local frame whose
    third axis is the source normal (frame="local", the frame in which the
    sphere value diag(-1/3, -1/3, 1/6) is stated) or in laboratory axes
    (frame="lab").

    The sum is split by the mesh's mirror group as in OneBodyOperator: with
    d g0 / d s = c_st (x_s - x_t), c_st = -1 / (4 pi r_st^3), G is formed at
    the R orbit representatives only, from K_g[r, s] = c(|x_r - R_g x_s|)
    applied to the columns [N_s, x_s (x) N_s] v_s, v_s = w_s / |Stab s|, of
    each group element g, whose image g s has R_g x_s and R_g N_s
    (_StaticSums).  G(g r) = R_g G(r) R_g gives it at every point.  A mesh
    without mirrors is the trivial group: the plain sum over all P^2 pairs.

    The (R, 12) sums do not depend on k or the frame, and the mesh keeps
    them.  A OneBodyOperator whose blocks the series sums makes them in
    its own pass: each static block row c0 of K_g feeds the sums' two GEMMs
    and is then scaled by the series.  Otherwise the first call makes them
    in the same mirrored pass (kernels.packed_pairs) with nothing stored,
    one block row of distances held at a time and no (R, R) matrix.  Either
    pass adds the block rows in the same order, so gamma has the same bits
    whichever made them.
    """
    if frame not in ("local", "lab"):
        raise ValueError(f"unknown frame {frame!r}")
    orbits = _orbits(mesh)
    reps = orbits.reps
    if orbits.static_sums is None:
        check_dense_bytes(8 * block_row_entries(len(reps)),
                          "a block row of the static coupling matrix")
        sums = _StaticSums(mesh, orbits)
        packed_pairs(mesh.points[reps], mesh.center, _static_coefficient, float,
                     orbits.mirrors, visit=sums)
        orbits.static_sums = sums.product
    product = orbits.static_sums
    x = mesh.points[reps] - mesh.center

    # per_source[r, p, q] = sum_s c_rs (x_sp - x_rp) N_sq w_s
    per_source = product[:, 3:].reshape(-1, 3, 3) - x[:, :, None] * product[:, None, :3]
    mirrored = orbits.signs[:, None, :, None] * per_source * orbits.signs[:, None, None, :]
    per_source = mirrored.reshape(-1, 3, 3)[orbits.gather]

    if frame == "local":
        basis = _local_frames(mesh.normals)  # (t, 3, 3), columns u, v, n
        per_source = np.swapaxes(basis, 1, 2) @ per_source @ basis

    gamma = np.einsum("t,tpq->pq", mesh.weights, per_source) / mesh.area
    return GammaMatrix.from_gamma(gamma)


def _static_coefficient(r: np.ndarray) -> np.ndarray:
    """-1 / (4 pi r^3), in place: the series kernel's c0, bit for bit."""
    return static_parts(r)[0]


def moment_q_asymptotic(
    mesh: CollocationMesh, wave: IncidentWave, gamma: GammaMatrix
) -> np.ndarray:
    """Small-body moment Q = -|D| tau (curl E0)(center)."""
    return -mesh.volume * (gamma.tau @ wave.curl(mesh.center))


def field_e_exact(
    mesh: CollocationMesh, wave: IncidentWave, current: SurfaceCurrent, x
) -> np.ndarray:
    """Total electric field from the solved density.

    E(x) = E0(x) + sum_j grad g(x, t_j) x J(j) w_j; x is (3,) or (n, 3), every
    point strictly outside the body, and the result has the shape of x.
    """
    x = np.asarray(x, dtype=float)
    dist = np.linalg.norm(x - mesh.center, axis=-1)
    if np.any(dist <= mesh.radius):
        raise ValueError(
            f"evaluation point at distance {dist.min():.3e} lies inside the body "
            f"(radius {mesh.radius:.3e})"
        )
    moments = current.values * mesh.weights[:, None]
    return wave.field(x) + moment_fields(wave.wavenumber, mesh.points, moments, x)[0]


def field_e_asymptotic(wave: IncidentWave, q, center, x) -> np.ndarray:
    """Point-moment approximation E(x) = E0(x) + grad g(x, center) x Q.

    Valid far from the body; x is (3,) or (n, 3).
    """
    center = np.asarray(center, dtype=float)
    return wave.field(x) + moment_fields(wave.wavenumber, center[None], [q], x)[0]


def field_h(wave: IncidentWave, q, center, x) -> np.ndarray:
    """Magnetic field of the point-moment solution, H = curl E / (i omega mu).

    x is (3,) or (n, 3).
    """
    center = np.asarray(center, dtype=float)
    curl_scattered = moment_fields(wave.wavenumber, center[None], [q], x)[1]
    return (wave.curl(x) + curl_scattered) / (1j * wave.frequency * wave.permeability)
