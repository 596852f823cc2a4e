"""Vectorized TET10 element matrices.

Every routine operates on a batch of elements (or faces) at once with
einsum-batched quadrature — no per-element Python loop — following the
vectorization idioms the library is built on.  The batch is whatever
the caller passes: :func:`repro.core.problem.build_problem` integrates
a mesh block by block, so it never holds more than one block's
matrices and temporaries.  Element matrices are dense
``(nb, 30, 30)`` arrays: they are exactly the operand of the paper's
matrix-free EBE SpMV (Eq. 8), and also the source for global assembly.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import Tet10Mesh
from repro.fem.quadrature import tet_rule, tri_rule
from repro.fem.tet10 import tet10_shape, tri6_shape

__all__ = [
    "element_mass_stiffness",
    "face_dashpot_matrices",
    "fold_faces_into_elements",
]


def _jacobians(dN: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Jacobians.

    Parameters
    ----------
    dN : (nq, na, 3) natural-coordinate shape gradients.
    X : (ne, na, 3) element node coordinates.

    Returns
    -------
    detJ : (ne, nq); dNdx : (ne, nq, na, 3).
    """
    # J[e,q,i,j] = sum_a X[e,a,i] dN[q,a,j]
    J = np.einsum("eai,qaj->eqij", X, dN, optimize=True)
    detJ = np.linalg.det(J)
    if np.any(detJ <= 0):
        raise ValueError("non-positive Jacobian: inverted element")
    invJ = np.linalg.inv(J)
    # dN/dx[e,q,a,i] = dN[q,a,j] * invJ[e,q,j,i]
    dNdx = np.einsum("qaj,eqji->eqai", dN, invJ, optimize=True)
    return detJ, dNdx


def element_mass_stiffness(
    X: np.ndarray,
    rho: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Consistent mass and stiffness matrices of a batch of elements.

    Parameters
    ----------
    X : (ne, 10, 3) node coordinates of each element
        (``mesh.nodes[mesh.elems]`` for a whole mesh).
    rho, lam, mu : (ne,) per-element density and Lame parameters.

    Returns
    -------
    Me, Ke : (ne, 30, 30) float64, symmetric positive (semi-)definite.
        DOF ordering interleaves components: local dof ``3*a + i`` is
        component ``i`` of local node ``a``.
    """
    ne = X.shape[0]
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (ne,))
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (ne,))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (ne,))

    pts, w = tet_rule(4)
    N, dN = tet10_shape(pts)
    detJ, G = _jacobians(dN, X)
    wdet = w[None, :] * detJ  # (ne, nq)

    # --- mass: m_ab = rho * sum_q w detJ N_a N_b, expanded by I3 ---
    m = np.einsum("eq,qa,qb->eab", wdet, N, N, optimize=True) * rho[:, None, None]
    Me = np.einsum("eab,ij->eaibj", m, np.eye(3), optimize=True).reshape(ne, 30, 30)

    # --- stiffness: K_aibj = int lam G_ai G_bj + mu G_aj G_bi
    #                        + mu delta_ij G_ak G_bk ---
    wl = wdet * lam[:, None]
    wm = wdet * mu[:, None]
    A1 = np.einsum("eq,eqai,eqbj->eaibj", wl, G, G, optimize=True)
    A2 = np.einsum("eq,eqaj,eqbi->eaibj", wm, G, G, optimize=True)
    A3 = np.einsum("eq,eqak,eqbk->eab", wm, G, G, optimize=True)
    K = A1 + A2
    K += np.einsum("eab,ij->eaibj", A3, np.eye(3), optimize=True)
    Ke = K.reshape(ne, 30, 30)

    # Symmetrize against einsum round-off so downstream SPD checks are exact.
    Me = 0.5 * (Me + Me.transpose(0, 2, 1))
    Ke = 0.5 * (Ke + Ke.transpose(0, 2, 1))
    return Me, Ke


def face_dashpot_matrices(
    mesh: Tet10Mesh,
    face_nodes: np.ndarray,
    rho: np.ndarray,
    vp: np.ndarray,
    vs: np.ndarray,
) -> np.ndarray:
    """Lysmer-Kuhlemeyer absorbing dashpot matrices for TRI6 faces.

    The absorbing traction is ``t = -rho (vp (v.n) n + vs v_tangential)``;
    its consistent discretization is the SPD face matrix

        C_f[3a+i, 3b+j] = int_f N_a N_b rho (vp n_i n_j
                                             + vs (delta_ij - n_i n_j)) dS,

    added to the global damping matrix.

    Parameters
    ----------
    face_nodes : (nf, 6) global node ids per face.
    rho, vp, vs : (nf,) material of the element owning each face.

    Returns
    -------
    Cf : (nf, 18, 18).
    """
    nf = face_nodes.shape[0]
    if nf == 0:
        return np.zeros((0, 18, 18))
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (nf,))
    vp = np.broadcast_to(np.asarray(vp, dtype=float), (nf,))
    vs = np.broadcast_to(np.asarray(vs, dtype=float), (nf,))

    pts, w = tri_rule(4)
    N, dN = tri6_shape(pts)
    Xf = mesh.nodes[face_nodes]  # (nf, 6, 3)
    # tangents t_k[f,q,i] = sum_a dN[q,a,k] Xf[f,a,i]
    t1 = np.einsum("qa,fai->fqi", dN[:, :, 0], Xf, optimize=True)
    t2 = np.einsum("qa,fai->fqi", dN[:, :, 1], Xf, optimize=True)
    nvec = np.cross(t1, t2)  # (nf, nq, 3), |nvec| is the surface Jacobian
    jac = np.linalg.norm(nvec, axis=2)  # (nf, nq)
    nhat = nvec / jac[:, :, None]

    # scalar face mass: m_ab = sum_q w jac N_a N_b
    m = np.einsum("q,fq,qa,qb->fab", w, jac, N, N, optimize=True)
    # direction tensor per face (faces here are planar; average over qp)
    nbar = nhat.mean(axis=1)
    nbar /= np.linalg.norm(nbar, axis=1, keepdims=True)
    nn = np.einsum("fi,fj->fij", nbar, nbar)
    eye = np.eye(3)[None, :, :]
    dir_t = rho[:, None, None] * (
        vp[:, None, None] * nn + vs[:, None, None] * (eye - nn)
    )
    Cf = np.einsum("fab,fij->faibj", m, dir_t, optimize=True).reshape(nf, 18, 18)
    return 0.5 * (Cf + Cf.transpose(0, 2, 1))


def fold_faces_into_elements(
    Ce: np.ndarray,
    elems: np.ndarray,
    face_elem: np.ndarray,
    face_nodes: np.ndarray,
    Cf: np.ndarray,
) -> None:
    """Accumulate face dashpot matrices into their owning elements' 30x30
    damping matrices (in place).

    ``Ce`` and ``elems`` are one batch of elements (matrices and
    connectivity), ``face_elem`` indexes into that batch.  Faces are
    added in face order, so an element owning two faces sums them as a
    loop over the faces would.  Keeping boundary terms element-local
    means the EBE operator (Eq. 8) sees exactly the same physics as the
    assembled matrix.
    """
    # local index of each face node within its element
    loc = np.argmax(elems[face_elem][:, None, :] == face_nodes[:, :, None], axis=2)
    dof = (3 * loc[:, :, None] + np.arange(3)).reshape(-1, 18)
    np.add.at(Ce, (face_elem[:, None, None], dof[:, :, None], dof[:, None, :]), Cf)
