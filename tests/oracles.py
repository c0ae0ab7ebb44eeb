"""Dense reference routes that the package computes from T's structure.

The tests check the structured code against these: the assembled projected
operator M_k, a Householder orthonormal complement, and the separation
through that complement.
"""

import math

import numpy as np


class ZeroVector(Exception):
    pass


def assemble_projected(T, beta0, delta):
    """Dense projected operator [[-T, beta0^2 e1 e1^T/delta^2], [I, -T]]."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    m = T.order
    td = T.to_dense()
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = -td
    out[0, m] = beta0 * beta0 / (delta * delta)
    out[m:, :m] = np.eye(m)
    out[m:, m:] = -td
    return out


def orthonormal_complement(v):
    """Orthonormal basis of the complement of a unit vector, via one Householder
    reflector; returns an m x (m-1) matrix."""
    v = np.asarray(v, dtype=float)
    m = v.size
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ZeroVector("cannot complement the zero vector")
    if abs(nv - 1.0) > 1e-8:
        raise ValueError(f"input must have unit norm, got {nv!r}")
    v = v / nv
    sigma = -1.0 if v[0] >= 0.0 else 1.0
    u = v.copy()
    u[0] -= sigma
    unorm2 = float(u @ u)
    comp = np.zeros((m, m - 1))
    comp[1:, :] = np.eye(m - 1)
    if unorm2 > 0.0:
        comp -= np.outer(u, (2.0 / unorm2) * u[1:])
    return comp


def complement_separation(mk_dense, z, mu):
    """sep(mu, C) = sigma_min(C - mu I) with C = Z' M Z for a Householder
    complement Z of the unit vector z, from the smallest eigenvalue of the
    Gram matrix (C - mu I)'(C - mu I)."""
    mk_dense = np.asarray(mk_dense, dtype=float)
    zperp = orthonormal_complement(np.asarray(z, dtype=float))
    c = zperp.T @ mk_dense @ zperp
    shifted = c - mu * np.eye(c.shape[0])
    smallest = float(np.linalg.eigvalsh(shifted.T @ shifted)[0])
    return math.sqrt(max(smallest, 0.0))
