"""Small dense linear-algebra kernel with a float and an exact-rational mode.

Every numerical decision the toolkit makes (ranks, nullspaces, definiteness,
solvability) funnels through this module so that tolerance policy lives in
exactly one place.

Float mode works on ``float64`` arrays and is backed by numpy/scipy
factorizations.  Exact mode works on numpy object arrays whose entries are
:class:`fractions.Fraction`; ranks and memberships are then decided exactly,
which is what the catalog verification uses to pin down integer invariants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class LinAlgDomainError(ValueError):
    """Input violates a documented precondition (shape, symmetry, ...)."""


class InfeasibleSystem(LinAlgDomainError):
    """A linear system has no solution within tolerance."""


class ExactModeUnsupported(LinAlgDomainError):
    """The requested operation has no exact-rational implementation."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by all rank/zero decisions.

    A quantity x is treated as zero relative to a scale s when
    ``|x| <= abs + rel * s``.
    """

    abs: float = 1e-9
    rel: float = 1e-9

    def threshold(self, scale: float = 0.0) -> float:
        return self.abs + self.rel * float(scale)

    def scaled(self, factor: float) -> "Tolerance":
        return Tolerance(self.abs * factor, self.rel * factor)


DEFAULT_TOL = Tolerance()


def is_exact(a: np.ndarray) -> bool:
    """True when the array carries exact (Fraction) scalars."""
    return a.dtype == object


def as_matrix(data, exact: bool = False) -> np.ndarray:
    """Coerce nested sequences to a kernel array in the requested mode."""
    if exact:
        arr = np.empty(np.shape(data), dtype=object)
        flat = arr.reshape(-1)
        for k, v in enumerate(np.asarray(data, dtype=object).reshape(-1)):
            flat[k] = Fraction(v)
        return arr
    return np.asarray(data, dtype=float)


def zeros(shape, exact: bool = False) -> np.ndarray:
    if exact:
        arr = np.empty(shape, dtype=object)
        arr.reshape(-1)[:] = [Fraction(0)] * arr.size
        return arr
    return np.zeros(shape)


def eye(n: int, exact: bool = False) -> np.ndarray:
    out = zeros((n, n), exact)
    for i in range(n):
        out[i, i] = Fraction(1) if exact else 1.0
    return out


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float)


# ---------------------------------------------------------------------------
# contraction helpers
# ---------------------------------------------------------------------------

#: Element budget of one block of a blocked contraction (2 MB of float64).
BLOCK_ELEMENTS = 1 << 18


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=64)
def strict_pairs(n: int):
    """Index arrays ``(i, j)`` of all basis pairs with i < j, row-major."""
    return _frozen(*np.nonzero(np.triu(np.ones((n, n), dtype=bool), 1)))


@functools.lru_cache(maxsize=64)
def strict_triples(n: int):
    """Index arrays ``(i, j, k)`` of all basis triples with i < j < k,
    sorted by i (then j, then k)."""
    r = np.arange(n)
    mask = (r[:, None, None] < r[None, :, None]) & (r[None, :, None] < r[None, None, :])
    return _frozen(*np.nonzero(mask))


def max_row_norm(rows) -> float:
    """Largest Euclidean norm among the rows (last axis) of ``rows``; 0.0 when
    there are none.  Each row's norm is the one :func:`norm` gives it."""
    x = np.asarray(rows, dtype=float)
    if x.size == 0:
        return 0.0
    x = x.reshape(-1, 1, x.shape[-1])
    return math.sqrt((x @ x.transpose(0, 2, 1)).max())


# ---------------------------------------------------------------------------
# exact mode on integers
# ---------------------------------------------------------------------------
#
# Exact arrays hold Fractions with small, mostly shared denominators.  Every
# exact product and elimination clears an array's denominators with one
# common multiple, works on Python ints and forms each resulting Fraction
# once, so the values are the ones plain Fraction arithmetic gives.


def numerators(a: np.ndarray):
    """``(ints, d)``: an object array of Python ints and a positive int with
    ``a == ints / d`` entrywise (``d`` the lcm of the denominators); a float
    array is returned as itself over 1.  Sums of products of numerators share
    one denominator, so :func:`over` forms each Fraction of the result once."""
    if not is_exact(a):
        return a, 1
    flat = a.ravel().tolist()
    dens = {x.denominator for x in flat}
    d = math.lcm(*dens)
    ints = np.empty(a.shape, dtype=object)
    if d == 1:
        ints.reshape(-1)[:] = [x.numerator for x in flat]
    else:
        factor = {q: d // q for q in dens}
        ints.reshape(-1)[:] = [x.numerator * factor[x.denominator] for x in flat]
    return ints, d


def over(ints, d: int):
    """The Fractions ``ints / d`` (an array, or one scalar), each value formed
    once; a float array (whose ``d`` is 1) is returned as itself."""
    if not isinstance(ints, np.ndarray):
        return Fraction(ints, d)
    if not is_exact(ints):
        return ints
    flat = ints.ravel().tolist()
    value = {v: Fraction(v, d) for v in set(flat)}
    out = np.empty(ints.shape, dtype=object)
    out.reshape(-1)[:] = [value[v] for v in flat]
    return out


def exact_matmul(*arrays):
    """``a @ b @ ...``, left to right, for Fraction arrays of any shapes ``@``
    accepts: the operands' integer numerators over their common denominators
    are multiplied, and every output entry becomes one Fraction."""
    ints, d = numerators(arrays[0])
    for a in arrays[1:]:
        ia, da = numerators(a)
        ints, d = np.matmul(ints, ia), d * da
    return over(ints, d)


def matmul(a: np.ndarray, b: np.ndarray, *more):
    """``a @ b @ ...``, left to right, in either mode; exact operands go
    through :func:`exact_matmul`."""
    if is_exact(a) and is_exact(b) and all(map(is_exact, more)):
        return exact_matmul(a, b, *more)
    out = a @ b
    for m in more:
        out = out @ m
    return out


def contract_last(t: np.ndarray, m: np.ndarray):
    """``sum_l t[..., l] m[l, k]``: ``np.einsum`` on floats, one object
    ``matmul`` of the flattened leading axes on :func:`numerators`."""
    if is_exact(t) and is_exact(m):
        lead = t.shape[:-1]
        return (t.reshape(math.prod(lead), t.shape[-1]) @ m).reshape(*lead, m.shape[-1])
    return np.einsum("...l,lk->...k", t, m)


def pair_table(t: np.ndarray, left: np.ndarray, right: np.ndarray):
    """``sum_ab left[a, i] right[b, j] t[a, b, :]`` as a (kl, kr, m) array:
    the bilinear product of table ``t`` (``alg.c`` for brackets, the
    Levi-Civita table for ``A_u v``) on every pair of columns, from two
    reshaped products of :func:`matmul`, so exact input stays on integers."""
    n, nb, m = t.shape
    half = matmul(left.T, t.reshape(n, nb * m)).reshape(left.shape[1], nb, m)
    return matmul(right.T, half)


def _echelon(m: np.ndarray):
    """Fraction-free Gauss-Jordan elimination of a Fraction matrix (Bareiss,
    Math. Comp. 22, 1968).

    Returns ``(a, pivots, d)``: the first ``len(pivots)`` rows of the integer
    array ``a`` are ``d`` times the reduced row echelon form of ``m``, the
    rest are zero.  Each step leaves minors of the cleared matrix in ``a``,
    so the division by the previous pivot is exact.
    """
    a, _ = numerators(m)
    rows, cols = a.shape
    pivots = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        nonzero = np.flatnonzero(a[r:, c] != 0)
        if not len(nonzero):
            continue
        if nonzero[0]:
            a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        p, row = a[r, c], a[r].copy()
        a = (p * a - np.outer(a[:, c], row)) // prev
        a[r] = row
        pivots.append(c)
        prev = p
    return a, pivots, prev


def exact_nullspace(m: np.ndarray) -> np.ndarray:
    """Exact basis (columns) of the kernel of a Fraction matrix."""
    cols = m.shape[1]
    a, pivots, d = _echelon(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros((cols, len(free)), exact=True)
    basis[free, range(len(free))] = Fraction(1)
    basis[pivots] = over(-a[: len(pivots), free], d)
    return basis


def exact_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact particular solution of m x = b for a vector or (n, k) block b;
    raises if any column is inconsistent (a pivot in the augmented part)."""
    cols = m.shape[1]
    a, pivots, d = _echelon(np.column_stack([m, b]))
    if pivots and pivots[-1] >= cols:
        raise InfeasibleSystem("exact linear system is inconsistent")
    x = zeros((cols,) + b.shape[1:], exact=True)
    x[pivots] = over(a[: len(pivots), cols:], d).reshape(len(pivots), *b.shape[1:])
    return x


def exact_inv(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    a, pivots, d = _echelon(np.concatenate([m, eye(n, exact=True)], axis=1))
    if pivots[: n] != list(range(n)):
        raise LinAlgDomainError("exact matrix is singular")
    return over(a[:, n:], d)


def _exact_is_pd(m: np.ndarray) -> bool:
    """Sylvester criterion: all leading principal minors positive.

    Fraction-free elimination without pivoting leaves the k-th leading
    minor of the cleared matrix, a positive multiple of m's, in ``a[k, k]``.
    """
    a, _ = numerators(m)
    prev = 1
    for k in range(m.shape[0]):
        p = a[k, k]
        if p <= 0:
            return False
        a[k + 1:, k + 1:] = (p * a[k + 1:, k + 1:] - np.outer(a[k + 1:, k], a[k, k + 1:])) // prev
        prev = p
    return True


# ---------------------------------------------------------------------------
# public kernel operations
# ---------------------------------------------------------------------------


def nullspace(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Basis (columns) of the numerical kernel of ``m``.

    Float mode: SVD; a singular value sigma_i counts as zero when
    ``sigma_i < tol.rel * sigma_max + tol.abs`` and the returned basis is
    orthonormal.  Exact mode: reduced row echelon elimination; the basis is
    exact but not orthonormal.
    """
    if is_exact(m):
        return exact_nullspace(m)
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return np.eye(m.shape[1])[:, : m.shape[1]]
    _, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    thr = tol.rel * smax + tol.abs
    rank = int(np.sum(s >= thr))
    return vh[rank:].T.copy()


def rank(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    return m.shape[1] - nullspace(m, tol).shape[1]


def solve_linear(m: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Least-squares solution of ``m x = b`` for a vector or an (n, k) block
    ``b``; raises InfeasibleSystem if the residual of any column exceeds
    ``tol.abs + tol.rel * |that column of b|``."""
    if is_exact(m):
        return exact_solve(m, b)
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    x, *_ = np.linalg.lstsq(m, b, rcond=None)
    resid = np.atleast_1d(np.linalg.norm(m @ x - b, axis=0))
    bad = resid[resid > tol.abs + tol.rel * np.linalg.norm(b, axis=0)]
    if bad.size:
        raise InfeasibleSystem(f"linear system unsolvable: residual {bad[0]:.3e} above tolerance")
    return x


def is_positive_definite(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Symmetric positive-definiteness test.

    Rejects (raises) matrices that are not square or not symmetric within
    tolerance; returns False for symmetric-but-indefinite input.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LinAlgDomainError("definiteness test needs a square matrix")
    if m.shape[0] == 0:
        return True  # vacuously definite; arises for trivial subspaces
    if is_exact(m):
        if not np.array_equal(m, m.T):
            raise LinAlgDomainError("matrix is not symmetric")
        return _exact_is_pd(m)
    m = np.asarray(m, dtype=float)
    scale = np.linalg.norm(m) or 1.0
    if np.linalg.norm(m - m.T) > tol.threshold(scale):
        raise LinAlgDomainError("matrix is not symmetric within tolerance")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return bool(eigs.min() > tol.abs)


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential.

    Float mode delegates to scipy's scaling-and-squaring implementation;
    scipy is imported here, on first use, to keep it out of import time.
    Exact mode supports nilpotent matrices only (the power series
    terminates and is evaluated exactly); anything else raises.
    """
    if is_exact(m):
        n = m.shape[0]
        term = eye(n, exact=True)
        out = eye(n, exact=True)
        for k in range(1, n + 1):
            term = exact_matmul(term, m) / Fraction(k)
            if not term.any():
                return out
            out = out + term
        raise ExactModeUnsupported(
            "exact matrix_exp is only available for nilpotent matrices"
        )
    import scipy.linalg
    return scipy.linalg.expm(np.asarray(m, dtype=float))


def orthonormal_basis(gram: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Columns b_i with <b_i, b_j>_gram = delta_ij, via Gram factorization.

    Eigendecomposition of the Gram matrix (never Gram-Schmidt): with
    G = V diag(lam) V^T the basis is B = V diag(lam^-1/2), so B^T G B = I.
    Raises for Grams that are not positive definite.
    """
    if is_exact(gram):
        raise ExactModeUnsupported(
            "orthonormal bases have irrational entries in general; "
            "use metric contractions in exact mode"
        )
    if not is_positive_definite(gram, tol):
        raise LinAlgDomainError("Gram matrix is not positive definite")
    lam, vec = np.linalg.eigh(np.asarray(gram, dtype=float))
    return vec @ np.diag(lam**-0.5)


def orthonormalize_in_metric(
    vectors: np.ndarray, gram: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormalize the (independent) columns of ``vectors`` w.r.t. ``gram``.

    Same Gram-factorization route applied to the restricted Gram
    V^T G V; returns V' with V'^T G V' = I and the same column span.
    """
    if vectors.shape[1] == 0:
        return vectors
    restricted = vectors.T @ gram @ vectors
    return vectors @ orthonormal_basis(restricted, tol)


def inv(m: np.ndarray) -> np.ndarray:
    if is_exact(m):
        return exact_inv(m)
    return np.linalg.inv(np.asarray(m, dtype=float))


def kernel_residual(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """:func:`span_residual` for a basis from :func:`nullspace` and a vector
    or (n, k) block ``vec``, without a solve: ``vec - B (B^T vec)`` for the
    orthonormal float basis, ``vec - B vec[free]`` for the exact one, whose
    last nonzero row in each column is that free column's unit row."""
    if is_exact(basis):
        (x, d), (v, dv) = numerators(basis), numerators(vec)
        free = x.shape[0] - 1 - np.argmax(x[::-1] != 0, axis=0)
        return over(v * d - x @ v[free], d * dv)
    return vec - basis @ (basis.T @ vec)


def span_residual(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Component of ``vec`` (a vector, or each column of an (n, k) block)
    outside the column span of ``basis``.

    Uses plain least squares (float) or exact normal equations; never raises
    for vectors outside the span — callers inspect the returned residual.
    """
    if basis.shape[1] == 0:
        return vec
    if is_exact(basis):
        coeff = exact_solve(exact_matmul(basis.T, basis), exact_matmul(basis.T, vec))
    else:
        coeff, *_ = np.linalg.lstsq(
            np.asarray(basis, dtype=float), np.asarray(vec, dtype=float), rcond=None
        )
    return vec - matmul(basis, coeff)


def norm(v) -> float:
    """Euclidean norm usable in both modes (exact values go through float)."""
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


def metric_norm(v: np.ndarray, gram: np.ndarray) -> float:
    return float(np.sqrt(max(float(v @ gram @ v), 0.0)))
