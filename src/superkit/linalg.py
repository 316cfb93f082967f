"""Dense linear algebra over exact scalars (and a float fallback).

Row reduction is plain Gauss-Jordan elimination: each pivot row is divided by
its pivot and cleared from every other row in the entries' own arithmetic
(exact QC division for exact input), so it is not fraction-free.  That is
fine at the 16-, 32- and few-hundred-row sizes this package ever sees.  The
elimination is sparse-aware: it skips the exact zeros of each pivot row, so
it divides only the other entries and updates the other rows only at those
columns, in place on its copy of the input.  Since ``a - f*0 == a`` for an
exact zero, the result is the dense one; float entries are never skipped, so
float results match the dense elimination bit for bit, signed zeros included.
Entries may be QC, Fraction, int, or python complex -- anything supporting
+, -, *, / and a zero test via :func:`superkit.exactnum.scal_is_zero`.
"""

from __future__ import annotations

from .exactnum import QC, coerce, scal_is_zero


def _clone(mat):
    return [[coerce(x) for x in row] for row in mat]


def row_echelon(mat, tol=0.0):
    """Reduce a copy of `mat`; return (matrix, pivot column list)."""
    m = _clone(mat)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if not scal_is_zero(m[i][c], tol):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        inv = prow[c]
        # skip exact zeros only: a float entry, even one below tol, is still used
        nonzero = [j for j, x in enumerate(prow) if x or type(x) is not QC]
        for j in nonzero:
            prow[j] = prow[j] / inv
        for i in range(rows):
            row = m[i]
            f = row[c]
            if i != r and not scal_is_zero(f, tol):
                for j in nonzero:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat, tol=0.0):
    return len(row_echelon(mat, tol)[1])


def null_space(mat, tol=0.0):
    """Basis of the right null space, as a list of column vectors."""
    if not mat:
        return []
    rref, pivots = row_echelon(mat, tol)
    cols = len(mat[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [QC(0)] * cols
        v[fc] = QC(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    zero = coerce(0)
    out = [[zero] * cols for _ in range(rows)]
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            x = arow[k]
            if scal_is_zero(x):
                continue
            brow = b[k]
            for j in range(cols):
                y = brow[j]
                if not scal_is_zero(y):
                    orow[j] = orow[j] + x * y
    return out


def same_span(basis_a, basis_b):
    """True iff the two lists of vectors span the same subspace, by exact
    rank: any nonzero entry counts."""
    return rank(basis_a) == rank(basis_b) == rank([*basis_a, *basis_b])
