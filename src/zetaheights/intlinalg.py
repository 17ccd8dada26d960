"""Exact matrix helpers: one integer routine and one F_p routine.

hnf brings an integer lattice to an upper-triangular Hermite basis, on
which fields solves for coordinates and reads indices by triangular
substitution; rref_mod_p reduces over F_p, and nullspace_mod_p reads
kernels off it. Everything works on lists of lists of Python ints;
matrices stay small (n <= 16 for the fields handled here), so clarity
beats asymptotics.
"""

from __future__ import annotations


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf(rows, n=None):
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns an upper-triangular n x n basis (positive diagonal, entries
    above each pivot reduced). Requires the span to have full rank n.
    """
    if n is None:
        n = len(rows[0])
    work = [row[:] for row in rows if any(row)]
    basis = [None] * n
    for row in work:
        _hnf_insert(basis, row, n)
    if any(b is None for b in basis):
        raise ValueError("lattice does not have full rank")
    # reduce entries above each pivot
    for i in range(n - 1, -1, -1):
        piv = basis[i][i]
        for k in range(i):
            q = basis[k][i] // piv
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def _hnf_insert(basis, row, n):
    row = row[:]
    for j in range(n):
        if row[j] == 0:
            continue
        if basis[j] is None:
            if row[j] < 0:
                row = [-x for x in row]
            basis[j] = row
            return
        # reduce row against the pivot at column j via gcd steps
        a, b = basis[j][j], row[j]
        while b:
            q = a // b
            basis[j], row = row, [x - q * y for x, y in zip(basis[j], row)]
            a, b = basis[j][j], row[j]
        if basis[j][j] < 0:
            basis[j] = [-x for x in basis[j]]
    return


def rref_mod_p(rows, p):
    """Reduced row echelon form over F_p: (reduced_rows, pivot_cols).

    reduced_rows are the nonzero rows of the RREF of `rows`, in pivot order;
    each has a 1 at its pivot column and 0 at every other pivot column.
    """
    a = [[x % p for x in row] for row in rows]
    cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def nullspace_mod_p(m, p):
    """Basis of the right nullspace of matrix m over F_p (rows of output)."""
    if not m:
        return []
    reduced, pivots = rref_mod_p(m, p)
    cols = len(m[0])
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [0] * cols
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = (-row[fc]) % p
        basis.append(vec)
    return basis

