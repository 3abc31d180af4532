"""Exact linear algebra over the integers for membership certificates.

solve_integer finds integer solutions of A x = b by unimodular column
reduction to echelon form (gcd pivoting, no fractions anywhere) followed by
forward substitution with divisibility checks; the reduction is shared
across right-hand sides.

feasible_mod_p is a sound pre-filter on sparse {row key: int} columns and
targets: modulo a fixed prime, the columns are reduced to an echelon basis
keyed by leading (largest) row key, and each target is top-reduced against
it.  "Not in the span mod p" implies "no integer solution"; the converse may
fail, in which case the exact solver simply does the work.
"""

from __future__ import annotations

# Mersenne prime 2^31 - 1.
FILTER_PRIME = 2147483647


def _echelon_transposed(a_rows, ncols):
    """Column echelon form of A via row ops on R = A^T.

    Returns (R, E, pivots) with R = E @ A^T, E unimodular, and pivots a list
    of (row_of_A, row_of_R) pairs in processing order.  After the sweep every
    non-pivot row of R is identically zero, so the pivot entries alone decide
    solvability.
    """
    m = len(a_rows)
    n = ncols
    R = [[a_rows[i][j] for i in range(m)] for j in range(n)]
    E = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for col in range(m):
        if r == n:
            break
        while True:
            live = [i for i in range(r, n) if R[i][col] != 0]
            if len(live) <= 1:
                break
            base = min(live, key=lambda i: abs(R[i][col]))
            bv = R[base][col]
            for i in live:
                if i == base:
                    continue
                q = R[i][col] // bv
                if q:
                    Ri, Rb = R[i], R[base]
                    R[i] = [x - q * y for x, y in zip(Ri, Rb)]
                    Ei, Eb = E[i], E[base]
                    E[i] = [x - q * y for x, y in zip(Ei, Eb)]
        live = [i for i in range(r, n) if R[i][col] != 0]
        if not live:
            continue
        i = live[0]
        if i != r:
            R[r], R[i] = R[i], R[r]
            E[r], E[i] = E[i], E[r]
        if R[r][col] < 0:
            R[r] = [-x for x in R[r]]
            E[r] = [-x for x in E[r]]
        pivots.append((col, r))
        r += 1
    return R, E, pivots


class IntegerSolver:
    """Reduces A once and answers A x = b for many right-hand sides."""

    def __init__(self, a_rows, ncols: int):
        self.a_rows = [list(r) for r in a_rows]
        self.ncols = ncols
        self.R, self.E, self.pivots = _echelon_transposed(self.a_rows, ncols)

    def solve(self, b):
        """An integer solution of A x = b, or None."""
        m = len(self.a_rows)
        residual = list(b)
        if len(residual) != m:
            raise ValueError("right-hand side has wrong length")
        y = [0] * self.ncols
        for k, (arow, _) in enumerate(self.pivots):
            piv = self.R[k][arow]
            v = residual[arow]
            if v % piv:
                return None
            yk = v // piv
            if yk:
                y[k] = yk
                Rk = self.R[k]
                for i in range(m):
                    residual[i] -= yk * Rk[i]
        if any(residual):
            return None
        x = [0] * self.ncols
        for k in range(len(self.pivots)):
            if y[k]:
                Ek = self.E[k]
                for i in range(self.ncols):
                    x[i] += y[k] * Ek[i]
        return x


def solve_integer(a_rows, b, ncols: int | None = None):
    """One-shot integer solve of A x = b (None when unsolvable over Z)."""
    if ncols is None:
        ncols = len(a_rows[0]) if a_rows else 0
    return IntegerSolver(a_rows, ncols).solve(b)


def _reduce_mod_p(v: dict, basis: dict, p: int) -> dict:
    """v mod p top-reduced against basis: empty exactly when v is in its span."""
    v = {k: c % p for k, c in v.items() if c % p}
    while v:
        lead = max(v)
        piv = basis.get(lead)
        if piv is None:
            break
        c = v[lead]
        for k, x in piv.items():
            v[k] = (v.get(k, 0) - c * x) % p
            if not v[k]:
                del v[k]
    return v


def feasible_mod_p(columns, targets):
    """For each target: False = certainly unsolvable over Z, True = maybe."""
    p = FILTER_PRIME
    basis = {}  # leading row key -> reduced column with leading coefficient 1
    for col in columns:
        v = _reduce_mod_p(col, basis, p)
        if v:
            lead = max(v)
            inv = pow(v[lead], -1, p)
            basis[lead] = {k: x * inv % p for k, x in v.items()}
    return [not _reduce_mod_p(t, basis, p) for t in targets]
