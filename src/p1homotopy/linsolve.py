"""Exact linear algebra over the integers for membership certificates.

IntegerSolver finds integer solutions of A x = b by unimodular column
reduction to echelon form (gcd pivoting, no fractions anywhere) followed by
forward substitution with divisibility checks; the reduction is shared
across right-hand sides.  solve_integer is a one-shot adapter from dense
rows.

The system is given by its sparse {row key: int} columns, and every row of
the reduction is sparse too: R = A^T and the unimodular E are lists of
{index: nonzero int} dicts, and a column -> live rows index finds the rows
that are nonzero at a column in time proportional to their number.  A row
operation costs the nonzeros of the pivot row, not the width of the system,
so the work follows the fill-in rather than rows times columns (sparse
elimination as in Dumas, Saunders and Villard, J. Symbolic Comput. 32, 2001).
The pivot rule is the dense one: the smallest |entry|, ties to the lowest
position, and the lowest live row swapped into place, so R, E and the pivots
are the dense sweep's entry for entry and the certificates do not depend on
the representation.

feasible_mod_p is a sound pre-filter over F_2.  Columns and targets are
int bitsets (bit i holds row i mod 2); the columns are reduced layer by
layer to an echelon basis keyed by leading (highest) bit, a reduction step
being one XOR, as in the Macaulay matrices of F4 (Faugere, J. Pure Appl.
Algebra 139, 1999) packed into machine words as in M4RI (Albrecht, Bard and
Hart, ACM TOMS 37, 2010).  Each target is top-reduced against the basis.
The leading bits are distinct, so a target lies in the span of the first k
layers exactly when its reduction uses only basis vectors born in them.  An
integer solution reduces mod 2, so "not in that span mod 2" implies "no
integer solution from those columns"; the converse may fail.  The name
says mod p because callers and tracers know the filter by it.
"""

from __future__ import annotations

def _echelon_transposed(rows, ncols):
    """Column echelon form of A via row ops on R = A^T.

    rows are the ncols columns of A as sparse {row of A: int} dicts, that
    is the rows of R.  Returns (R, E, pivots) with R = E @ A^T as lists of
    sparse rows in position order, E unimodular, and pivots a list of
    (row_of_A, row_of_R) pairs in processing order.  After the sweep every
    non-pivot row of R is identically zero, so the pivot entries alone
    decide solvability.
    """
    R = [{c: v for c, v in row.items() if v} for row in rows]
    E = [{j: 1} for j in range(ncols)]
    at = list(range(ncols))  # position -> row
    pos = list(range(ncols))  # row -> position
    live_at = {}  # row of A -> the non-pivot rows of R nonzero there
    for i, row in enumerate(R):
        for c in row:
            live_at.setdefault(c, set()).add(i)
    pivots = []
    r = 0
    for col in sorted(live_at):
        if r == ncols:
            break
        live = live_at[col]
        while len(live) > 1:
            base = min(live, key=lambda i: (abs(R[i][col]), pos[i]))
            Rb, Eb = R[base], E[base]
            bv = Rb[col]
            for i in [i for i in live if i != base]:
                q = R[i][col] // bv
                if not q:
                    continue
                Ri = R[i]
                for c, y in Rb.items():
                    v = Ri.get(c)
                    if v is None:
                        Ri[c] = -q * y
                        live_at[c].add(i)
                    else:
                        v -= q * y
                        if v:
                            Ri[c] = v
                        else:
                            del Ri[c]
                            live_at[c].discard(i)
                Ei = E[i]
                for c, y in Eb.items():
                    v = Ei.get(c, 0) - q * y
                    if v:
                        Ei[c] = v
                    else:
                        del Ei[c]
        if not live:
            continue
        (i,) = live
        p, other = pos[i], at[r]
        at[r], at[p], pos[i], pos[other] = i, other, r, p
        if R[i][col] < 0:
            R[i] = {c: -v for c, v in R[i].items()}
            E[i] = {c: -v for c, v in E[i].items()}
        for c in R[i]:
            live_at[c].discard(i)
        pivots.append((col, r))
        r += 1
    return [R[i] for i in at], [E[i] for i in at], pivots


class IntegerSolver:
    """Reduces A, given by its sparse {row key: int} columns, once and
    answers A x = b for many right-hand sides."""

    def __init__(self, columns):
        keys = sorted(set().union(*columns))
        self.row_of = {key: i for i, key in enumerate(keys)}
        rows = [{self.row_of[k]: v for k, v in col.items()} for col in columns]
        self.R, self.E, self.pivots = _echelon_transposed(rows, len(rows))

    def solve(self, b):
        """An integer solution of A x = b as a sparse {column: int}, b a
        sparse {row key: int}; None when there is none."""
        residual = {}
        for key, v in b.items():
            if v:
                if key not in self.row_of:
                    return None  # a row no column reaches
                residual[self.row_of[key]] = v
        y = []
        for k, (arow, _) in enumerate(self.pivots):
            v = residual.get(arow)
            if v is None:
                continue
            Rk = self.R[k]
            piv = Rk[arow]
            if v % piv:
                return None
            yk = v // piv
            y.append((k, yk))
            for i, c in Rk.items():
                w = residual.get(i, 0) - yk * c
                if w:
                    residual[i] = w
                else:
                    del residual[i]
        if residual:
            return None
        x = {}
        for k, yk in y:
            for i, e in self.E[k].items():
                x[i] = x.get(i, 0) + yk * e
        return {i: v for i, v in x.items() if v}


def solve_integer(a_rows, b, ncols: int | None = None):
    """One-shot integer solve of A x = b from dense rows: a dense solution,
    or None when unsolvable over Z."""
    if ncols is None:
        ncols = len(a_rows[0]) if a_rows else 0
    if len(b) != len(a_rows):
        raise ValueError("right-hand side has wrong length")
    columns = [{i: row[j] for i, row in enumerate(a_rows) if row[j]} for j in range(ncols)]
    x = IntegerSolver(columns).solve(dict(enumerate(b)))
    return None if x is None else [x.get(j, 0) for j in range(ncols)]


def feasible_mod_p(layers, targets):
    """Per target, the length of the shortest prefix of layers (lists of
    columns) whose span mod 2 holds it, or None when no prefix does: None
    means certainly unsolvable over Z with all the columns.  Columns and
    targets are int bitsets, bit i the entry of row i mod 2."""
    basis = {}  # leading bit -> (column, layers to reach it)
    for born, layer in enumerate(layers, start=1):
        for v in layer:
            while v and (lead := v.bit_length() - 1) in basis:
                v ^= basis[lead][0]
            if v:
                basis[lead] = (v, born)
    out = []
    for v in targets:
        used = 0  # the latest layer among the basis vectors the target uses
        while v and (lead := v.bit_length() - 1) in basis:
            piv, born = basis[lead]
            v, used = v ^ piv, max(used, born)
        out.append(None if v else used)
    return out
