"""Exact linear algebra over the integers for membership certificates.

IntegerSolver finds integer solutions of A x = b by unimodular column
reduction to echelon form (gcd pivoting, no fractions anywhere) followed by
forward substitution with divisibility checks; the reduction is shared
across right-hand sides.  solve_integer is a one-shot adapter from dense
rows.

The system is given by its sparse {row key: int} columns; the keys are the
caller's, must sort, and their order is the sweep's pivot order.  Every row
of the reduction is sparse too: R = A^T and the unimodular E are lists of
dicts from row keys and from columns to nonzero ints, and a column -> live
rows index finds the rows that are nonzero at a column in time proportional
to their number.  A row operation costs the nonzeros of the pivot row, not
the width of the system, so the work follows the fill-in rather than rows
times columns (sparse elimination as in Dumas, Saunders and Villard, J.
Symbolic Comput. 32, 2001).  The pivot rule is the dense one: the smallest
|entry|, ties to the lowest position, and the lowest live row swapped into
place, so R, E and the pivots are the dense sweep's entry for entry and the
certificates do not depend on the representation.

feasible_mod_p is a sound pre-filter over F_2 or F_3.  Over F_2 columns
and targets are int bitsets (bit i holds row i mod 2), over F_3 pairs (h, l)
of bitsets (bit i of l set where entry i is 1, of h where it is 2).  The
columns are reduced layer by layer to an echelon basis keyed by leading
(highest) bit, as in the Macaulay matrices of F4 (Faugere, J. Pure Appl.
Algebra 139, 1999) packed into machine words as in M4RI (Albrecht, Bard and
Hart, ACM TOMS 37, 2010): a step is one XOR over F_2, and seven OR/XOR over
F_3, where negation swaps the pair and each pivot is normalised to leading
coefficient 1 (after Kawahara, Aoki and Takagi, 2008, and Boothby and
Bradshaw, 2009).  Each target is top-reduced against the basis.  The
leading bits are distinct, so a target lies in the span of the first k
layers exactly when its reduction uses only basis vectors born in them.  An
integer solution reduces mod p, so "not in that span mod p" implies "no
integer solution from those columns"; the converse may fail.
"""

from __future__ import annotations

def _echelon_transposed(rows, ncols):
    """Column echelon form of A via row ops on R = A^T.

    rows are the ncols columns of A as sparse {row key: int} dicts, that
    is the rows of R.  Returns (R, E, pivots) with R = E @ A^T as lists of
    sparse rows in position order, E unimodular, and pivots a list of
    (row key, row of R) pairs in sorted key order.  After the sweep every
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
    answers A x = b for many right-hand sides.  The keys are the caller's
    and must sort; their order is the sweep's pivot order."""

    def __init__(self, columns):
        self.R, self.E, self.pivots = _echelon_transposed(columns, len(columns))

    def solve(self, b):
        """An integer solution of A x = b as a sparse {column: int}, b a
        sparse {row key: int}; None when there is none."""
        residual = {key: v for key, v in b.items() if v}
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


def feasible_mod_p(layers, targets, p=2):
    """Per target, the length of the shortest prefix of layers (lists of
    columns) whose span mod p holds it, or None when no prefix does: None
    means certainly unsolvable over Z with all the columns.  p is 2 (int
    bitsets) or 3 ((h, l) pairs of bitsets)."""
    if p == 3:
        return _feasible_mod_3(layers, targets)
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


def _feasible_mod_3(layers, targets):
    """feasible_mod_p over F_3, every pivot with leading coefficient 1."""
    basis, out = {}, []  # leading bit -> (h, l, layers to reach it)
    for born, layer in enumerate([*layers, targets], start=1):  # targets last, never in the basis
        for h, l in layer:
            used = 0  # the latest layer among the basis vectors the reduction uses
            while (lead := (h | l).bit_length() - 1) in basis:
                bh, bl, b = basis[lead]
                if h.bit_length() <= lead:  # a leading 1: add the pivot's negation
                    bh, bl = bl, bh
                t = (l | bh) ^ (h | bl)
                h, l = (l | bl) ^ t, (h | bh) ^ t
                if b > used:
                    used = b
            if born > len(layers):
                out.append(None if lead >= 0 else used)
            elif lead >= 0:
                basis[lead] = (l, h, born) if h.bit_length() > lead else (h, l, born)
    return out
