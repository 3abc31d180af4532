import random
import signal

from p1homotopy.linsolve import IntegerSolver, _echelon_transposed, feasible_mod_p, solve_integer


def mat_vec(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


# ---------------------------------------------------------------------------
# A dense reference that shares no code with the engine: the column echelon
# and forward substitution as dense row operations on full R = A^T and E rows.


def reference_echelon(a_rows, ncols):
    """(R, E, pivots) with R = E @ A^T, E unimodular: pivot on the smallest
    |entry| (ties to the lowest position), swap the lowest live row into
    place, and make the pivot positive."""
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
                    R[i] = [x - q * y for x, y in zip(R[i], R[base])]
                    E[i] = [x - q * y for x, y in zip(E[i], E[base])]
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


def reference_solve(a_rows, b, ncols):
    """A dense integer solution of A x = b from reference_echelon, or None."""
    R, E, pivots = reference_echelon(a_rows, ncols)
    residual = list(b)
    y = [0] * ncols
    for k, (arow, _) in enumerate(pivots):
        piv = R[k][arow]
        v = residual[arow]
        if v % piv:
            return None
        y[k] = v // piv
        residual = [x - y[k] * c for x, c in zip(residual, R[k])]
    if any(residual):
        return None
    return [sum(y[k] * E[k][i] for k in range(len(pivots))) for i in range(ncols)]


def dense(rows, width):
    return [[row.get(i, 0) for i in range(width)] for row in rows]


def det(mat):
    """Determinant by cofactor expansion along the first row (small n)."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * v * det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j, v in enumerate(mat[0]) if v
    )


def random_sparse_rows(rng, m, n):
    """An m x n integer matrix, mostly zeros, with negative entries, entries
    of equal |value|, and some all-zero rows and columns."""
    zero_rows = {i for i in range(m) if rng.random() < 0.15}
    zero_cols = {j for j in range(n) if rng.random() < 0.15}
    return [
        [
            0 if i in zero_rows or j in zero_cols or rng.random() < 0.7
            else rng.choice([-3, -2, -2, -1, 1, 2, 2, 3, 5])
            for j in range(n)
        ]
        for i in range(m)
    ]


def sparse(rows, rhs_list):
    """Dense rows and right-hand sides as sparse columns and right-hand
    sides keyed by row index."""
    ncols = len(rows[0]) if rows else 0
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
    targets = [{i: v for i, v in enumerate(b) if v} for b in rhs_list]
    return columns, targets


def bits(vector):
    """An integer vector mod 2 as the filter's bitset: bit i is entry i."""
    return sum(1 << i for i, v in enumerate(vector) if v % 2)


def in_span(rows, rhs_list):
    """The filter's verdict on dense rows with every column in one layer:
    True = maybe solvable, False = certainly not."""
    ncols = len(rows[0]) if rows else 0
    columns = [bits([row[j] for row in rows]) for j in range(ncols)]
    return [n is not None for n in feasible_mod_p([columns], [bits(b) for b in rhs_list])]


def rank_f2(rows):
    """Rank over F_2 by Gaussian elimination on plain lists of 0 and 1."""
    m = [[v % 2 for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_simple_solvable():
    assert solve_integer([[2]], [4]) == [2]
    assert solve_integer([[2]], [3]) is None


def test_divisibility_matters():
    # x + y = 1 has integer solutions; 2x + 2y = 1 does not
    assert solve_integer([[1, 1]], [1]) is not None
    assert solve_integer([[2, 2]], [1]) is None
    assert solve_integer([[2, 2]], [4]) is not None


def test_inconsistent():
    rows = [[1, 0], [1, 0]]
    assert solve_integer(rows, [1, 2]) is None


def test_underdetermined_gcd():
    # 6x + 10y = 2 = gcd(6, 10): solvable over Z but not coordinate-wise
    x = solve_integer([[6, 10]], [2])
    assert x is not None and 6 * x[0] + 10 * x[1] == 2


def test_planted_solutions_random():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        b = mat_vec(rows, x0)
        x = solve_integer(rows, b)
        assert x is not None
        assert mat_vec(rows, x) == b


def test_multiple_rhs_share_reduction():
    rng = random.Random(7)
    rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
    columns, _ = sparse(rows, [])
    solver = IntegerSolver(columns)
    for _ in range(10):
        x0 = [rng.randint(-3, 3) for _ in range(5)]
        b = mat_vec(rows, x0)
        x = solver.solve(dict(enumerate(b)))
        assert x is not None and mat_vec(rows, [x.get(j, 0) for j in range(5)]) == b


def test_filter_is_sound():
    # the filter mod 2 never rejects a system solvable over Z
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(rows, x0)
        assert in_span(rows, [b]) == [True]


def test_filter_detects_rank_obstructions():
    # x = 1 and x = 2 simultaneously: infeasible mod every prime
    assert in_span([[1], [1]], [[1, 2], [0, 0]]) == [False, True]
    # 2x = 1: solvable mod every odd prime, so a filter mod 2^31 - 1 passed
    # it; mod 2 the column vanishes and the target is rejected
    assert feasible_mod_p([[bits([2])]], [bits([1])]) == [None]


def test_filter_agrees_with_rank_over_q():
    # the filter works over F_2, so its verdict is the rank test over F_2 for
    # every entry size (the prime filter matched rank over Q only for small
    # entries); and a rejected system has no integer solution
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-6, 6) for _ in range(m)]
        over_f2 = rank_f2(rows) == rank_f2([row + [v] for row, v in zip(rows, b)])
        assert in_span(rows, [b]) == [over_f2]
        if not over_f2:
            assert reference_solve(rows, b, n) is None
        verdicts.add(over_f2)
    assert verdicts == {True, False}


def test_empty_shapes():
    assert solve_integer([], [], ncols=0) == []
    assert in_span([], [[]]) == [True]


def test_least_prefix_agrees_with_rank_over_q():
    # layers of random columns (entries |a| <= 6, at most 5 rows): the
    # reported prefix length is the first k whose columns span b mod 2, by
    # a rank test over F_2 per prefix
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        m = rng.randint(1, 5)
        sizes = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
        layers = [[[rng.randint(-6, 6) for _ in range(m)] for _ in range(s)] for s in sizes]
        targets = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(3)]
        targets.append([0] * m)
        if rng.random() < 0.5:  # a target inside some prefix's span
            k = rng.randrange(len(layers))
            cols = [c for layer in layers[: k + 1] for c in layer]
            targets.append([sum(rng.randint(-2, 2) * c[i] for c in cols) for i in range(m)])

        def spans(k, b):
            cols = [c for layer in layers[:k] for c in layer]
            rows = [[c[i] for c in cols] for i in range(m)]
            return rank_f2(rows) == rank_f2([r + [v] for r, v in zip(rows, b)])

        expect = [next((k for k in range(len(layers) + 1) if spans(k, b)), None) for b in targets]
        got = feasible_mod_p([[bits(c) for c in layer] for layer in layers], [bits(b) for b in targets])
        assert got == expect
        seen.update(expect)
    assert None in seen and 0 in seen and {1, 2, 3, 4} & seen == {1, 2, 3, 4}


def trits(vector):
    """An integer vector mod 3 as the filter's (h, l) pair: bit i of l is set
    where entry i is 1 mod 3, bit i of h where it is 2."""
    return bits([v % 3 == 2 for v in vector]), bits([v % 3 == 1 for v in vector])


def rank_f3(rows):
    """Rank over F_3 by Gaussian elimination on plain lists of 0, 1 and 2."""
    m = [[v % 3 for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]  # 1 and 2 are their own inverses mod 3
        m[rank] = [x * inv % 3 for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % 3 for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _out_of_time(signum, frame):
    raise TimeoutError("the reduction mod 3 did not finish")


def test_filter_mod_3_agrees_with_rank_over_f3():
    # layers of random columns (entries |a| <= 6, at most 6 rows): the
    # reported prefix length is the first k whose columns span b mod 3, by a
    # rank test over F_3 per prefix; a target rejected mod 3 has no integer
    # solution.  A pivot left with leading coefficient 2 makes the reduction
    # cycle forever, so the test fails itself after 30 s (it takes well under
    # one)
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(30)
    try:
        check_filter_mod_3()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def check_filter_mod_3():
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        m = rng.randint(1, 6)
        sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        layers = [[[rng.randint(-6, 6) for _ in range(m)] for _ in range(s)] for s in sizes]
        targets = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(3)]
        targets.append([0] * m)
        if rng.random() < 0.5:  # a target inside some prefix's span
            k = rng.randrange(len(layers))
            cols = [c for layer in layers[: k + 1] for c in layer]
            targets.append([sum(rng.randint(-2, 2) * c[i] for c in cols) for i in range(m)])

        def spans(k, b):
            cols = [c for layer in layers[:k] for c in layer]
            rows = [[c[i] for c in cols] for i in range(m)]
            return rank_f3(rows) == rank_f3([r + [v] for r, v in zip(rows, b)])

        expect = [next((k for k in range(len(layers) + 1) if spans(k, b)), None) for b in targets]
        got = feasible_mod_p([[trits(c) for c in layer] for layer in layers], [trits(b) for b in targets], 3)
        assert got == expect
        cols = [c for layer in layers for c in layer]
        for b, k in zip(targets, got):
            if k is None:
                assert reference_solve([[c[i] for c in cols] for i in range(m)], b, len(cols)) is None
        seen.update(expect)
    assert None in seen and 0 in seen and {1, 2, 3, 4} & seen == {1, 2, 3, 4}


def test_sparse_echelon_equals_the_dense_reference():
    # entry for entry: R, E and the pivots of the sparse sweep, densified,
    # are the reference's; and R = E A^T with E unimodular
    rng = random.Random(2024)
    seen = set()
    for _ in range(400):
        m, n = rng.randint(0, 9), rng.randint(0, 12)
        rows = random_sparse_rows(rng, m, n)
        columns = [{i: rows[i][j] for i in range(m) if rows[i][j]} for j in range(n)]
        R, E, pivots = _echelon_transposed(columns, n)
        R, E = dense(R, m), dense(E, n)
        assert (R, E, pivots) == reference_echelon(rows, n)
        assert [[sum(e[k] * rows[i][k] for k in range(n)) for i in range(m)] for e in E] == R
        if n <= 6:
            assert abs(det(E)) == 1
        nonzero = [[v for v in row if v] for row in rows]
        seen.update(
            label for label, hit in [
                ("more columns than rows", n > m),
                ("zero row", any(not row for row in nonzero)),
                ("zero column", any(not any(row[j] for row in rows) for j in range(n))),
                ("negative entry", any(v < 0 for row in nonzero for v in row)),
                ("tie in |entry|", any(len({abs(v) for v in row}) < len(row) for row in nonzero)),
            ] if hit
        )
    assert len(seen) == 5


def test_sparse_solutions_equal_the_dense_reference():
    # the same solution, not just a solution, for solvable and unsolvable b
    rng = random.Random(77)
    outcomes = set()
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 10)
        rows = random_sparse_rows(rng, m, n)
        if rng.random() < 0.5:
            b = mat_vec(rows, [rng.randint(-3, 3) for _ in range(n)])
        else:
            b = [rng.choice([0, 0, 1, -2, 3]) for _ in range(m)]
        x = solve_integer(rows, b, n)
        assert x == reference_solve(rows, b, n)
        if x is not None:
            assert mat_vec(rows, x) == b
        outcomes.add(x is None)
    assert outcomes == {True, False}
