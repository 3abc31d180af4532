import random
from fractions import Fraction

from p1homotopy.linsolve import IntegerSolver, feasible_mod_p, solve_integer


def mat_vec(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def sparse(rows, rhs_list):
    """Dense rows and right-hand sides as the filter's sparse columns and
    targets, keyed by row index."""
    ncols = len(rows[0]) if rows else 0
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
    targets = [{i: v for i, v in enumerate(b) if v} for b in rhs_list]
    return columns, targets


def in_span(columns, targets):
    """The filter's verdict with every column in one layer: True = maybe
    solvable, False = certainly not."""
    return [n is not None for n in feasible_mod_p([columns], targets)]


def rank_q(rows):
    """Rank over Q by Gaussian elimination in Fractions."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
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
    solver = IntegerSolver(rows, 5)
    for _ in range(10):
        x0 = [rng.randint(-3, 3) for _ in range(5)]
        b = mat_vec(rows, x0)
        x = solver.solve(b)
        assert x is not None and mat_vec(rows, x) == b


def test_filter_is_sound():
    # the modular filter never rejects a solvable system
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(rows, x0)
        assert in_span(*sparse(rows, [b])) == [True]


def test_filter_detects_rank_obstructions():
    # x = 1 and x = 2 simultaneously: infeasible mod every prime
    assert in_span(*sparse([[1], [1]], [[1, 2], [0, 0]])) == [False, True]


def test_filter_agrees_with_rank_over_q():
    # entries |a| <= 6 and at most 5 rows: every minor of [A | b] is below
    # 6^5 * 5^(5/2) < FILTER_PRIME, so the verdict mod p is the verdict over Q
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-6, 6) for _ in range(m)]
        over_q = rank_q(rows) == rank_q([row + [v] for row, v in zip(rows, b)])
        assert in_span(*sparse(rows, [b])) == [over_q]
        verdicts.add(over_q)
    assert verdicts == {True, False}


def test_empty_shapes():
    assert solve_integer([], [], ncols=0) == []
    assert in_span(*sparse([], [[]])) == [True]


def test_least_prefix_agrees_with_rank_over_q():
    # layers of random columns (entries |a| <= 6, at most 5 rows, so the
    # verdict mod p is the verdict over Q): the reported prefix length is
    # the first k whose columns span b, by a Fraction rank test per prefix
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
            return rank_q(rows) == rank_q([r + [v] for r, v in zip(rows, b)])

        expect = [next((k for k in range(len(layers) + 1) if spans(k, b)), None) for b in targets]
        columns = [[{i: v for i, v in enumerate(c) if v} for c in layer] for layer in layers]
        got = feasible_mod_p(columns, [{i: v for i, v in enumerate(b) if v} for b in targets])
        assert got == expect
        seen.update(expect)
    assert None in seen and 0 in seen and {1, 2, 3, 4} & seen == {1, 2, 3, 4}
