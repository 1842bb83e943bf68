import random
from fractions import Fraction

import pytest

from pcsf import simplex
from pcsf.simplex import LpInfeasible, LpUnbounded, solve_max, solve_min


def test_tiny_min():
    # min x0 + x1 s.t. x0 + x1 >= 1
    sol = solve_min(2, [Fraction(1), Fraction(1)], [{0: 1, 1: 1}], [">="], [1])
    assert sol.objective == 1
    assert sol.duals == [Fraction(1)]


def test_tiny_max():
    # max x0 s.t. x0 <= 5/2
    sol = solve_max(1, [Fraction(1)], [{0: 1}], ["<="], [Fraction(5, 2)])
    assert sol.objective == Fraction(5, 2)
    assert sol.x == [Fraction(5, 2)]


def test_equality_and_negative_rhs():
    # min x0 with x0 - x1 = -2  ->  x1 = x0 + 2, optimum x0 = 0
    sol = solve_min(2, [Fraction(1), Fraction(0)], [{0: 1, 1: -1}], ["="], [-2])
    assert sol.objective == 0
    assert sol.x[1] == 2


def test_infeasible():
    with pytest.raises(LpInfeasible):
        solve_min(1, [Fraction(1)], [{0: 1}, {0: 1}], ["<=", ">="], [1, 2])


def test_unbounded():
    with pytest.raises(LpUnbounded):
        solve_min(1, [Fraction(-1)], [{0: -1}], ["<="], [0])


def test_no_rows():
    sol = solve_min(2, [Fraction(1), Fraction(2)], [], [], [])
    assert sol.objective == 0
    with pytest.raises(LpUnbounded):
        solve_min(1, [Fraction(-1)], [], [], [])


def test_duals_sign_convention():
    # min x0 s.t. x0 >= 3 and x0 <= 10: only the '>=' row binds
    sol = solve_min(1, [Fraction(1)], [{0: 1}, {0: 1}], [">=", "<="], [3, 10])
    assert sol.objective == 3
    assert sol.duals[0] == 1 and sol.duals[1] == 0


def test_exact_fractions_survive():
    sol = solve_min(1, [Fraction(1)], [{0: Fraction(3, 7)}], [">="], [Fraction(1)])
    assert sol.x[0] == Fraction(7, 3)


def test_certified_path_matches_exact_fallback():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rng.randint(1, 7)
        c = [Fraction(rng.randint(0, 9)) for _ in range(n)]
        rows, senses, rhs = [], [], []
        for _ in range(m):
            row = {j: Fraction(rng.randint(-3, 4))
                   for j in rng.sample(range(n), rng.randint(1, n))}
            row = {j: v for j, v in row.items() if v}
            if not row:
                continue
            rows.append(row)
            senses.append(rng.choice(["<=", ">=", "="]))
            rhs.append(Fraction(rng.randint(-4, 6)))
        try:
            fast = solve_min(n, c, rows, senses, rhs).objective
        except LpInfeasible:
            fast = "infeasible"
        except LpUnbounded:
            fast = "unbounded"
        A, cost, b, flip, ncols, _ = simplex._standardize(n, c, rows, senses, rhs)
        try:
            slow = simplex._exact_simplex(A, cost, b, ncols)[1]
        except LpInfeasible:
            slow = "infeasible"
        except LpUnbounded:
            slow = "unbounded"
        assert fast == slow


def test_float_pivot_limit_is_not_optimal(monkeypatch):
    rows = [{0: 2, 1: 1}, {0: 1, 1: 3}]
    args = (2, [Fraction(4), Fraction(5)], rows, [">=", ">="], [3, 4])
    exact = solve_min(*args)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    A, cost, b, _, ncols, _ = simplex._standardize(*args)
    status, _ = simplex._float_simplex(A, cost, b, ncols)
    assert status == "pivot_limit"
    capped = solve_min(*args)
    assert (capped.objective, capped.x, capped.duals) == (exact.objective, exact.x, exact.duals)


def test_duals_certify_objective():
    # strong duality: b.y == c.x on a random-ish feasible min problem
    rows = [{0: 2, 1: 1}, {0: 1, 1: 3}]
    sol = solve_min(2, [Fraction(4), Fraction(5)], rows, [">=", ">="], [3, 4])
    assert sum(Fraction(b) * y for b, y in zip([3, 4], sol.duals)) == sol.objective
