import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsf import simplex
from pcsf.cutlp import matrix_rank_exact
from pcsf.simplex import LpError, LpInfeasible, LpUnbounded, solve_min


def test_tiny_min():
    # min x0 + x1 s.t. x0 + x1 >= 1
    sol = solve_min(2, [Fraction(1), Fraction(1)], [{0: 1, 1: 1}], [">="], [1])
    assert sol.objective == 1
    assert sol.duals == [Fraction(1)]


def test_tiny_max():
    # max x0 s.t. x0 <= 5/2, as min -x0
    sol = solve_min(1, [Fraction(-1)], [{0: 1}], ["<="], [Fraction(5, 2)])
    assert -sol.objective == Fraction(5, 2)
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
        A, cost, b, scale, flip, ncols, _, _ = simplex._standardize(n, c, rows, senses, rhs)
        try:
            slow = simplex._exact_simplex(A, cost, b, scale, ncols)[1]
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
    _, cost, _, _, _, _, _, M = simplex._standardize(*args)
    status, _ = simplex._float_simplex(M, cost)
    assert status == "pivot_limit"
    capped = solve_min(*args)
    assert (capped.objective, capped.x, capped.duals) == (exact.objective, exact.x, exact.duals)


def test_duals_certify_objective():
    # strong duality: b.y == c.x on a random-ish feasible min problem
    rows = [{0: 2, 1: 1}, {0: 1, 1: 3}]
    sol = solve_min(2, [Fraction(4), Fraction(5)], rows, [">=", ">="], [3, 4])
    assert sum(Fraction(b) * y for b, y in zip([3, 4], sol.duals)) == sol.objective


def test_rejects_unknown_sense_and_column():
    with pytest.raises(LpError, match="sense"):
        solve_min(1, [Fraction(1)], [{0: 1}], ["=="], [1])
    with pytest.raises(LpError, match="column"):
        solve_min(1, [Fraction(1)], [{1: 1}], [">="], [1])


@pytest.mark.parametrize("args", [
    (1, [1], [{0: 1}], [">=", ">="], [1, 5]),     # x >= 5 has no row
    (1, [1], [{0: 1}, {0: 1}], [">="], [1, 5]),   # a row without a sense
    (1, [1], [{0: 1}, {0: 1}], [">=", ">="], [1]),  # a row without a rhs
    (2, [1], [{0: 1}], [">="], [1]),              # a variable without a cost
    (1, [1, -1], [{0: 1}], [">="], [1]),          # a cost without a variable
    (1, [1, -1], [], [], []),                     # also with no rows
])
def test_rejects_mismatched_lengths(args):
    with pytest.raises(LpError, match="costs for"):
        solve_min(*args)


def outcome(solve):
    try:
        return solve()
    except LpInfeasible:
        return "infeasible"
    except LpUnbounded:
        return "unbounded"


@st.composite
def lps(draw):
    """Dense-ish LPs on 1..4 variables and 1..5 rows with rational
    coefficients (denominators up to 7) and every row sense."""
    frac = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 7))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    c = [draw(frac) for _ in range(n)]
    rows = [{j: draw(frac) for j in draw(st.sets(st.integers(0, n - 1), min_size=1))}
            for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    rhs = [draw(frac) for _ in range(m)]
    return n, c, rows, senses, rhs


@settings(derandomize=True, max_examples=400, deadline=None)
@given(lps())
def test_solve_min_against_exact_simplex(lp):
    n, c, rows, senses, rhs = lp
    sol = outcome(lambda: solve_min(*lp))
    A, cost, b, scale, _, ncols, _, _ = simplex._standardize(*lp)
    slow = outcome(lambda: simplex._exact_simplex(A, cost, b, scale, ncols))
    if isinstance(slow, str):
        assert sol == slow
        return
    assert sol.objective == slow[1]
    assert_optimal(lp, sol.x, sol.duals, sol.objective)


def assert_optimal(lp, x, duals, objective):
    """(x, duals) is a complete optimality certificate, checked exactly:
    x feasible, duals feasible, c.x = b.y = objective."""
    n, c, rows, senses, rhs = lp
    assert all(v >= 0 for v in x)
    for row, sense, bi, y in zip(rows, senses, rhs, duals):
        act = sum(a * x[j] for j, a in row.items())
        assert {"<=": act <= bi, ">=": act >= bi, "=": act == bi}[sense]
        assert {"<=": y <= 0, ">=": y >= 0, "=": True}[sense]
    for j in range(n):
        assert c[j] - sum(y * row.get(j, 0) for row, y in zip(rows, duals)) >= 0
    assert sum(cj * xj for cj, xj in zip(c, x)) == objective
    assert sum(bi * y for bi, y in zip(rhs, duals)) == objective


@pytest.mark.parametrize("bound", [simplex.MAX_DENOMINATOR, 1])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(lp=lps())
def test_certify_accepts_only_optimal_bases(bound, lp):
    """Every basis of the standard form is offered to the certificate; the
    ones it accepts must come with an exact optimality proof.  With the
    bound at 1 most reconstructed candidates are wrong and the exact check
    has to catch them."""
    A, cost, b, scale, flip, ncols, slack_cols, M = simplex._standardize(*lp)
    saved = simplex.MAX_DENOMINATOR
    simplex.MAX_DENOMINATOR = bound
    try:
        for basis in combinations(range(ncols), len(A)):
            result = simplex._certify(A, cost, b, scale, M, list(basis), slack_cols)
            if result is not None:
                x, obj, y = result
                assert_optimal(lp, x[:lp[0]], [-v if f else v for v, f in zip(y, flip)], obj)
    finally:
        simplex.MAX_DENOMINATOR = saved


def test_reconstruction_failure_falls_back_to_exact_simplex(monkeypatch):
    used = []
    run = simplex._exact_simplex

    def spy(*args):
        used.append(args)
        return run(*args)
    monkeypatch.setattr(simplex, "_exact_simplex", spy)

    # the optimum's denominator is past the reconstruction bound
    q = simplex.MAX_DENOMINATOR + 3
    sol = solve_min(1, [Fraction(1)], [{0: q}], [">="], [1])
    assert (sol.x, sol.objective, sol.duals) == ([Fraction(1, q)], Fraction(1, q), [Fraction(1, q)])
    assert len(used) == 1

    # with the bound at 1 only integers can be reconstructed
    used.clear()
    monkeypatch.setattr(simplex, "MAX_DENOMINATOR", 1)
    rows = [{0: 2, 1: 1}, {0: 1, 1: 3}]
    sol = solve_min(2, [Fraction(4), Fraction(5)], rows, [">=", ">="], [3, 4])
    assert (sol.x, sol.objective, sol.duals) == ([Fraction(1), Fraction(1)], 9, [Fraction(7, 5), Fraction(6, 5)])
    assert len(used) == 1


def reference_float_simplex(A, cost, b, scale, ncols):
    """The float simplex as first written, with a row-by-row pivot: the
    reference whose status and basis ``simplex._float_simplex`` must
    reproduce exactly."""
    m = len(A)
    total = ncols + m
    T = np.zeros((m, total + 1))
    for i, row in enumerate(A):
        for j, a in row.items():
            T[i, j] = float(Fraction(a, scale[i]))
        T[i, ncols + i] = 1.0
        T[i, total] = float(Fraction(b[i], scale[i]))
    basis = [ncols + i for i in range(m)]

    def pivot(r, col):
        T[r] /= T[r, col]
        for i in range(m):
            if i != r and abs(T[i, col]) > 1e-14:
                T[i] -= T[i, col] * T[r]

    def run(obj, allowed):
        for _ in range(simplex.MAX_PIVOTS):
            y = obj[basis]
            red = obj[:total] - y @ T[:, :total]
            red[~allowed] = np.inf
            col = int(np.argmin(red))
            if red[col] > -simplex.FLOAT_TOL:
                return "optimal"
            ratios = np.full(m, np.inf)
            ok = T[:, col] > simplex.FLOAT_TOL
            ratios[ok] = T[ok, total] / T[ok, col]
            r = int(np.argmin(ratios))
            if not np.isfinite(ratios[r]):
                return "unbounded"
            pivot(r, col)
            basis[r] = col
        return "pivot_limit"

    status = run(np.concatenate([np.zeros(ncols), np.ones(m)]), np.ones(total, dtype=bool))
    if status != "optimal":
        return status, basis
    if sum(T[i, total] for i in range(m) if basis[i] >= ncols) > 1e-7:
        return "infeasible", basis
    obj2 = np.concatenate([np.array([float(v) for v in cost[:ncols]]), np.zeros(m)])
    allowed2 = np.concatenate([np.ones(ncols, dtype=bool), np.zeros(m, dtype=bool)])
    return run(obj2, allowed2), basis


def reference_float_dual(A, cost, b, scale, ncols, basis):
    """The float dual simplex with a row-by-row pivot: the reference whose
    status and basis ``simplex._float_dual`` must reproduce exactly."""
    m = len(A)
    M = np.zeros((m, ncols + 1))
    for i, row in enumerate(A):
        for j, a in row.items():
            M[i, j] = float(Fraction(a, scale[i]))
        M[i, ncols] = float(Fraction(b[i], scale[i]))
    try:
        T = np.linalg.inv(M[:, basis]) @ M
    except np.linalg.LinAlgError:
        return None, basis
    basis = list(basis)
    obj = np.array([float(v) for v in cost])
    red = obj - obj[basis] @ T[:, :ncols]
    if (red < -simplex.FLOAT_TOL).any():
        return None, basis
    for _ in range(simplex.MAX_PIVOTS):
        xb = T[:, ncols]
        if xb.min() >= -simplex.FLOAT_TOL:
            return "optimal", basis
        weights = np.array([min(xb[i], 0) ** 2 / (T[i, :ncols] ** 2).sum() for i in range(m)])
        r = int(np.argmax(weights))
        ratios = np.full(ncols, np.inf)
        ok = T[r, :ncols] < -simplex.FLOAT_TOL
        if not ok.any():
            return "infeasible", basis
        red[red <= simplex.FLOAT_TOL] = 0.0
        ratios[ok] = red[ok] / -T[r, :ncols][ok]
        col = int(np.argmin(ratios))
        T[r] /= T[r, col]
        for i in range(m):
            if i != r and abs(T[i, col]) > 1e-14:
                T[i] -= T[i, col] * T[r]
        basis[r] = col
        red = obj - obj[basis] @ T[:, :ncols]
    return "pivot_limit", basis


def test_float_simplex_matches_row_by_row_reference():
    rng = random.Random(5)
    statuses, dual_statuses = set(), set()
    for trial in range(300):
        n = rng.randint(1, 12)
        m = rng.randint(1, 16)
        if trial % 2:
            # covering rows as the cut LP writes them: degenerate, many ties
            c = [Fraction(rng.randint(0, 3)) for _ in range(n)]
            rows = [dict.fromkeys(rng.sample(range(n), rng.randint(1, n)), 1)
                    for _ in range(m)]
            senses, rhs = [">="] * m, [1] * m
        else:
            c = [Fraction(rng.randint(-3, 9), rng.randint(1, 4)) for _ in range(n)]
            rows = [{j: Fraction(rng.randint(-3, 4), rng.randint(1, 3))
                     for j in rng.sample(range(n), rng.randint(1, n))} for _ in range(m)]
            senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
            rhs = [Fraction(rng.randint(-4, 6)) for _ in range(m)]
        A, cost, b, scale, _, ncols, slack_cols, M = simplex._standardize(n, c, rows, senses, rhs)
        got = simplex._float_simplex(M, cost)
        assert got == reference_float_simplex(A, cost, b, scale, ncols)
        statuses.add(got[0])
        # the dual phase from the slack basis where every row has a slack,
        # else from a random choice of columns
        if len(slack_cols) == len(A):
            basis = sorted(slack_cols)
        else:
            basis = rng.sample(range(ncols), len(A)) if ncols >= len(A) else None
        if basis is not None:
            got = simplex._float_dual(A, M, cost, basis, slack_cols)
            assert got == reference_float_dual(A, cost, b, scale, ncols, basis)
            dual_statuses.add(got[0])
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert dual_statuses == {"optimal", "infeasible", None}


# a covering LP whose optimum x = (1, 1) lies two dual pivots from the
# slack basis
COVER = (2, [Fraction(4), Fraction(5)], [{0: 2, 1: 1}, {0: 1, 1: 3}], [">=", ">="], [3, 4])


@pytest.mark.parametrize("lp, start", [
    (COVER, ((0,), ())),            # one column for two rows
    (COVER, ((0, 1, 1), ())),       # three columns for two rows
    (COVER, ((2,), (0,))),          # an unknown structural column
    # parallel structural columns: a singular basis
    ((2, [Fraction(1), Fraction(1)], [{0: 1, 1: 2}, {0: 2, 1: 4}], [">=", ">="], [2, 3]),
     ((0, 1), ())),
    # a negative cost leaves the slack basis dual infeasible
    ((2, [Fraction(-1), Fraction(1)], [{0: 1, 1: 1}, {0: 1, 1: -1}], ["<=", ">="], [4, -2]),
     ((), (0, 1))),
    # an '=' row has no slack to be basic
    ((2, [Fraction(1), Fraction(1)], [{0: 1, 1: 1}], ["="], [2]), ((), (0,))),
])
def test_rejected_start_gives_the_cold_answer(lp, start):
    cold = solve_min(*lp)
    warm = solve_min(*lp, start=start)
    assert (warm.objective, warm.x, warm.duals) == (cold.objective, cold.x, cold.duals)


@st.composite
def lps_with_bases(draw):
    """Covering or mixed-sense LPs with small int coefficients on 1..5
    variables and 1..6 rows, and a list of as many columns as rows in any
    order: structural and slack columns mixed, mostly without repeats."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    cols = st.sets(st.integers(0, n - 1), min_size=1)
    if draw(st.booleans()):
        rows = [{j: draw(st.integers(1, 3)) for j in draw(cols)} for _ in range(m)]
        senses, rhs = [">="] * m, [draw(st.integers(0, 4)) for _ in range(m)]
    else:
        rows = [{j: draw(st.integers(-3, 3)) for j in draw(cols)} for _ in range(m)]
        senses = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
        rhs = [draw(st.integers(-4, 4)) for _ in range(m)]
    c = [draw(st.integers(0, 6)) for _ in range(n)]
    ncols = n + sum(sense != "=" for sense in senses)
    unique = ncols >= m and draw(st.integers(0, 3)) > 0
    basis = draw(st.lists(st.integers(0, ncols - 1), min_size=m, max_size=m, unique=unique))
    return (n, c, rows, senses, rhs), basis


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lps_with_bases())
def test_core_tableau_matches_full_inverse(case):
    """The tableau built from the basis core equals inv(B) @ M to 1e-9, and
    is None exactly when B is singular, by its exact rank."""
    lp, basis = case
    A, _, b, scale, _, ncols, slack_cols, M = simplex._standardize(*lp)
    got = simplex._tableau(A, M, basis, slack_cols)
    rank = matrix_rank_exact([{k: row.get(col, 0) for k, col in enumerate(basis)} for row in A])
    assert (got is None) == (rank < len(A))
    if got is not None:
        want = np.linalg.inv(M[:, basis]) @ M
        assert np.abs(got - want).max() <= 1e-9


def test_dual_pivot_limit_is_not_optimal(monkeypatch):
    cold = solve_min(*COVER)
    slack_basis = ((), (0, 1))
    assert solve_min(*COVER, start=slack_basis).basis == ((0, 1), ())
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    A, cost, b, scale, _, ncols, slack_cols, M = simplex._standardize(*COVER)
    status, _ = simplex._float_dual(A, M, cost, sorted(slack_cols), slack_cols)
    assert status == "pivot_limit"
    capped = solve_min(*COVER, start=slack_basis)
    assert (capped.objective, capped.x, capped.duals) == (cold.objective, cold.x, cold.duals)


def test_start_from_the_certified_basis_needs_no_pivot(monkeypatch):
    sol = solve_min(*COVER)
    pivots = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *a: pivots.append(a) or pivot(*a))
    again = solve_min(*COVER, start=sol.basis)
    assert (again.objective, again.x, again.duals, again.basis) == \
        (sol.objective, sol.x, sol.duals, sol.basis)
    assert pivots == []


def test_certify_factors_the_core_once(monkeypatch):
    """A cold certified solve factors one basis core, the certified one; a
    warm solve from a dual-feasible start factors two, the start's and the
    certified one."""
    calls = []
    for name in ("inv", "solve", "lstsq", "pinv", "qr", "svd", "cholesky", "det", "slogdet"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, fn=fn, **k: calls.append(fn) or fn(*a, **k))
    cold = solve_min(*COVER)
    assert len(calls) == 1
    calls.clear()

    def cold_path(*args, **kwargs):
        raise AssertionError("the warm start was not taken")

    monkeypatch.setattr(simplex, "_float_simplex", cold_path)
    # x0 and the second row's slack: dual feasible, primal infeasible
    warm = solve_min(*COVER, start=((0,), (1,)))
    assert len(calls) == 2
    assert (warm.objective, warm.x, warm.duals) == (cold.objective, cold.x, cold.duals)


@st.composite
def covering_lps(draw):
    """Covering LPs (c >= 0, '>=' rows with coefficients 0..3) on 1..5
    variables and 1..6 rows, each with a random start: some structural
    columns and as many slack rows as make the start square."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    c = [Fraction(draw(st.integers(0, 6))) for _ in range(n)]
    rows = [{j: draw(st.integers(1, 3))
             for j in draw(st.sets(st.integers(0, n - 1), min_size=1))} for _ in range(m)]
    rhs = [draw(st.integers(0, 4)) for _ in range(m)]
    k = draw(st.integers(0, min(n, m)))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    srows = draw(st.lists(st.integers(0, m - 1), min_size=m - k, max_size=m - k, unique=True))
    return (n, c, rows, [">="] * m, rhs), (tuple(cols), tuple(srows))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(covering_lps())
def test_warm_start_against_exact_simplex(case):
    lp, start = case
    sol = solve_min(*lp, start=start)
    A, cost, b, scale, _, ncols, _, _ = simplex._standardize(*lp)
    assert sol.objective == simplex._exact_simplex(A, cost, b, scale, ncols)[1]
    assert_optimal(lp, sol.x, sol.duals, sol.objective)


@st.composite
def wide_lps(draw):
    """LPs whose coefficients mix ints, small fractions and numerators past
    2^53 over large denominators, with every row sense and rhs of either
    sign."""
    coef = st.one_of(
        st.integers(-5, 5),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**40)))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    c = [draw(coef) for _ in range(n)]
    rows = [{j: draw(coef) for j in draw(st.sets(st.integers(0, n - 1), min_size=1))}
            for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    rhs = [draw(coef) for _ in range(m)]
    return n, c, rows, senses, rhs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lp=wide_lps())
def test_dense_is_the_float_of_the_callers_rows(lp):
    """The float tableau of the integer standard form equals, bit for bit,
    one built with float(Fraction) straight from the caller's rows: each
    row negated where its rhs is negative, then one +-1 slack column per
    inequality row in row order."""
    n, c, rows, senses, rhs = lp
    ncols = n + sum(sense != "=" for sense in senses)
    want = np.zeros((len(rows), ncols + 1))
    slack = n
    for i, (row, sense, bi) in enumerate(zip(rows, senses, rhs)):
        sign = -1 if bi < 0 else 1
        for j, a in row.items():
            want[i, j] = float(sign * Fraction(a))
        if sense != "=":
            want[i, slack] = float(sign * (1 if sense == "<=" else -1))
            slack += 1
        want[i, ncols] = float(abs(Fraction(bi)))
    _, _, _, _, _, got_ncols, _, got = simplex._standardize(*lp)
    assert got_ncols == ncols
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_check(A, cost, b, slack_of, struct, tight, xs, ys):
    """The optimality check in Fraction arithmetic on the caller's rows
    (slack entries +-1), as first written: the reference whose answer
    ``simplex._check`` must reproduce exactly."""
    x = [Fraction(0)] * len(cost)
    for c, v in zip(struct, xs):
        if v < 0:
            return None
        x[c] = v
    for i, row in enumerate(A):
        act = sum(a * x[j] for j, a in row.items() if x[j])
        col = slack_of.get(i)
        if col is None:
            if act != b[i]:
                return None
        else:
            v = (b[i] - act) / row[col]
            if v < 0:
                return None
            x[col] = v
    y = [Fraction(0)] * len(A)
    priced = [Fraction(0)] * len(cost)  # y.A_j
    for r, v in zip(tight, ys):
        y[r] = v
        if v:
            for j, a in A[r].items():
                priced[j] += v * a
    basic = set(struct).union(slack_of.values())
    for j, (p, c) in enumerate(zip(priced, cost)):
        if p > c or (j in basic and p != c):
            return None
    obj = sum(cost[c] * x[c] for c in struct)
    return x, obj, y


@pytest.mark.parametrize("bound", [simplex.MAX_DENOMINATOR, 1])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(lp=lps())
def test_integer_check_matches_fraction_check(bound, lp):
    """Every basis of the standard form, with its reconstructed candidate,
    gets the same answer from the integer check as from the Fraction
    check on the caller's rows.  With the bound at 1 most candidates are
    wrong, so rejections are compared too."""
    A, cost, b, scale, _, ncols, slack_cols, M = simplex._standardize(*lp)
    rows = [{j: Fraction(a, s) for j, a in row.items()} for row, s in zip(A, scale)]
    rhs = [Fraction(v, s) for v, s in zip(b, scale)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "MAX_DENOMINATOR", bound)
        for basis in combinations(range(ncols), len(A)):
            core = simplex._core(M, basis, slack_cols)
            if core is None:
                continue
            struct, slack_of, tight, inv = core
            xs = inv @ M[tight, -1]
            ys = np.array([float(cost[c]) for c in struct]) @ inv
            if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
                continue
            cand = simplex._rational(xs), simplex._rational(ys)
            assert simplex._check(A, cost, b, scale, slack_of, struct, tight, *cand) == \
                reference_check(rows, cost, rhs, slack_of, struct, tight, *cand)


@pytest.mark.parametrize("bound", [simplex.MAX_DENOMINATOR, 1])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(lp=lps())
def test_bland_rerun_after_pivot_limit(bound, lp):
    """When Dantzig's phase reports 'pivot_limit', the float phase reruns
    with Bland's rule and its basis is certified; the answer is the Bland
    tableau's objective with a full exact certificate, and the tableau
    still runs whenever the rerun's basis is not certified."""
    events = []
    float_simplex, certify, exact = simplex._float_simplex, simplex._certify, simplex._exact_simplex

    def dantzig_stalls(*args, bland=False):
        if not bland:
            events.append("dantzig")
            return "pivot_limit", None
        status, basis = float_simplex(*args, bland=True)
        events.append(("bland", status))
        return status, basis

    def spy_certify(*args):
        result = certify(*args)
        events.append("certified" if result else "rejected")
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "MAX_DENOMINATOR", bound)
        mp.setattr(simplex, "_float_simplex", dantzig_stalls)
        mp.setattr(simplex, "_certify", spy_certify)
        mp.setattr(simplex, "_exact_simplex", lambda *a: events.append("exact") or exact(*a))
        sol = outcome(lambda: solve_min(*lp))
    (tag, rerun), certified = events[1], "certified" in events
    assert events[0] == "dantzig" and tag == "bland"
    assert (rerun == "optimal") == (certified or "rejected" in events)
    assert ("exact" in events) == (not certified)
    A, cost, b, scale, _, ncols, _, _ = simplex._standardize(*lp)
    slow = outcome(lambda: exact(A, cost, b, scale, ncols))
    if isinstance(slow, str):
        assert sol == slow
        return
    assert sol.objective == slow[1]
    assert_optimal(lp, sol.x, sol.duals, sol.objective)
