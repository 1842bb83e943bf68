"""Exact rational LP solver.

All variables are nonnegative; rows are sparse dicts with senses in
{'<=', '>=', '='}.  Each row is scaled once to integers, with its float
image built in the same pass (``_standardize``), so the exact work below
is done in Python ints.  ``_core`` is the one place a basis is factored:
it inverts the core, the tight rows (whose slack is nonbasic) against the
basic structural columns.  A solve tries these sources of an answer in turn:

1. A float tableau simplex guesses an optimal basis.  Given a starting
   basis that is dual feasible (the cutting-plane loop hands each round
   the last round's basis), a dual simplex repairs it from the tableau
   that the core inverse gives (``_tableau``); otherwise, or if its basis
   fails the check, a two-phase primal simplex (Dantzig's rule) starts
   from the artificial basis.  If that reaches its pivot limit (Dantzig's
   rule can cycle), it starts over with the Bland tableau's own rules.
2. The core inverse of that basis gives x_B and the duals y, which
   rational reconstruction (``limit_denominator``) turns into a candidate.
3. One exact check on the integer rows accepts a candidate only as a full
   optimality proof: B x_B = b on the tight rows, x_B and the basic slacks
   nonnegative, B^T y = c_B and every nonbasic reduced cost nonnegative.
4. Any other float outcome, a failed reconstruction or a rejected
   candidate goes to a full tableau simplex over Fractions with Bland's
   rule.

So every returned solution and dual is exact, whichever path produced it;
no result is accepted on float evidence alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

FLOAT_TOL = 1e-9
MAX_PIVOTS = 20000  # per phase of the float simplex
MAX_DENOMINATOR = 10**6  # rational reconstruction bound


class LpError(RuntimeError):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


@dataclass
class LpSolution:
    x: list                  # one Fraction per structural variable
    objective: Fraction
    duals: list              # one Fraction per input row, in input order
    # the certified basis as (basic structural columns, input rows whose
    # slack is basic), the form ``solve_min``'s ``start`` takes; None when
    # the exact Bland tableau decided
    basis: tuple | None = None


_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


def _standardize(num_vars, c, rows, senses, rhs):
    """Equality standard form with slack columns, in integers and floats.

    Returns ``(A, cost, b, scale, flip, ncols, slack_cols, M)``.  Row i is
    scaled once by ``scale[i]``, the lcm of its coefficient and rhs
    denominators: ``A[i]`` maps each column with a nonzero coefficient in
    row i to an int, its slack to +-scale[i], and ``b[i]`` is an int, so
    ``A[i] / scale[i]`` is exactly the caller's row.  ``cost`` holds one
    Fraction per column and ``slack_cols`` maps each slack column to its
    row.  Rows with negative rhs are negated (sense flipped) so b >= 0; the
    ``flip`` list maps duals back to the caller's orientation.

    ``M`` is the float matrix [A | b] of the caller's rows, filled in the
    same pass: int / int is correctly rounded, as is float(Fraction), so
    every entry is the float of the caller's exact coefficient, bit for bit.
    """
    A, b, scale, flip, slack_cols = [], [], [], [], {}
    ii, jj, vals, fb = [], [], [], []  # M's nonzero entries and its last column
    ncols = num_vars
    for i, (row, sense, bi) in enumerate(zip(rows, senses, rhs)):
        if sense not in _FLIP:
            raise LpError(f"unknown row sense {sense!r}")
        for j in row:
            if not 0 <= j < num_vars:
                raise LpError(f"row {i} has coefficient for unknown column {j!r}")
        terms = [(j, a if type(a) in (int, Fraction) else Fraction(a)) for j, a in row.items()]
        bi = bi if type(bi) in (int, Fraction) else Fraction(bi)
        s = lcm(*(a.denominator for _, a in terms if type(a) is not int), bi.denominator)
        neg = bi < 0
        sign = -1 if neg else 1
        out = {j: sign * (a * s if type(a) is int else a.numerator * (s // a.denominator))
               for j, a in terms if a}
        if neg:
            sense = _FLIP[sense]
        if sense != "=":
            out[ncols] = s if sense == "<=" else -s
            slack_cols[ncols] = i
            ncols += 1
        A.append(out)
        b.append(sign * bi.numerator * (s // bi.denominator))
        scale.append(s)
        flip.append(neg)
        ii += [i] * len(out)
        jj += out
        vals += [a / s for a in out.values()]
        fb.append(b[-1] / s)
    cost = [v if type(v) is Fraction else Fraction(v) for v in c]
    cost += [Fraction(0)] * (ncols - num_vars)
    M = np.zeros((len(A), ncols + 1))
    M[ii, jj] = vals
    M[:, -1] = fb
    return A, cost, b, scale, flip, ncols, slack_cols, M


def _float(q):
    return q.numerator / q.denominator  # what float(Fraction) computes


def _pivot(T, r, col):
    """Pivot the tableau on (r, col) in place.

    Eliminates col from the rows where |T[i, col]| > 1e-14, as a row-by-row
    loop would; the columns where the pivot row is zero would only have 0
    subtracted, which changes no nonzero entry."""
    prow = T[r]
    prow /= prow[col]
    hit = abs(T[:, col]) > 1e-14
    hit[r] = False
    rows = hit.nonzero()[0][:, None]
    cols = prow.nonzero()[0]
    T[rows, cols] -= T[rows, col] * prow[cols]


def _float_simplex(M, cost, bland=False):
    """Two-phase float tableau simplex on [A | b] = ``M`` from the
    artificial basis; returns (status, basis), status one of 'optimal',
    'infeasible', 'unbounded' or 'pivot_limit'.

    Dantzig's rule enters the most negative reduced cost.  ``bland=True``
    follows ``_exact_simplex``'s own rules instead, so that it takes the
    Bland tableau's pivots towards its basis: the first column with a
    negative reduced cost enters, ratio ties (within FLOAT_TOL) leave on
    the smallest basic column, and after phase 1 each zero-level
    artificial is driven out on its first nonzero structural column."""
    m, ncols = len(M), M.shape[1] - 1
    total = ncols + m  # artificial column per row
    T = np.hstack((M[:, :ncols], np.eye(m), M[:, ncols:]))
    basis = [ncols + i for i in range(m)]

    def run(obj, limit):
        for _ in range(MAX_PIVOTS):
            # reduced costs: obj_j - y.A_j with y = obj[basis] via tableau
            red = obj - obj[basis] @ T[:, :total]
            red[limit:] = np.inf
            col = int((red <= -FLOAT_TOL).argmax()) if bland else int(red.argmin())
            if red[col] > -FLOAT_TOL:
                return "optimal"
            ok = T[:, col] > FLOAT_TOL
            ratios = np.divide(T[:, total], T[:, col], out=np.full(m, np.inf), where=ok)
            r = int(ratios.argmin())
            if not np.isfinite(ratios[r]):
                return "unbounded"
            if bland:
                tied = (ratios <= ratios[r] + FLOAT_TOL).nonzero()[0]
                r = min(tied.tolist(), key=basis.__getitem__)
            _pivot(T, r, col)
            basis[r] = col
        return "pivot_limit"

    status = run(np.concatenate([np.zeros(ncols), np.ones(m)]), total)
    if status != "optimal":
        return status, basis
    if sum(T[i, total] for i in range(m) if basis[i] >= ncols) > 1e-7:
        return "infeasible", basis
    if bland:
        for i in range(m):
            if basis[i] >= ncols:
                nonzero = (abs(T[i, :ncols]) > FLOAT_TOL).nonzero()[0]
                if len(nonzero):
                    _pivot(T, i, int(nonzero[0]))
                    basis[i] = int(nonzero[0])
    obj2 = np.concatenate([[_float(v) for v in cost[:ncols]], np.zeros(m)])
    return run(obj2, ncols), basis


def _core(M, basis, slack_cols):
    """(basic structural columns, {row: its basic slack column}, tight rows,
    core^-1), the first two in basis order, of a basis of [A | b] = ``M``;
    the one place a basis is factored.  The core is the tight rows (whose
    slack is nonbasic) against the structural columns.  A slack column is a
    singleton in its own row, so B is singular exactly when its core is.
    None for other than m distinct columns, an artificial column
    (col >= ncols) or a singular core."""
    m = len(M)
    if len(basis) != m or len(set(basis)) != m or any(col >= M.shape[1] - 1 for col in basis):
        return None
    slack_of = {slack_cols[col]: col for col in basis if col in slack_cols}
    struct = [col for col in basis if col not in slack_cols]
    tight = [r for r in range(m) if r not in slack_of]
    try:
        inv = np.linalg.inv(M.take(tight, 0).take(struct, 1))
    except np.linalg.LinAlgError:
        return None
    return struct, slack_of, tight, inv


def _tableau(A, M, basis, slack_cols):
    """The tableau B^-1 [A | b] of B = M[:, basis], rows in basis order, or
    None when ``_core`` rejects the basis.  The structural rows are
    U = core^-1 M[tight]; a slack basic in row r gets
    (M[r] - M[r, struct] U) / its +-1 entry."""
    core = _core(M, basis, slack_cols)
    if core is None:
        return None
    struct, slack_of, tight, inv = core
    k = len(struct)
    T = M.take(tight + list(slack_of), 0)  # the core's rows, then the basic slacks'
    T[:k] = inv @ T[:k]
    T[k:] -= T[k:].take(struct, 1) @ T[:k]
    T[k:] *= np.array([1.0 if A[r][col] > 0 else -1.0 for r, col in slack_of.items()])[:, None]
    if list(basis[:k]) != struct:  # struct and slack positions interleave
        T[sorted(range(len(M)), key=lambda p: basis[p] in slack_cols)] = T.copy()
    return T


def _float_dual(A, M, cost, basis, slack_cols):
    """Float dual simplex on [A | b] = ``M`` from ``basis`` over the
    structural and slack columns; returns (status, basis), status one of
    'optimal', 'infeasible' or 'pivot_limit', or None when the basis is
    singular or not dual feasible.

    Each pivot leaves on the row whose infeasibility x_r^2 is largest
    relative to its squared tableau row norm (a steepest-edge weight; the
    plain most negative x_r let the cutting-plane loop cycle through the
    same cuts, 1,227 rounds on the depth-0 complete(5) layered instance at
    m=2 where a cold solve takes 103).  It enters the column minimising
    red_j / |T_rj| over T_rj < 0, with reduced costs within FLOAT_TOL of 0
    taken as 0, so that degenerate ties go to the smallest column."""
    T = _tableau(A, M, basis, slack_cols)
    if T is None:
        return None, basis
    ncols = M.shape[1] - 1
    basis = list(basis)
    obj = np.array([_float(v) for v in cost])
    red = obj - obj[basis] @ T[:, :ncols]
    if (red < -FLOAT_TOL).any():
        return None, basis
    for _ in range(MAX_PIVOTS):
        xb = T[:, ncols]
        if xb.min() >= -FLOAT_TOL:
            return "optimal", basis
        r = int((np.minimum(xb, 0) ** 2 / (T[:, :ncols] ** 2).sum(axis=1)).argmax())
        ok = T[r, :ncols] < -FLOAT_TOL
        if not ok.any():
            return "infeasible", basis
        red = np.where(red > FLOAT_TOL, red, 0.0)
        ratios = np.divide(red, -T[r, :ncols], out=np.full(ncols, np.inf), where=ok)
        col = int(ratios.argmin())
        _pivot(T, r, col)
        basis[r] = col
        red = obj - obj[basis] @ T[:, :ncols]
    return "pivot_limit", basis


def _rational(vs):
    """Each float of ``vs`` as the nearest rational with denominator at most
    MAX_DENOMINATOR."""
    return [Fraction(round(v)) if v.is_integer() else
            Fraction(v).limit_denominator(MAX_DENOMINATOR) for v in vs.tolist()]


def _check(A, cost, b, scale, slack_of, struct, tight, xs, ys):
    """Exact optimality check of a candidate on the integer rows; returns
    (x, obj, y) or None.

    x is xs on the basic structural columns ``struct``, each basic slack
    (``slack_of``: row -> its basic slack column) follows from its row, and
    every other column is 0; y is ys on the ``tight`` rows (duals of the
    caller's rows, A[r] / scale[r]) and 0 elsewhere.  Accepted only if x is
    feasible (tight rows met with equality, x_B and basic slacks >= 0) and
    y prices every basic column at its cost and no nonbasic column below
    it, which proves x and y optimal.

    The arithmetic is in ints: x is brought to one denominator dx, the
    y_r / scale[r] to one denominator dy and the costs to one denominator
    dc; Fractions are built only for the returned x, y and objective.
    """
    if any(v < 0 for v in xs):
        return None
    dx = lcm(*(v.denominator for v in xs))
    X = [0] * len(cost)
    for c, v in zip(struct, xs):
        X[c] = v.numerator * (dx // v.denominator)
    x = [Fraction(0)] * len(cost)
    for i, row in enumerate(A):
        act = sum(a * X[j] for j, a in row.items() if X[j])
        col = slack_of.get(i)
        if col is None:
            if act != b[i] * dx:
                return None
        else:
            left = b[i] * dx - act  # = row[col] * (slack value) * dx
            if left and (left < 0) != (row[col] < 0):
                return None
            x[col] = Fraction(left, row[col] * dx)

    duals = [(r, v.numerator, v.denominator * scale[r]) for r, v in zip(tight, ys) if v]
    dy = lcm(*(d for _, _, d in duals))
    priced = [0] * len(cost)  # dy * y.A_j
    for r, n, d in duals:
        f = n * (dy // d)
        for j, a in A[r].items():
            priced[j] += f * a
    dc = lcm(*(q.denominator for q in cost))
    C = [q.numerator * (dc // q.denominator) for q in cost]
    basic = set(struct).union(slack_of.values())
    for j, (p, cj) in enumerate(zip(priced, C)):
        p, cj = p * dc, cj * dy
        if p > cj or (p != cj and j in basic):
            return None

    for c, v in zip(struct, xs):
        x[c] = v
    y = [Fraction(0)] * len(A)
    for r, v in zip(tight, ys):
        y[r] = v
    obj = Fraction(sum(C[c] * X[c] for c in struct), dc * dx)
    return x, obj, y


def _certify(A, cost, b, scale, M, basis, slack_cols):
    """Exact optimality proof of a candidate basis; returns (x, obj, y) or
    None, and then the caller falls back to the exact simplex.

    The candidate is x_B = core^-1 b_tight and y = c_struct core^-1 made
    rational, with the core factored afresh: B^-1 read off a tableau
    carries every pivot's error (on the depth-0 K4 layered instance at m=4
    its duals were off by up to 3e-4, and 5 of 261 master LPs failed
    certification into the cold Bland fallback; fresh factors certify all)."""
    core = _core(M, basis, slack_cols)
    if core is None:
        return None
    struct, slack_of, tight, inv = core
    xs = inv @ M[tight, -1]
    ys = np.array([_float(cost[c]) for c in struct]) @ inv
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        return None
    return _check(A, cost, b, scale, slack_of, struct, tight, _rational(xs), _rational(ys))


def _exact_simplex(A, cost, b, scale, ncols):
    """Two-phase tableau simplex over Fractions with Bland's rule, on the
    caller's rows (each integer row divided by its scale)."""
    m = len(A)
    total = ncols + m
    T = [[Fraction(0)] * (total + 1) for _ in range(m)]
    for i, (row, s) in enumerate(zip(A, scale)):
        for j, a in row.items():
            T[i][j] = Fraction(a, s)
        T[i][ncols + i] = Fraction(1)
        T[i][total] = Fraction(b[i], s)
    basis = [ncols + i for i in range(m)]

    def pivot(r, col):
        prow = T[r]
        inv = Fraction(1) / prow[col]
        T[r] = prow = [a * inv for a in prow]
        for i in range(m):
            if i != r and T[i][col] != 0:
                f = T[i][col]
                row = T[i]
                T[i] = [a - f * p for a, p in zip(row, prow)]

    def run(obj, limit):
        while True:  # Bland's rule cannot cycle, so this terminates
            y = [obj[basis[i]] for i in range(m)]
            basic = set(basis)
            entering = None
            for j in range(limit):
                if j in basic:
                    continue
                red = obj[j] - sum(y[i] * T[i][j] for i in range(m) if T[i][j])
                if red < 0:
                    entering = j
                    break
            if entering is None:
                return
            r_best, ratio_best = None, None
            for i in range(m):
                if T[i][entering] > 0:
                    ratio = T[i][total] / T[i][entering]
                    if ratio_best is None or ratio < ratio_best or \
                            (ratio == ratio_best and basis[i] < basis[r_best]):
                        r_best, ratio_best = i, ratio
            if r_best is None:
                raise LpUnbounded("LP is unbounded")
            pivot(r_best, entering)
            basis[r_best] = entering

    obj1 = [Fraction(0)] * ncols + [Fraction(1)] * m
    run(obj1, total)
    phase1 = sum(T[i][total] for i in range(m) if basis[i] >= ncols)
    if phase1 > 0:
        raise LpInfeasible("LP is infeasible")
    # drive any remaining zero-level artificials out of the basis
    for i in range(m):
        if basis[i] >= ncols:
            for j in range(ncols):
                if T[i][j] != 0:
                    pivot(i, j)
                    basis[i] = j
                    break
    obj2 = list(cost) + [Fraction(0)] * m
    run(obj2, ncols)
    x = [Fraction(0)] * ncols
    for i in range(m):
        if basis[i] < ncols:
            x[basis[i]] = T[i][total]
    obj = sum(cost[j] * x[j] for j in range(ncols))
    # duals from the artificial columns: y = c_B . B^-1
    y = [sum(obj2[basis[i]] * T[i][ncols + r] for i in range(m)) for r in range(m)]
    return x, obj, y


def _start_basis(start, num_vars, slack_cols):
    """The column list of ``start = (cols, rows)``, or None when it names an
    unknown column or a row without a slack (``_core`` checks its size)."""
    cols, srows = start
    slack_of = {r: col for col, r in slack_cols.items()}
    if all(0 <= j < num_vars for j in cols) and all(r in slack_of for r in srows):
        return list(cols) + [slack_of[r] for r in srows]
    return None


def solve_min(num_vars, c, rows, senses, rhs, start=None) -> LpSolution:
    """Minimize c.x over {A x (sense) b, x >= 0}; exact result.

    Duals are reported per input row in the caller's orientation: for a
    minimization problem a '>=' row gets a nonnegative dual, a '<=' row a
    nonpositive one, '=' rows are free.

    ``start = (cols, rows)``, the basic structural columns and the input
    rows whose slack is basic, starts a float dual simplex from that
    basis; a start that is malformed, singular or not dual feasible is
    ignored.  It changes which optimum may be found, never its exactness.
    """
    if not (len(c) == num_vars and len(rows) == len(senses) == len(rhs)):
        raise LpError(f"{len(c)} costs for {num_vars} variables, {len(rows)} rows, "
                      f"{len(senses)} senses and {len(rhs)} right-hand sides")
    if not rows:
        if any(c[j] < 0 for j in range(num_vars)):
            raise LpUnbounded("negative cost with no constraints")
        return LpSolution(x=[Fraction(0)] * num_vars, objective=Fraction(0), duals=[],
                          basis=((), ()))
    A, cost, b, scale, flip, ncols, slack_cols, M = _standardize(num_vars, c, rows, senses, rhs)

    # only a float optimum is worth certifying; every other status (and a
    # failed certificate) passes to the next source of an answer
    result = None
    basis = None if start is None else _start_basis(start, num_vars, slack_cols)
    if basis is not None:
        status, basis = _float_dual(A, M, cost, basis, slack_cols)
        if status == "optimal":
            result = _certify(A, cost, b, scale, M, basis, slack_cols)
    if result is None:
        status, basis = _float_simplex(M, cost)
        if status == "pivot_limit":  # Dantzig's rule cycled
            status, basis = _float_simplex(M, cost, bland=True)
        if status == "optimal":
            result = _certify(A, cost, b, scale, M, basis, slack_cols)
    if result is None:
        result = _exact_simplex(A, cost, b, scale, ncols)
        basis = None
    else:
        basis = (tuple(sorted(col for col in basis if col not in slack_cols)),
                 tuple(sorted(slack_cols[col] for col in basis if col in slack_cols)))
    x_full, obj, y = result
    duals = [(-y[i] if flip[i] else y[i]) for i in range(len(rows))]
    return LpSolution(x=x_full[:num_vars], objective=obj, duals=duals, basis=basis)
