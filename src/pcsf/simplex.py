"""Exact rational LP solver.

All variables are nonnegative; rows are sparse dicts with senses in
{'<=', '>=', '='}.  The solver first runs a fast float simplex (numpy
tableau, Dantzig rule) to guess an optimal basis, then certifies that
basis in exact rational arithmetic (basic solution nonnegative, all
reduced costs nonnegative).  If certification fails it falls back to a
full tableau simplex over Fractions with Bland's rule, so every returned
solution and dual is exact regardless of the path taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9
MAX_PIVOTS = 20000  # per phase of the float simplex


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


def _standardize(num_vars, c, rows, senses, rhs):
    """Equality standard form with slack columns; returns exact matrices.

    Rows with negative rhs are negated (sense flipped) so b >= 0; the
    returned ``flip`` list maps duals back to the caller's orientation.
    """
    m = len(rows)
    flip = [False] * m
    norm_rows, norm_senses, norm_rhs = [], [], []
    for i in range(m):
        row, sense, b = rows[i], senses[i], Fraction(rhs[i])
        if b < 0:
            row = {j: -a for j, a in row.items()}
            b = -b
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
            flip[i] = True
        norm_rows.append(row)
        norm_senses.append(sense)
        norm_rhs.append(b)

    slack_of_row = {}
    slack_cols = {}  # slack column -> (row, sign)
    ncols = num_vars
    for i, sense in enumerate(norm_senses):
        if sense in ("<=", ">="):
            slack_of_row[i] = ncols
            slack_cols[ncols] = (i, Fraction(1) if sense == "<=" else Fraction(-1))
            ncols += 1

    A = [[Fraction(0)] * ncols for _ in range(m)]
    for i, row in enumerate(norm_rows):
        for j, a in row.items():
            A[i][j] = Fraction(a)
        if i in slack_of_row:
            A[i][slack_of_row[i]] = Fraction(1) if norm_senses[i] == "<=" else Fraction(-1)
    cost = [Fraction(c.get(j, 0)) if isinstance(c, dict) else Fraction(c[j]) for j in range(num_vars)]
    cost += [Fraction(0)] * (ncols - num_vars)
    return A, cost, norm_rhs, flip, ncols, slack_cols


def _float_simplex(A, cost, b, ncols):
    """Two-phase float tableau simplex; returns (status, basis), status one
    of 'optimal', 'infeasible', 'unbounded' or 'pivot_limit'."""
    m = len(A)
    total = ncols + m  # artificial column per row
    T = np.zeros((m, total + 1))
    for i in range(m):
        for j in range(ncols):
            T[i, j] = float(A[i][j])
        T[i, ncols + i] = 1.0
        T[i, total] = float(b[i])
    basis = [ncols + i for i in range(m)]

    def pivot(T, r, col):
        T[r] /= T[r, col]
        for i in range(T.shape[0]):
            if i != r and abs(T[i, col]) > 1e-14:
                T[i] -= T[i, col] * T[r]

    def run(obj, allowed):
        for _ in range(MAX_PIVOTS):
            # reduced costs: obj_j - y.A_j with y = obj[basis] via tableau
            y = obj[basis]
            red = obj[: total] - y @ T[:, :total]
            red[~allowed] = np.inf
            col = int(np.argmin(red))
            if red[col] > -FLOAT_TOL:
                return "optimal"
            ratios = np.full(T.shape[0], np.inf)
            ok = T[:, col] > FLOAT_TOL
            ratios[ok] = T[ok, total] / T[ok, col]
            r = int(np.argmin(ratios))
            if not np.isfinite(ratios[r]):
                return "unbounded"
            pivot(T, r, col)
            basis[r] = col
        return "pivot_limit"

    allowed1 = np.ones(total, dtype=bool)
    obj1 = np.concatenate([np.zeros(ncols), np.ones(m)])
    status = run(obj1, allowed1)
    if status != "optimal":
        return status, basis
    if sum(T[i, total] for i in range(m) if basis[i] >= ncols) > 1e-7:
        return "infeasible", basis
    allowed2 = np.concatenate([np.ones(ncols, dtype=bool), np.zeros(m, dtype=bool)])
    obj2 = np.concatenate([np.array([float(x) for x in cost[:ncols]]), np.zeros(m)])
    return run(obj2, allowed2), basis


def _exact_solve_square(M, rhs_cols):
    """Solve M X = RHS exactly by Gaussian elimination; None if singular."""
    m = len(M)
    aug = [list(M[i]) + [Fraction(col[i]) for col in rhs_cols] for i in range(m)]
    width = m + len(rhs_cols)
    for col in range(m):
        piv = None
        for r in range(col, m):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                prow = aug[col]
                aug[r] = [a - factor * p for a, p in zip(aug[r], prow)]
    sols = []
    for kcol in range(len(rhs_cols)):
        sols.append([aug[i][m + kcol] for i in range(m)])
    return sols


def _certify(A, cost, b, ncols, basis, slack_cols):
    """Exact optimality check of a candidate basis; returns (x, obj, y) or None.

    Basic slack columns are singletons, so the square solve collapses to
    the tight rows versus the basic structural columns; slack values and
    the remaining duals (zero on slack-basic rows) follow by substitution.
    """
    m = len(A)
    if any(col >= ncols for col in basis):
        return None  # artificial left in the basis; use the exact path
    if len(set(basis)) != m:
        return None
    struct = [col for col in basis if col not in slack_cols]
    slack_basic = [col for col in basis if col in slack_cols]
    slack_rows = {slack_cols[col][0] for col in slack_basic}
    tight_rows = [r for r in range(m) if r not in slack_rows]
    if len(tight_rows) != len(struct):
        return None
    k = len(struct)
    Bs = [[A[r][c] for c in struct] for r in tight_rows]
    sol = _exact_solve_square(Bs, [[b[r] for r in tight_rows]])
    if sol is None:
        return None
    xval = dict(zip(struct, sol[0]))
    for col in slack_basic:
        r, sign = slack_cols[col]
        xval[col] = (b[r] - sum(A[r][c] * xval[c] for c in struct if A[r][c])) / sign
    if any(v < 0 for v in xval.values()):
        return None
    Bt = [[Bs[i][j] for i in range(k)] for j in range(k)]
    cb = [cost[c] for c in struct]
    ysol = _exact_solve_square(Bt, [cb]) if k else [[]]
    if ysol is None:
        return None
    y = [Fraction(0)] * m
    for idx, r in enumerate(tight_rows):
        y[r] = ysol[0][idx]
    basic = set(basis)
    for j in range(ncols):
        if j in basic:
            continue
        red = cost[j] - sum(y[r] * A[r][j] for r in tight_rows if A[r][j])
        if red < 0:
            return None
    x = [Fraction(0)] * ncols
    for col, v in xval.items():
        x[col] = v
    obj = sum(cost[col] * xval[col] for col in basis)
    return x, obj, y


def _exact_simplex(A, cost, b, ncols):
    """Two-phase tableau simplex over Fractions with Bland's rule."""
    m = len(A)
    total = ncols + m
    T = [[Fraction(0)] * (total + 1) for _ in range(m)]
    for i in range(m):
        for j in range(ncols):
            T[i][j] = A[i][j]
        T[i][ncols + i] = Fraction(1)
        T[i][total] = b[i]
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
            entering = None
            for j in range(limit):
                if j in set(basis):
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


def solve_min(num_vars, c, rows, senses, rhs) -> LpSolution:
    """Minimize c.x over {A x (sense) b, x >= 0}; exact result.

    Duals are reported per input row in the caller's orientation: for a
    minimization problem a '>=' row gets a nonnegative dual, a '<=' row a
    nonpositive one, '=' rows are free.
    """
    if not rows:
        x = [Fraction(0)] * num_vars
        cost = [Fraction(c.get(j, 0)) if isinstance(c, dict) else Fraction(c[j])
                for j in range(num_vars)]
        if any(v < 0 for v in cost):
            raise LpUnbounded("negative cost with no constraints")
        return LpSolution(x=x, objective=Fraction(0), duals=[])
    A, cost, b, flip, ncols, slack_cols = _standardize(num_vars, c, rows, senses, rhs)

    # only a float optimum is worth certifying; every other status (and a
    # failed certificate) is settled by the exact simplex
    result = None
    status, basis = _float_simplex(A, cost, b, ncols)
    if status == "optimal":
        result = _certify(A, cost, b, ncols, basis, slack_cols)
    if result is None:
        result = _exact_simplex(A, cost, b, ncols)
    x_full, obj, y = result
    duals = [(-y[i] if flip[i] else y[i]) for i in range(len(rows))]
    return LpSolution(x=x_full[:num_vars], objective=obj, duals=duals)


def solve_max(num_vars, c, rows, senses, rhs) -> LpSolution:
    neg = ({j: -v for j, v in c.items()} if isinstance(c, dict)
           else [-v for v in c])
    sol = solve_min(num_vars, neg, rows, senses, rhs)
    return LpSolution(x=sol.x, objective=-sol.objective,
                      duals=[-d for d in sol.duals])
