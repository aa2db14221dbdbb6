"""The paper's application: a multi-period inventory MILP over one partition.

Demand in periods t = 1..6 is normal with means MU and deviations 0.25 MU,
independent, so the cumulative demand up to t is N(mu_t, sigma_t) with
mu_t = MU_1 + ... + MU_t and sigma_t^2 = the sum of the variances.  An
order-up-to plan raises the stock to a level S_t at each setup (delta_t = 1,
cost SETUP) and keeps it otherwise, with S_1 <= ... <= S_6; the first period
sets up, as there is no initial stock.  Its expected cost is

    sum_t SETUP delta_t + (h+p) closs(S_t) - p (S_t - mu_t),

holding h and backorder p on the stock at each period end.  The MILP replaces
closs(S_t) by a variable L_t at or above every lower row of one partition
placed at N(mu_t, sigma_t), read back from the LP text.  scipy 1.8 has no
milp, so the 2^5 setup patterns are enumerated, each an LP.  Its optimum is at
most the plan's exact cost, and the upper bound (the rows lifted by
sigma_t max_error) puts it at most (h+p) sum_t sigma_t max_error below.  The
optima pinned here were first found with scipy's milp on the same model.
"""

import itertools

import numpy as np
import pytest
from pytest import approx

from losslin import BoundReport, NormalParams, closs, solve_minimax, to_lp_constraints

from test_export_io import lower_rows

MU = np.array([100.0, 80.0, 120.0, 90.0, 110.0, 70.0])
SETUP, H, P = 400.0, 1.0, 10.0
MU_CUM = np.cumsum(MU)
SIGMA_CUM = np.sqrt(np.cumsum((0.25 * MU) ** 2))
TOL = 1e-6  # the LP solver's absolute tolerance on the optimum, stated here


def milp(n_regions: int):
    """(optimum, setups, levels) over the enumerated setup patterns."""
    from scipy.optimize import linprog

    part, t = solve_minimax(n_regions), MU.size
    unit = np.eye(2 * t)
    # variables (S_1..S_T, L_1..L_T); each row L_t >= s S_t + c is s S_t - L_t <= -c
    a_ub, b_ub = [], []
    for k, (mu, sigma) in enumerate(zip(MU_CUM, SIGMA_CUM)):
        text = to_lp_constraints(BoundReport(part, NormalParams(mu, sigma)))
        for s, c in zip(*lower_rows(text)):
            a_ub.append(s * unit[k] - unit[t + k])
            b_ub.append(-c)
    # nondecreasing levels: S_(k-1) - S_k <= 0
    a_ub += [unit[k - 1] - unit[k] for k in range(1, t)]
    b_ub += [0.0] * (t - 1)
    cost = np.concatenate((np.full(t, -P), np.full(t, H + P)))
    best = None
    for pattern in itertools.product((0, 1), repeat=t - 1):
        # no setup in period k keeps the level: S_k - S_(k-1) = 0
        a_eq = [unit[k] - unit[k - 1] for k in range(1, t) if not pattern[k - 1]]
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq or None,
                      b_eq=[0.0] * len(a_eq) or None, bounds=(None, None), method="highs")
        assert res.status == 0, res.message
        value = res.fun + P * MU_CUM.sum() + SETUP * (1 + sum(pattern))
        if best is None or value < best[0]:
            best = value, (1, *pattern), res.x[:t]
    return best


def exact_cost(setups, levels) -> float:
    """The plan's expected cost, with the library's closs at each period end."""
    expected = np.array([closs(s, NormalParams(mu, sigma))
                         for s, mu, sigma in zip(levels, MU_CUM, SIGMA_CUM)])
    return SETUP * sum(setups) + float(np.sum((H + P) * expected - P * (levels - MU_CUM)))


@pytest.mark.parametrize("n, optimum", [(2, 1616.51), (10, 1743.91), (100, 1749.32)])
def test_milp_optimum_brackets_the_exact_cost_of_its_plan(n, optimum):
    value, setups, levels = milp(n)
    assert value == approx(optimum, abs=0.01)
    width = (H + P) * float(np.sum(SIGMA_CUM)) * solve_minimax(n).max_error
    assert value - TOL <= exact_cost(setups, levels) <= value + width + TOL
