"""The discrete least-squares objective: an optimality oracle for the
estimators, which minimize it in closed form."""

import numpy as np


def ls_objective(candidate, y_samples, x_samples, dt) -> float:
    """The objective at a candidate (a, b, alpha, beta):

        sum_k [ (dY_k - (a - b*Y_{k-1}) dt)^2 + (dX_k - (alpha - beta*Y_{k-1}) dt)^2 ].

    Its minimizer over candidates is exactly the estimators' closed form.
    """
    a, b, alpha, beta = (float(v) for v in candidate)
    y, x = np.asarray(y_samples, dtype=float), np.asarray(x_samples, dtype=float)
    y_left = y[:-1]
    res_y = np.diff(y) - (a - b * y_left) * dt
    res_x = np.diff(x) - (alpha - beta * y_left) * dt
    return float(np.sum(res_y * res_y) + np.sum(res_x * res_x))
