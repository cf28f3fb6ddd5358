"""Reference implementations of the one-dimensional probability metrics.

The tests compare `limitlab.kr_distance` and `limitlab.lp_distance`
against these: a primal transport program for the bounded-Lipschitz
distance and a brute-force enumeration of atom subsets for the
Levy-Prohorov distance.  Both are small-instance references, not library
code, and the transport program imports scipy on its first call.
"""

import math

import numpy as np

from ietlab.errors import NonConvergenceError, SizeLimit
from ietlab.limitlab import EmpiricalDistribution


def delta_measure(x: float = 0.0) -> EmpiricalDistribution:
    """Point mass at x (a test input)."""
    return EmpiricalDistribution((float(x),))


def kr_coupling_oracle(mu: EmpiricalDistribution,
                       nu: EmpiricalDistribution) -> float:
    """Primal transport form of the bounded-Lipschitz distance, the test
    reference for `kr_distance`.

    Minimizes the coupling integral of min(|x - y|, 2); small instances
    only (at most 50 atoms a side).
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix
    if mu.n > 50 or nu.n > 50:
        raise SizeLimit("coupling oracle limited to small instances")
    x = np.asarray(mu.samples)
    y = np.asarray(nu.samples)
    cost = np.minimum(np.abs(x[:, None] - y[None, :]), 2.0)
    n, m = cost.shape
    rows, cols, data = [], [], []
    for i in range(n):
        for j in range(m):
            rows.append(i)
            cols.append(i * m + j)
            data.append(1.0)
    for j in range(m):
        for i in range(n):
            rows.append(n + j)
            cols.append(i * m + j)
            data.append(1.0)
    a_eq = csr_matrix((data, (rows, cols)), shape=(n + m, n * m))
    b_eq = np.concatenate([mu.weight_array(), nu.weight_array()])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise NonConvergenceError("coupling linear program failed")
    return float(res.fun)


def _atoms_sorted(mu: EmpiricalDistribution):
    pts = np.asarray(mu.samples)
    support, inverse = np.unique(pts, return_inverse=True)
    w = np.zeros(len(support))
    np.add.at(w, inverse, mu.weight_array())
    cum = np.concatenate([[0.0], np.cumsum(w)])
    return support, w, cum


def lp_distance_small_oracle(mu: EmpiricalDistribution,
                             nu: EmpiricalDistribution) -> float:
    """Brute-force Levy-Prohorov value over all atom subsets, the test
    reference for `lp_distance` (at most 12 atoms a side)."""
    a = _atoms_sorted(mu)
    b = _atoms_sorted(nu)
    if len(a[0]) > 12 or len(b[0]) > 12:
        raise SizeLimit("brute-force oracle limited to small instances")

    def side_requirement(first, second) -> float:
        fpts, fw, _ = first
        spts, sw, _ = second
        worst = 0.0
        nf = len(fpts)
        for mask in range(1, 1 << nf):
            idx = [i for i in range(nf) if mask >> i & 1]
            mass = float(sum(fw[i] for i in idx))
            dists = np.array([min(abs(s - fpts[i]) for i in idx)
                              for s in spts])
            order = np.argsort(dists)
            # scan the step function eps -> mass - second(closed hull)
            breaks = [0.0] + [float(dists[j]) for j in order]
            covered = [0.0]
            run = 0.0
            for j in order:
                run += float(sw[j])
                covered.append(run)
            best_eps = math.inf
            for k in range(len(breaks)):
                seg_lo = breaks[k]
                seg_hi = breaks[k + 1] if k + 1 < len(breaks) else math.inf
                need = mass - covered[k]
                cand = max(seg_lo, need)
                if cand < seg_hi:
                    best_eps = min(best_eps, cand)
            worst = max(worst, best_eps)
        return worst

    return max(0.0, side_requirement(a, b), side_requirement(b, a))
