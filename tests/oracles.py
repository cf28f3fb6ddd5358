"""Reference implementation of the one-dimensional Levy-Prohorov distance.

The tests compare `limitlab.lp_distance` against a brute-force
enumeration of atom subsets.  It is a small-instance reference, not
library code.
"""

import math

import numpy as np

from ietlab.errors import SizeLimit


def _atoms_sorted(samples):
    """Distinct values of a 1-D sample array, their weights (each sample
    weighs 1/n) and the running sums of the weights."""
    pts = np.asarray(samples, dtype=float)
    support, inverse = np.unique(pts, return_inverse=True)
    w = np.zeros(len(support))
    np.add.at(w, inverse, np.full(len(pts), 1.0 / len(pts)))
    cum = np.concatenate([[0.0], np.cumsum(w)])
    return support, w, cum


def lp_distance_small_oracle(x, y) -> float:
    """Brute-force Levy-Prohorov value over all atom subsets between the
    uniform laws of two 1-D sample arrays, the test reference for
    `lp_distance` (at most 12 distinct values a side)."""
    a = _atoms_sorted(x)
    b = _atoms_sorted(y)
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
