"""Independent eigenvalue oracle for the test suite.

Householder tridiagonalization followed by bisection on the Sturm-sequence
sign count. Shares no code path with the library's LAPACK-backed solver, so
agreement between the two is a meaningful check.
"""

import numpy as np


def householder_tridiagonal(a):
    """Reduce a symmetric matrix to tridiagonal form; returns (diag, offdiag)."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1:, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += norm_x if v[0] >= 0.0 else -norm_x
        v_norm = np.linalg.norm(v)
        if v_norm == 0.0:
            continue
        v /= v_norm
        s = a[k + 1:, k + 1:]
        w = s @ v
        kappa = v @ w
        s -= 2.0 * (np.outer(v, w) + np.outer(w, v)) - 4.0 * kappa * np.outer(v, v)
        col = np.zeros(n - k - 1)
        col[0] = -norm_x if x[0] >= 0.0 else norm_x
        a[k + 1:, k] = col
        a[k, k + 1:] = col
    return np.diag(a).copy(), np.diag(a, 1).copy()


def sturm_count_below(d, e, x):
    """Number of eigenvalues of the tridiagonal (d, e) strictly below x."""
    count = 0
    q = 0.0
    for i in range(d.size):
        if i == 0:
            q = d[0] - x
        else:
            prev = q
            if prev == 0.0:
                prev = np.finfo(float).eps * max(1.0, abs(e[i - 1]))
            q = d[i] - x - e[i - 1] * e[i - 1] / prev
        if q < 0.0:
            count += 1
    return count


def sturm_eigenvalues(a, iterations: int = 90):
    """All eigenvalues, ascending, by bisection on the Sturm count."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    d, e = householder_tridiagonal(a)
    pad = np.concatenate([[0.0], np.abs(e), [0.0]])
    radius = pad[:-1] + pad[1:]
    lo_all = float(np.min(d - radius)) - 1.0
    hi_all = float(np.max(d + radius)) + 1.0
    values = np.empty(n)
    for j in range(n):
        lo, hi = lo_all, hi_all
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if sturm_count_below(d, e, mid) >= j + 1:
                hi = mid
            else:
                lo = mid
        values[j] = 0.5 * (lo + hi)
    return values
