"""Reference values computed apart from wirecat.

Nothing here imports wirecat: each function recomputes, from first
principles, a quantity that a workload asks the program for, so that a
benchmark run can tell a fast wrong answer from a right one.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _exact(x):
    """An exact number, kept as an int when it is integral (ints are faster)."""
    x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def killing_table(bracket, n: int):
    """All entries tr(ad e_{i1} o ... o ad e_{in}) of the n-th Killing form.

    ``bracket[i][j][k]`` is the k-th coordinate of [e_i, e_j], so the matrix
    of ad e_i has entry (k, j) = bracket[i][j][k].  Returns a dict from the
    index tuple (i1, ..., in) to the trace.  Prefix products are shared, so
    the cost is about 3^n matrix products for d = 3.
    """
    d = len(bracket)
    ad = [[[_exact(bracket[i][j][k]) for j in range(d)] for k in range(d)]
          for i in range(d)]

    def matmul(a, b):
        return [[sum(a[r][m] * b[m][c] for m in range(d)) for c in range(d)]
                for r in range(d)]

    level = {(i,): ad[i] for i in range(d)}
    for _ in range(n - 1):
        level = {idx + (i,): matmul(mat, ad[i])
                 for idx, mat in level.items() for i in range(d)}
    return {idx: sum(mat[r][r] for r in range(d)) for idx, mat in level.items()}


def lie_dim(n: int) -> int:
    """Dimension of the multilinear part of the free Lie algebra on n letters."""
    return math.factorial(n - 1)


def trace_dim(n: int) -> int:
    """Number of cyclic orders of n letters (1 for the empty word)."""
    return math.factorial(n - 1) if n >= 1 else 1


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k)."""
    row = [1]  # c(0, 0)
    for m in range(n):
        # c(m+1, j) = m * c(m, j) + c(m, j-1)
        row = [m * (row[j] if j < len(row) else 0) + (row[j - 1] if j else 0)
               for j in range(len(row) + 1)]
    return row[k] if k < len(row) else 0


def wheeled_dim(n: int, m: int) -> int:
    """Dimension of the two-sided space: m! * c(n+1, m+1).

    Word blocks of size k contribute (k-1)! and trace blocks (k-1)!, so the
    count is that of permutations of n+1 points with m+1 cycles, with the
    m word blocks ordered.
    """
    return math.factorial(m) * stirling1(n + 1, m + 1)

