"""Exact rational reference for the skew invariant and its rank.

A double is a rational number, so fractions.Fraction(x) holds it exactly,
and Theta only swaps and negates entries, so the S_tilde of double inputs,

    S_tilde = Theta B Theta_u B^T Theta - A^T Theta - Theta A - C^T Theta_y C,

is an exact rational matrix (exact_s_tilde). exact_rank ranks it without
rounding by fraction-free (Bareiss) elimination over the integers, after
scaling by the common denominator of the entries. exact_magnitude is the
entrywise sum M of the magnitudes of the terms S_tilde sums, which with
exact_gamma bounds the rounding of the computed S_tilde.
"""

import math
from fractions import Fraction


def _fractions(m):
    return [[Fraction(float(x)) for x in row] for row in m]


def _theta_rows(m):
    """Theta M: rows 2k and 2k+1 become M[2k+1] and -M[2k]."""
    out = []
    for k in range(0, len(m), 2):
        out += [list(m[k + 1]), [-x for x in m[k]]]
    return out


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _magnitudes(m):
    return [[abs(x) for x in row] for row in m]


def _product(x, y):
    cols = _transpose(y)
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def exact_s_tilde(sys):
    """S_tilde of the system's double entries, exactly, as a list of rows of Fractions.

    With X^T Theta = (Theta^T X)^T = -(Theta X)^T, every Theta is a row swap
    of a left factor: Theta B Theta_u B^T Theta = -(Theta B)(Theta_u (Theta B)^T)
    and C^T Theta_y C = C^T (Theta_y C), and A^T Theta = -(Theta A)^T.
    """
    a, b, c = _fractions(sys.A), _fractions(sys.B), _fractions(sys.C)
    theta_b = _theta_rows(b)
    z = _product(theta_b, _theta_rows(_transpose(theta_b)))
    theta_a = _theta_rows(a)
    q = _product(_transpose(c), _theta_rows(c))
    n = len(a)
    return [
        [-z[i][j] + theta_a[j][i] - theta_a[i][j] - q[i][j] for j in range(n)] for i in range(n)
    ]


def exact_magnitude(sys):
    """M = |Theta B| |Theta_u| |Theta B|^T + |Theta A| + |Theta A|^T + |C|^T |Theta_y| |C|, exactly.

    Entry (i, j) sums the magnitudes of every product and term that
    S_tilde[i, j] adds up, as lists of rows of Fractions. |Theta| is the
    unsigned swap of quadrature pairs, so |Theta X| is |X| with its pairs swapped.
    """
    a, b, c = _fractions(sys.A), _fractions(sys.B), _fractions(sys.C)
    theta_b = _magnitudes(_theta_rows(b))
    z = _product(theta_b, _magnitudes(_theta_rows(_transpose(theta_b))))
    theta_a = _magnitudes(_theta_rows(a))
    q = _product(_magnitudes(_transpose(c)), _magnitudes(_theta_rows(c)))
    n = len(a)
    return [[z[i][j] + theta_a[i][j] + theta_a[j][i] + q[i][j] for j in range(n)] for i in range(n)]


def exact_gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53, as an exact Fraction."""
    ku = Fraction(k, 2**53)
    return ku / (1 - ku)


def exact_rank(m):
    """The rank of a matrix of Fractions, by Bareiss elimination on integers.

    The entries are scaled by the least common denominator first, which
    keeps the rank; Bareiss's divisions are then exact integer divisions.
    """
    scale = math.lcm(*(x.denominator for row in m for x in row))
    rows = [[int(x * scale) for x in row] for row in m]
    rank, previous, cols = 0, 1, len(rows[0])
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            rows[i] = [(p * rows[i][j] - rows[i][col] * rows[rank][j]) // previous for j in range(cols)]
        previous, rank = p, rank + 1
    return rank
