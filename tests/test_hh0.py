"""HH_0 of the maximal order in closed form: A_N / [A_N, A_N] has length
log_p = f * (N + d - 1) at precision N.

The commutators [t, s * pi_D^c] = s (t - sigma^{rc}(t)) pi_D^c fill
T * pi_D^c for 0 < c < d, and in degree d they give pi_K (1 - sigma) T, a
direct summand of T of rank d - 1 times pi_K.  So HH_0(A) = S + k^{d-1}
with k = S / pi_K (Loday, Cyclic Homology, 1.1).  The check multiplies
pairs of S-basis elements of A and nothing else: it does not go through
embed, trd_nrd or the sigma tables.
"""

from itertools import combinations, product

import pytest

from hasseorder import algebra, linalg
from hasseorder import localring as lr

GRID = [(3, 1, 2, 1), (3, 1, 3, 1), (3, 1, 3, 2), (5, 1, 3, 2), (3, 2, 2, 1),
        (3, 1, 4, 1), (3, 1, 4, 3), (2, 1, 3, 1), (5, 1, 5, 2)]


def build(p, f, d, r, N, mode):
    T = lr.unramified(lr.base_ring(p, f, N, mode), d)
    return algebra.make(T, r)


def hh0_log_size(A):
    """log_p |A_N / [A_N, A_N]|, from the S-span of the commutators of all
    pairs of the S-basis theta^j * pi_D^i, i, j < d, by `linalg.eliminate`:
    a pivot found after s divisions by pi spans a summand of length N - s."""
    T, S, d, N = A.T, A.S, A.d, A.prec
    basis = [A.from_T(T.gen ** j) * A.pi_D_pow(i) for i, j in product(range(d), repeat=2)]
    rows = []
    for a, b in combinations(basis, 2):
        c = a * b - b * a
        rows.append([x for y in c.coeffs for x in T.rel_coords(y.shift_down(-c.shift))])
    _, shift, left = linalg.eliminate(rows, S)
    return S.f * (d * d * N - (len(rows) - left) * N + shift)


@pytest.mark.parametrize("mode", [lr.MIXED, lr.EQUAL])
@pytest.mark.parametrize("p, f, d, r", GRID)
def test_hh0_length_is_f_times_N_plus_d_minus_1(p, f, d, r, mode):
    for N in (2, 3, 4):
        assert hh0_log_size(build(p, f, d, r, N, mode)) == f * (N + d - 1)


@pytest.mark.parametrize("mode", [lr.MIXED, lr.EQUAL])
def test_hh0_length_sees_a_twist_that_does_not_generate(mode, monkeypatch):
    """sigma^2 does not generate Gal(T/S) at d = 4: planted before any
    product, it makes A commute with more of T, and [A, A] shrinks."""
    for N, planted in ((2, 10), (3, 14)):
        A = build(3, 1, 4, 1, N, mode)
        monkeypatch.setattr(A, "r", 2)
        assert hh0_log_size(A) == planted != N + 3
