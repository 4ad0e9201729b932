"""Numeric kernels of the stepper: GUE assembly and the exponential
exp(i s H) of one Hermitian matrix.

The exponential is Sastre's degree-15+ evaluation formula in X = i s H
(J. Sastre, "Efficient evaluation of matrix polynomials", LAA 539, 2018;
Sastre, Ibanez & Defez, "Boosting the computation of the matrix
exponential", AMC 340, 2019). With X2 = X^2,

    y0 = X2 (c1 X2 + c2 X)
    y1 = (y0 + c3 X2 + c4 X)(y0 + c5 X2) + c6 y0 + c7 X2
    E  = (y1 + c8 X2 + c9 X)(y1 + c10 y0 + c11 X) + c12 y1 + c13 y0 + c14 X2 + X + I

is a polynomial sum_k p_k X^k of degree 16, formed from 4 matrix products,
whose coefficients equal the Taylor coefficients 1/k! through k = 15 to
rounding (c1 .. c14 are ``_C``). X is normal, so ||X||_2 = ||X^2||_2^(1/2) =
||X^4||_2^(1/4); X^2 and X^4 are Hermitian, so their 2-norms are at most
their induced 1-norms. For real theta the error of E at e^{i theta} is at
most

    sum_{k <= 16} |p_k - 1/k!| |theta|^k + sum_{k >= 17} |theta|^k/k!,

which is at most 2^-53 for |theta| <= ``_THETA``. The bound b is
||X^2||_1^(1/2); only when b > _THETA is X^4 formed (a fifth product), and
b lowered to ||X^4||_1^(1/4) if that is smaller. When b is still above
_THETA, X is halved q times (so b <= _THETA) and E squared q times.
"""

from __future__ import annotations

import math

import numpy as np

# c1 .. c14 of the formula, rounded to doubles from their 50-digit values
_C = (
    4.0187616102010354629e-4,
    2.9455314402796829805e-3,
    -8.7090665768376759677e-3,
    0.40175684406735678015,
    0.03230762888122312082,
    5.7689885130261447291,
    0.023385760342712988337,
    0.23810703738709872247,
    2.2242091724963735612,
    -5.7923617070732605218,
    -0.04130276365929782911,
    10.408017352313543646,
    -63.317124558833707162,
    0.34846658633645740854,
)
c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 = _C
# The linear combinations, as real rows over stacked workspace slots. With
# P = (y0 + c3 X2 + c4 X)(y0 + c5 X2) and r = c6 y0 + c7 X2, y1 = P + r.
_Y0_FACTOR = np.array([[c2, c1]])  # over X, X2
_Y1_TERMS = np.array(  # over X, X2, y0: r and the two factors of P
    [
        [0.0, c7, c6],
        [c4, c3, 1.0],
        [0.0, c5, 1.0],
    ]
)
_E_TERMS = np.array(  # over P, X, X2, y0, r: the two factors of E and its sum
    [
        [1.0, c9, c8, 0.0, 1.0],
        [1.0, c11, 0.0, c10, 1.0],
        [c12, 1.0, c14, c13, c12],
    ]
)
del c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14
# The largest b at which the error bound above is at most 2^-53 is 0.69907...
# (tests/test_rmt.py certifies it); this is that value rounded down.
_THETA = 0.699


def assemble_gue(A, B, out=None):
    """H = (G + G^H) / sqrt(4N) with G = A + iB; E tr_N H^2 = 1.

    The real part A + A^T and the imaginary part B - B^T of G + G^H are
    written into ``out`` (a new array if None), which is then divided in
    place as a complex array: the same division, so the same bytes, as
    ``(G + G^H) / sqrt(4N)``.
    """
    N = A.shape[-1]
    H = np.empty(A.shape, dtype=np.complex128) if out is None else out
    np.add(A, np.swapaxes(A, -1, -2), out=H.real)
    np.subtract(B, np.swapaxes(B, -1, -2), out=H.imag)
    H /= math.sqrt(4.0 * N)
    return H


def expi_workspace(N):
    """Scratch for ``expi`` at dimension N: eight N x N slots, for P, X,
    X^2, y0, r and the two factors and the sum of E."""
    return np.empty((8, N, N), dtype=np.complex128)


def _combine(coef, basis, out):
    """out[i] = sum_j coef[i, j] basis[j] for real ``coef`` and stacked
    complex slots: one real product over the slots' real and imaginary
    parts."""
    np.matmul(coef, _flat(basis), out=_flat(out))


def _flat(slots):
    return slots.view(np.float64).reshape(len(slots), -1)


def _norm1(M, scratch):
    """The induced 1-norm of M (largest column sum), through ``scratch``."""
    return float(np.abs(M, out=scratch.real).sum(axis=0).max())


def expi(H, s, work=None):
    """exp(i s H) for one Hermitian N x N matrix H and real s.

    Sastre's formula (module docstring) costs 4 products, 5 when the bound
    needs X^4, and 5 + q past that.

    Every intermediate lives in ``work`` (``expi_workspace(N)``, made afresh
    if None), and so does the result: it is valid until the next call with
    the same workspace.
    """
    N = H.shape[-1]
    if work is None:
        work = expi_workspace(N)
    P, X, X2, y0 = work[:4]
    np.multiply(H, 1j * s, out=X)
    np.matmul(X, X, out=X2)
    b = _norm1(X2, work[4]) ** 0.5
    if b > _THETA:
        np.matmul(X2, X2, out=work[5])
        b = min(b, _norm1(work[5], work[4]) ** 0.25)
    # log2's rounding can leave b 2^-q a last bit above _THETA, still below
    # the exact limit 0.69907
    q = math.ceil(math.log2(b / _THETA)) if b > _THETA else 0
    if q:  # power-of-two scalings are exact
        X *= 2.0**-q
        X2 *= 4.0**-q
    _combine(_Y0_FACTOR, work[1:3], work[4:5])
    np.matmul(X2, work[4], out=y0)
    _combine(_Y1_TERMS, work[1:4], work[4:7])  # r, then the factors of P
    np.matmul(work[5], work[6], out=P)
    _combine(_E_TERMS, work[:5], work[5:8])
    E, product = work[0], work[1]  # the basis is spent
    np.matmul(work[5], work[6], out=E)
    E += work[7]
    E.reshape(-1)[:: N + 1] += 1.0
    for _ in range(q):
        np.matmul(E, E, out=product)
        E, product = product, E
    return E
