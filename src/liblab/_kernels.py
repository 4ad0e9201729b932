"""Numeric kernels of the stepper: GUE assembly and the exponential
exp(i s H) of one Hermitian matrix.

The exponential is a Taylor polynomial in X = i s H, of degree K chosen from
a bound on the spectral norm of X: X is normal, so

    ||X||_2 = ||X^4||_2^(1/4) <= b = ||X^4||_1^(1/4).

The induced 1-norm is sub-multiplicative, so b <= ||X^2||_1^(1/2) <= ||X||_1:
the lower powers never give a smaller bound. For real theta the Taylor
remainder of e^{i theta} after degree K is at most |theta|^(K+1)/(K+1)!. K is the least of 3, 7, 11, 15, 19 with
b^(K+1)/(K+1)! <= 2^-53. When b > 1, X is first halved q times (so b <= 1)
and the polynomial squared q times.
"""

from __future__ import annotations

import math

import numpy as np

_DEGREES = (3, 7, 11, 15, 19)
# Row j holds the Taylor coefficients 1/k! of block j, k = 4j .. 4j + 3.
_BLOCKS = np.array([1.0 / math.factorial(k) for k in range(20)], dtype=np.complex128).reshape(5, 4)


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
    """Scratch for ``expi`` at dimension N: X, X^2, X^3, X^4 and up to five
    coefficient blocks."""
    return np.empty((4 + len(_DEGREES), N, N), dtype=np.complex128)


def expi(H, s, work=None):
    """exp(i s H) for one Hermitian N x N matrix H and real s.

    Paterson-Stockmeyer evaluation: X, X^2, X^3 and X^4 are formed once, and
    Horner's rule in X^4 runs over blocks of four Taylor terms, so degree K
    costs 3 + (K - 3)/4 products (plus q squarings).

    Every intermediate lives in ``work`` (``expi_workspace(N)``, made afresh
    if None), and so does the result: it is valid until the next call with
    the same workspace.
    """
    N = H.shape[-1]
    if work is None:
        work = expi_workspace(N)
    P = work[:3]  # X, X^2, X^3
    X, X2, X3 = P
    X4 = work[3]
    np.multiply(H, 1j * s, out=X)
    np.matmul(X, X, out=X2)
    np.matmul(X2, X2, out=X4)
    # ||X^4||_1 through work[4], which is free until the blocks are formed
    b = float(np.abs(X4, out=work[4].real).sum(axis=0).max()) ** 0.25
    q = math.ceil(math.log2(b)) if b > 1.0 else 0
    if q:  # power-of-two scalings are exact
        X *= 2.0**-q
        X2 *= 4.0**-q
        X4 *= 16.0**-q
        b *= 2.0**-q
    K = next(K for K in _DEGREES if b ** (K + 1) / math.factorial(K + 1) <= 2.0**-53)
    np.matmul(X2, X, out=X3)
    coef = _BLOCKS[: (K + 1) // 4]
    blocks = work[4 : 4 + len(coef)]
    np.matmul(coef[:, 1:], P.reshape(3, -1), out=blocks.reshape(len(coef), -1))
    blocks.reshape(len(coef), -1)[:, :: N + 1] += coef[:, :1]
    E, product = blocks[-1], X3  # X3 is spent: it becomes the product buffer
    for block in blocks[-2::-1]:
        np.matmul(E, X4, out=product)
        block += product
        E = block
    for _ in range(q):
        np.matmul(E, E, out=product)
        E, product = product, E
    return E
