"""The Siegel Eisenstein series of degree 2 and weight 4 or 6 (psi_4 and
psi_6) from their Fourier coefficients, through Cohen's function H
(Cohen, Math. Ann. 217, 1975; Eichler and Zagier, The Theory of Jacobi
Forms, 1985, section 2).

A cell (n1, n2) with r-exponent rho is T = [[n1, rho/2], [rho/2, n2]],
and g = gcd(n1, rho, n2).  The weight-k series, constant term 1, has

* a(T) = the q^g coefficient of the elliptic E_k at rank <= 1
  (4 n1 n2 = rho^2), so a(0) = 1, its constant term;
* a(T) = c_k * sum_{d | g} d^(k-1) H(k-1, (4 n1 n2 - rho^2) / d^2) at
  rank 2, with c_k = 2 / (zeta(1-k) zeta(3-2k)): c_4 = -60480 and
  c_6 = 66528.

The paper builds the same forms as nu(B) and nu(-8AB - 3C) / 8;
``ringlab.eisenstein_report`` checks the two constructions cell for cell.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt

from .arith import LaurentPoly
from .errors import NormalizationFailure
from .qexp import FourierExpansion, elliptic_form

# weight: (c_k, the elliptic form of its rank <= 1 cells)
_SERIES = {4: (-60480, "E4"), 6: (66528, "E6")}


def _bernoulli(n):
    """B_0..B_n as Fractions, with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def _kronecker(D, n):
    """The Kronecker symbol (D/n) for n >= 1 (on n = 0 the loop would not
    end)."""
    t = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            t = -t
    a = D % n  # the Jacobi symbol (a/n), n odd
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _l_value(r, d0, bern, spf):
    """L(1 - r, chi) = -B_{r,chi} / r for chi = (d0/.), d0 a fundamental
    discriminant:  B_{r,chi} = sum_j C(r, j) B_j F^(j-1) sum_a chi(a) a^(r-j)
    over 1 <= a <= F = |d0|, chi completely multiplicative."""
    F = abs(d0)
    chi = [0, 1] + [0] * (F - 1)
    sums = [0] * (r + 1)  # sums[i] = sum_a chi(a) a^i
    for a in range(1, F + 1):
        p = spf[a]
        if a > 1:
            chi[a] = _kronecker(d0, a) if p == a else chi[p] * chi[a // p]
        x = chi[a]
        if x:
            for i in range(r + 1):
                sums[i] += x
                x *= a
    b = sum(comb(r, j) * bern[j] * Fraction(F) ** (j - 1) * sums[r - j]
            for j in range(r + 1))
    return -b / r


def cohen_h(r, top):
    """[H(r, 0), ..., H(r, top)] as Fractions.  H(r, 0) = zeta(1 - 2r);
    for M > 0, H(r, M) = 0 unless -M = D0 f^2, D0 a fundamental
    discriminant, and then H(r, M) = L(1 - r, chi) * sum_{d | f} mu(d)
    chi(d) d^(r-1) sigma_(2r-1)(f/d), chi = (D0/.)."""
    bern = _bernoulli(2 * r)
    spf = list(range(top + 1))  # smallest prime factors
    for p in range(2, isqrt(top) + 1):
        if spf[p] == p:
            for q in range(p * p, top + 1, p):
                if spf[q] == q:
                    spf[q] = p
    root = isqrt(top)  # f^2 <= M <= top
    sigma, mu = [0] * (root + 1), [0, 1] + [0] * root
    for d in range(1, root + 1):
        if d > 1:
            p = spf[d]
            mu[d] = 0 if (d // p) % p == 0 else -mu[d // p]
        for m in range(d, root + 1, d):
            sigma[m] += d ** (2 * r - 1)
    l_values = {}  # one L(1 - r, chi) per D0
    out = [-bern[2 * r] / (2 * r)]
    for M in range(1, top + 1):
        if M % 4 in (1, 2):  # -M is 2 or 3 mod 4: no discriminant
            out.append(Fraction(0))
            continue
        s, f, n = -1, 1, M  # -M = s f^2, s squarefree
        while n > 1:
            p, e = spf[n], 0
            while n % p == 0:
                n //= p
                e += 1
            s, f = s * p ** (e % 2), f * p ** (e // 2)
        d0, f = (s, f) if s % 4 == 1 else (4 * s, f // 2)
        if d0 not in l_values:
            l_values[d0] = _l_value(r, d0, bern, spf)
        total = sum(mu[d] * _kronecker(d0, d) * d ** (r - 1) * sigma[f // d]
                    for d in range(1, f + 1) if f % d == 0)
        out.append(l_values[d0] * total)
    return out


def siegel_eisenstein(k, N):
    """The Siegel Eisenstein series of weight k in {4, 6} on [0, N],
    weight (0, k), constant term 1.  Cells with n1 <= n2 and rho >= 0 are
    computed and mirrored: rank and divisor sum are invariant under
    n1 <-> n2 and rho -> -rho.

    Raises ValueError for another k or N < 0, and NormalizationFailure
    for a coefficient that is not an integer.
    """
    if k not in _SERIES:
        raise ValueError(f"no Siegel Eisenstein series of weight {k} here; 4 or 6")
    if N < 0:
        raise ValueError("truncation must be at least 0")
    c, name = _SERIES[k]
    h = cohen_h(k - 1, 4 * N * N)
    elliptic = elliptic_form(name, N)
    row = [elliptic.vec_at((n, 0))[0].c[0] for n in range(N + 1)]
    cells = {}
    for n in range(N + 1):
        for m in range(n, N + 1):
            coeffs = {}
            for rho in range(isqrt(4 * n * m) + 1):
                disc, g = 4 * n * m - rho * rho, gcd(n, rho, m)
                if not disc:
                    a = row[g]
                else:
                    a = c * sum(d ** (k - 1) * h[disc // (d * d)]
                                for d in range(1, g + 1) if g % d == 0)
                    if a.denominator != 1:
                        raise NormalizationFailure(
                            f"weight {k}: coefficient {a} at ({n},{rho},{m}) "
                            "is not an integer"
                        )
                    a = a.numerator
                coeffs[rho] = coeffs[-rho] = a
            cells[n, m] = cells[m, n] = (LaurentPoly(coeffs),)
    return FourierExpansion((0, k), False, N, cells)
