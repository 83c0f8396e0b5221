"""Reference values that tests compare with, each from its definition and none from quditnc."""

import math

import mpmath


def poisson_central_moments(lam, top):
    """The central moments 0..top - 1 of a Poisson distribution of mean lam, by recurrence."""
    c = [1.0, 0.0]
    for n in range(1, top):
        c.append(lam * sum(math.comb(n, i) * c[i] for i in range(n)))
    return c


def stirling2(r, k):
    # S(r, k) from its explicit sum, in exact integers: sum_i (-1)^i C(k, i) (k - i)^r / k!.
    total = sum((-1) ** i * math.comb(k, i) * (k - i) ** r for i in range(k + 1))
    return total // math.factorial(k)


def exponential_column(d, alpha, digits=40):
    # exp(alpha a+ - alpha* a)|0> to `digits` digits, as mpmath numbers: the
    # Taylor series of the tridiagonal generator applied to the vacuum.  The
    # terms grow to about e^b, b = 2 |alpha| sqrt(d - 1) bounding the
    # generator's norm, so the series is summed with that many more digits.
    b = 2.0 * abs(alpha) * math.sqrt(d - 1)
    with mpmath.workdps(digits + 10 + int(b / math.log(10.0))):
        a = mpmath.mpc(complex(alpha))
        up = [a * mpmath.sqrt(n) for n in range(d)]
        down = [-mpmath.conj(a) * mpmath.sqrt(n + 1) for n in range(d)]
        term = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (d - 1)
        total = list(term)
        k, tiny = 0, mpmath.mpf(10) ** -(digits + 5)
        while k <= b or max(abs(t) for t in term) > tiny:
            k += 1
            term = [
                ((up[n] * term[n - 1] if n else 0) + (down[n] * term[n + 1] if n + 1 < d else 0)) / k
                for n in range(d)
            ]
            total = [s + t for s, t in zip(total, term)]
        return total
