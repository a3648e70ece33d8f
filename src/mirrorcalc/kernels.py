"""Integer kernels of the series arithmetic and the quintic BCOV
pipeline, wrapped by ``series.ExactSeries``, ``quintic`` and ``gw``; the
CLI's pipeline subcommands run on this module, without ``fractions``;
both charts of the mirror map are solved online from ``OPERATOR``.

A rational series is int numerators over one denominator, ``nums, den``,
returned reduced (den > 0, gcd(den, *nums) = 1), which ``series_json``
writes; a rational value is a pair (p, q), written by ``ratio``.
"""

import reprlib
from functools import cache
from math import factorial, gcd, isqrt, lcm
from operator import mul


class SeriesError(ValueError):
    """Base class for series domain errors."""


class TagMismatchError(SeriesError):
    """Raised when two series in different formal variables are combined."""


class NonUnitError(SeriesError):
    """Raised when division/log requires an invertible constant term."""


class CompositionError(SeriesError):
    """Raised when substitution or reversion preconditions fail."""


class ExtractionError(SeriesError):
    """Raised when extraction preconditions fail."""


def reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums/den over den > 0 with gcd(den, *nums) = 1."""
    if den != 1:
        if den < 0:
            nums, den = [-v for v in nums], -den
        if (g := gcd(den, *nums)) != 1:
            nums, den = [v // g for v in nums], den // g
    return nums, den


def ratio(p: int, q: int) -> str:
    """p/q in lowest terms as "p/q", or "p" when the denominator is 1,
    as ``str(Fraction(p, q))`` writes it."""
    (p,), q = reduced([p], q)
    return f"{p}/{q}" if q != 1 else str(p)


def series_json(nums, den: int, tag: str) -> dict:
    """The JSON form of the series nums/den in ``tag``: its order and
    each coefficient as ``ratio`` writes it."""
    return {"variable_tag": tag, "order": len(nums) - 1,
            "coefficients": [ratio(v, den) for v in nums]}


def _solve(c: list[int], dc: int, w, d: list[int]) -> tuple[list[int], int]:
    """The triangular recurrence
    out[m] = (c[m]/dc + sum_{k=1}^{m} w[k] out[m-k]) / d[m], m = 0..len(c)-1,
    for integers c, dc, w and nonzero integers d.

    The out[j] are kept as integer numerators over their running least
    common denominator, returned with them: each out[m] is reduced once,
    so the result is reduced, and integral results keep it at 1.
    """
    nums: list[int] = []          # out[j] * den, oldest first
    den = 1
    for m in range(len(c)):
        s = sum(map(mul, w[1:m + 1], reversed(nums)))
        p, q = c[m] * den + dc * s, dc * den * d[m]
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        p, q = p // g, q // g
        if den % q:
            k = q // gcd(den, q)
            nums = [v * k for v in nums]
            den *= k
        nums.append(p * (den // q))
    return nums, den


def _convolve(a, b, n: int) -> list[int]:
    """The product of two integer series, (a b)[k] = sum_j a[j] b[k-j],
    k = 0..n."""
    return [sum(map(mul, a[:k + 1], b[k::-1])) for k in range(n + 1)]


def divide(a, da: int, b, db: int) -> tuple[list[int], int]:
    """(a/da) / (b/db) to the shorter length; b[0] = 0 raises NonUnitError."""
    if not b[0]:
        raise NonUnitError("divisor has zero constant term")
    n = min(len(a), len(b))
    # out[m] = (a[m] - sum_{k>=1} b[k] out[m-k]) / b[0] on a*db over da
    return _solve([v * db for v in a[:n]], da, [-v for v in b[:n]],
                  [b[0]] * n)


def exp(a, da: int) -> tuple[list[int], int]:
    """exp(a/da), for a[0] = 0 (else NonUnitError), by the recurrence
    f' = a' f, i.e. n f_n = sum_{k=1}^{n} k a_k f_{n-k}."""
    if a[0]:
        raise NonUnitError("exp needs zero constant term")
    n = len(a) - 1
    return _solve([1] + [0] * n, 1, [k * v for k, v in enumerate(a)],
                  [1] + [m * da for m in range(1, n + 1)])


def log_derivative(a) -> tuple[list[int], int]:
    """t f'/f for f = a/den, any den, by one division; a[0] = 0 raises
    NonUnitError."""
    if not a[0]:
        raise NonUnitError("log_derivative needs nonzero constant term")
    return _solve([m * v for m, v in enumerate(a)], 1, [-v for v in a],
                  [a[0]] * len(a))


def _dirichlet(n: int, f, g, f2=(), g2=()) -> list[int]:
    """h = f * g + f2 * g2 at 1..n for one or two pairs of int sequences
    indexed from 1 (f, f2 may stop before n; g, g2 reach it), in one sweep
    split at r = isqrt(n): a pair with dk <= n has d <= r or k <= r, so one
    slice per d <= r spreads over all k and one per k <= r over d in
    (r, n//k], each with an explicit stop, adding both pairs' products."""
    r, top = isqrt(n), min(n, max(len(f), len(f2)) - 1)
    h, g2 = [0] * (n + 1), g2 or g          # one pair: f2 pads to 0s
    f, f2 = ([*s[:top + 1], *[0] * (top + 1 - len(s))] for s in (f, f2))
    for d in range(1, min(r, top) + 1):
        a, b, s = f[d], f2[d], slice(1, n // d + 1)
        h[d:n + 1:d] = [z + a * x + b * y
                        for z, x, y in zip(h[d:n + 1:d], g[s], g2[s])]
    for k, a, b in zip(range(1, r + 1), g[1:r + 1], g2[1:r + 1]):
        m = min(n // k, top)                # d = r+1..m
        s, t = slice(r + 1, m + 1), slice((r + 1) * k, m * k + 1, k)
        h[t] = [z + a * x + b * y for z, x, y in zip(h[t], f[s], f2[s])]
    return h


@cache
def _inverses(n: int) -> tuple[tuple[int, ...], ...]:
    """mu, mu id, sigma_1^-1: the inverses of 1, id, sigma_1, once per n.
    mu by its sieve sum_{d|m} mu(d) = [m = 1]: mu(d) is final once its
    proper divisors are spread; then sigma_1^-1 = mu * (mu id), as
    sigma_1 = 1 * id."""
    mu = [int(m == 1) for m in range(n + 1)]
    for d in range(1, n // 2 + 1):
        mu[2 * d::d] = [v - mu[d] for v in mu[2 * d::d]]
    mu_id = [m * v for m, v in enumerate(mu)]
    return tuple(mu), tuple(mu_id), tuple(_dirichlet(n, mu, mu_id))


def integral(pairs, what: str) -> dict[int, int]:
    """{d: p/q} for pairs (p, q), q > 0, d = 1, 2, ..., or ExtractionError
    naming p/q in lowest terms, each part shortened by ``reprlib`` or, past
    the 4300 digits CPython writes (2^14284 < 10^4300), by its bit length."""
    out = {}
    for d, (p, q) in enumerate(pairs, 1):
        if p % q:
            (p,), q = reduced([p], q)
            p, q = (reprlib.repr(v) if v.bit_length() <= 14284 else
                    f"{'-' * (v < 0)}<{v.bit_length()}-bit int>" for v in (p, q))
            raise ExtractionError(f"{what} at degree {d} is not an integer: "
                                  f"{p}/{q}")
        out[d] = p // q
    return out


# The quintic's kappa = H^3, c2.H and Euler number chi; c2.H and chi are
# even (c2.H = 12 chi(O(H)) - 2 H^3, chi = 2 (h11 - h21)).  BCOV's genus-one
# formula (hep-th/9302103) at h11 = 1: 6 G = (c2.H/2) u + (24 - chi/2) L(y)
# + L(w) - 6 L(u), so G(0) = c2.H/12; the Yukawa coupling has K(0) = kappa.
KAPPA, C2H, CHI = 5, 50, -200
# The quintic's Picard-Fuchs operator theta^4 - x P(theta), theta = x d/dx,
# as (mu, p3, p2, p1, p0), P = mu theta^4 + p3 theta^3 + ... + p0 =
# 5 (5 theta + 1)(5 theta + 2)(5 theta + 3)(5 theta + 4).
OPERATOR = (3125, 6250, 4375, 1250, 120)
CHART = ("y0", "q_of_x", "x_of_q", "u_of_q", "y0_of_q")


def period(order: int) -> list[int]:
    """y0 = sum_n (5n)!/(n!)^5 x^n, x = (5 psi)^-5, the holomorphic
    period normalized by y0(0) = 1 (no term for an order below 0)."""
    return [factorial(5 * n) // factorial(n) ** 5 for n in range(order + 1)]


def _p_values(n: int) -> list[int]:
    """P(t) at t = 0..n, for P of OPERATOR, by Horner's rule."""
    mu, p3, p2, p1, p0 = OPERATOR
    return [(((mu * t + p3) * t + p2) * t + p1) * t + p0 for t in range(n + 1)]


def picard_fuchs_check(a) -> bool:
    """True iff (theta^4 - x P(theta)) y0 vanishes to truncation for
    y0 = a, theta = x d/dx and P of OPERATOR; the recursion
    n^4 a_n = P(n-1) a_{n-1} is homogeneous."""
    P = _p_values(len(a))
    return all(n ** 4 * a[n] == a[n - 1] * P[n - 1] for n in range(1, len(a)))


def _quotient(a: int, m: int) -> int:
    """a / m, exact in an integral chart, else SeriesError."""
    if a % m:
        raise SeriesError(f"the chart solve divides by {m} with a remainder")
    return a // m


def x_chart(a) -> list[int]:
    """q(x) = x E(x) to the order of the integral period a = y0, one
    coefficient per step from OPERATOR.  T = theta_x log q = 1/u(q(x)) is
    integral, T(0) = 1; y0 log q is the second period, and in (theta^4 -
    x P(theta)) (y0 log q) = 0 the log q terms cancel, leaving at x^m
    m^3 T_m = sum_{i<m} (a_i [P](i, m-1) - a_{i+1} D(i+1, m)) T_{m-1-i}
    for D(l, m) = (m + l)(m^2 + l^2) = (m^4 - l^4)/(m - l) and [P](l, t) =
    (P(t) - P(l))/(t - l), P'(t) at l = t; then m E_m = sum_{k<=m} T_k
    E_{m-k}.  Each division by m^3 or m is exact (else SeriesError)."""
    mu, p3, p2, p1, _ = OPERATOR
    P, T, E = _p_values(len(a)), [1], [1]
    for m in range(1, len(a) - 1):
        t = m - 1
        col = [a[i] * ((P[t] - P[i]) // (t - i))
               - a[i + 1] * (m + i + 1) * (m * m + (i + 1) ** 2)
               for i in range(t)]
        col.append(a[t] * (((4 * mu * t + 3 * p3) * t + 2 * p2) * t + p1)
                   - 4 * m ** 3 * a[m])
        T.append(_quotient(sum(map(mul, col, reversed(T))), m ** 3))
        E.append(_quotient(sum(map(mul, T[1:], reversed(E))), m))
    return [0, *E][:len(a)]


def q_chart(order: int) -> tuple[list[int], list[int], list[int]]:
    """x(q), u(q) = q d(log x)/dq and y0(x(q)) to q^order, integral, one
    coefficient at a time from OPERATOR.  For X = x(q), Y_i = (theta_x^i
    y0)(X) and Y_i log q + Z_i = (theta_x^i y0 log q(x))(X), each level F has
    theta_q F_i = u F_{i+1} - S_i and F_4 = X (P . F), S = 0 for Y, Y for Z.
    At q^m one downward step per level reads P . F below m (X(0) = 0), then
    m F_i = (u F_{i+1})_m - S_i for i = 3, 2, 1 (and 0 for Y), free of u_m
    as F_{i+1}(0) = 0; Z_0 = 0 and Z_1(0) = 1 give u_m = Y_0,m - sum_{k<m}
    u_k Z_1,m-k.  Each division by m is exact (else SeriesError)."""
    if order < 1:
        raise SeriesError(f"order must be >= 1, not {order}")
    c = OPERATOR[::-1]                          # c[i]: theta^i in P
    X, u = [0, 1], [1]
    Y = [[1], [0], [0], [0], [0]]
    Z = [[0] * (order + 1), [1], [0], [0], [0]]
    PY, PZ = [c[0]], [c[1]]                     # P . Y, P . Z
    for m in range(1, order + 1):
        for F, PF, S in (Y, PY, [Z[0]] * 4), (Z, PZ, Y):    # S = 0 for Y
            F[4].append(sum(map(mul, X[1:], PF[::-1])))
            for i in (3, 2, 1):
                F[i].append(_quotient(
                    sum(map(mul, u, F[i + 1][:0:-1])) - S[i][m], m))
        Y[0].append(_quotient(sum(map(mul, u, Y[1][:0:-1])), m))
        u.append(Y[0][m] - sum(map(mul, u, Z[1][:0:-1])))
        PY.append(sum(map(mul, c, (y[m] for y in Y))))
        PZ.append(sum(map(mul, c, (z[m] for z in Z))))
        X.append(_quotient(sum(map(mul, u[1:], X[:0:-1])), m))
    return X[:-1], u, Y[0]


def mirror_map(order: int) -> tuple[list[int], ...]:
    """y0, q_of_x, x_of_q, u_of_q, y0_of_q to x^order or q^order, integral:
    the period with its Picard-Fuchs check, q(x) by ``x_chart``, and x(q),
    u = q d(log x)/dq and y0(x(q)) by ``q_chart``, which checks the order."""
    y0 = period(order)
    if not picard_fuchs_check(y0):
        raise SeriesError("the period y0 fails its Picard-Fuchs equation")
    return y0, x_chart(y0), *q_chart(order)


def log_derivatives(x, u, y) -> tuple:
    """L(y), L(w), L(u) over their lcd, and it (L(f) = q f'/f), for the
    integral x(q), u(q), y = y0(x(q)); w = 1 - mu x is formed here."""
    w = [1, *(-OPERATOR[0] * v for v in x[1:])]
    ls = [log_derivative(f) for f in (y, w, u)]
    den = lcm(*(d for _, d in ls))
    return (*([v * (den // d) for v in nums] for nums, d in ls), den)


def f1_log_derivative(u, logs) -> tuple[list[int], int]:
    """G = (c2.H/2 u + (24 - chi/2) L(y) + L(w) - 6 L(u)) / 6 from u(q)
    and the ``log_derivatives`` logs; G(0) != c2.H/12 raises."""
    ly, lw, lu, den = logs
    a, b = C2H // 2 * den, 24 - CHI // 2
    G, dG = reduced([a * v + b * y + w - 6 * e
                     for v, y, w, e in zip(u, ly, lw, lu)], 6 * den)
    if 12 * G[0] != C2H * dG:
        raise SeriesError(
            f"G must have constant term {C2H}/12, not {ratio(G[0], dG)}")
    return G, dG


def instanton_numbers(c, den: int) -> dict[int, int]:
    """Genus-zero GV numbers n_d, d = 1..len(c) - 1, from c[d] = d^3 N0(d)
    den: the multicover rule d^3 N0 = (d^3 n) * 1 inverted as c * mu."""
    h = _dirichlet(n := len(c) - 1, c, _inverses(n)[0])
    return integral([(h[d], den * d ** 3) for d in range(1, n + 1)],
                    "genus-zero instanton number")


def genus_zero(u, y, logs) -> tuple[list[int], int]:
    """The Yukawa coupling K = kappa u^3 / (w y^2) = kappa + sum_d d^3
    N0(d) q^d by exp's recurrence m K_m = sum_{k=1}^m L(K)_k K_{m-k},
    L(K) = 3 L(u) - L(w) - 2 L(y), from K(0) = kappa u(0)^3/y(0)^2,
    w(0) = 1; K(0) != kappa raises."""
    ly, lw, lu, den = logs
    LK = [3 * e - c - 2 * b for b, c, e in zip(ly, lw, lu)]
    K, dK = _solve([KAPPA * u[0] ** 3] + [0] * (len(LK) - 1), 1, LK,
                   [y[0] ** 2] + [m * den for m in range(1, len(LK))])
    if K[0] != KAPPA * dK:
        raise SeriesError(
            f"K must have constant term {KAPPA}, not {ratio(K[0], dK)}")
    return K, dK


def extract_n1(G, dG: int, n0, d0: int) -> list[tuple[int, int]]:
    """N1(m) = p/q as pairs, m = 1..len(G) - 1, from G/dG and N0(d) =
    n0[d]/d0.  The Lambert form reads -2 (d N1) * sigma_1 = G + (d N0/6) * 1,
    so, as 1 * sigma_1^-1 = mu id, one sweep gives -12 den d N1 =
    (6 den G) * sigma_1^-1 + (den d N0) * mu id, den = lcm(d0, dG)."""
    if 12 * G[0] != C2H * dG:
        raise ExtractionError(
            f"constant term of G must be {C2H}/12, got {ratio(G[0], dG)}")
    order, den = len(G) - 1, lcm(d0, dG)
    k0, k = den // d0, 6 * (den // dG)
    _, mu_id, sigma_inv = _inverses(order)
    h = _dirichlet(order, [k * v for v in G], sigma_inv,
                   [0, *(k0 * d * n0[d] for d in range(1, order + 1))], mu_id)
    return [(-h[m], 12 * den * m) for m in range(1, order + 1)]


def extract_gv(n1) -> dict[int, int]:
    """Genus-one GV numbers from extract_n1's pairs; integrality enforced."""
    return integral(n1, "genus-one instanton number")
