"""Reference recurrences on mpf objects at the active precision, against
which the fixed-point kernels are checked."""

import mpmath as mp


def mpf_binomials(alpha, order=0):
    """The order-th alpha-derivative of C(m + alpha - 2, m - 1) for m = 1,
    2, ...: d[i] <- d[i] (m + alpha - 1) / m + i d[i - 1] / m."""
    d = [mp.mpf(1)] + [mp.mpf(0)] * order
    m = 1
    while True:
        yield d[order]
        c = (m + alpha - 1) / m
        for i in range(order, 0, -1):
            d[i] = d[i] * c + i * d[i - 1] / m
        d[0] *= c
        m += 1


def mpf_nested(k, a, star, jet=None):
    """S_1, S_2, ... by the nested-sum recurrence; ``jet``, when given,
    multiplies the innermost factor."""
    r = len(k)
    S = [mp.mpf(0)] * r + [mp.mpf(1)]
    slots = range(r - 1, -1, -1) if star else range(r)
    m = 0
    while True:
        m += 1
        if jet is not None:
            S[r] = next(jet)
        for j in slots:
            if S[j + 1]:
                S[j] += S[j + 1] / (m + a[j] - 1) ** k[j]
        yield S[0]


def mpf_useries(terms, u):
    """sum c u^m log(u)^j over the {(m, j): c} of ``terms``, one mpf power
    of u per term."""
    lu = mp.log(u)
    lpow = {0: mp.mpf(1)}
    total = mp.mpf(0)
    for (m, j), c in terms.items():
        if j not in lpow:
            lpow[j] = lu ** j
        total += c * u ** m * lpow[j]
    return total


def mpf_polylog(k, x, frame):
    """Li_k(x) (frame 1) or A(k; x) (frame 2) summed over m_1 <= m for
    m = 1, 2, ... by their defining series: x^d_0(m_1) prod_j
    d_j(m_j)^(-k_j) over m_1 > ... > m_r >= 1, d_j(m) = m for Li and
    2 m - r + j for A, whose sum carries 2^r."""
    r = len(k)
    S = [mp.mpf(0)] * r + [mp.mpf(1)]
    m = 0
    while True:
        m += 1
        for j in range(r):
            if S[j + 1]:
                d = m if frame == 1 else 2 * m - r + j
                w = S[j + 1] / mp.mpf(d) ** k[j]
                S[j] += x ** d * w if j == 0 else w
        yield S[0] if frame == 1 else S[0] * 2 ** r


def mpf_defining(k, x, frame, bits):
    """Li_k(x) (frame 1) or A(k; x) (frame 2) by :func:`mpf_polylog` at the
    active precision, summed until x^(frame m) is below 2^-bits."""
    for m, total in enumerate(mpf_polylog(k, x, frame), 1):
        if x ** (frame * m) < mp.ldexp(1, -bits):
            return total
