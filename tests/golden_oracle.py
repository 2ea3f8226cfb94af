"""Golden bound values, the oracle that regenerates them, and a per-cell phase.

Independent oracle: every displayed formula is re-typed here against
mpmath at 50 digits, with no imports from the package under test.  Run as

    python3 tests/golden_oracle.py

and compare the printed tables against the frozen ``*_GOLDEN`` tables at the
end of this module, which test_bounds.py, test_dispersion.py and
test_acceptance.py import.  :func:`kloosterman_phase` is the one-cell
reference that test_arith.py and test_forms.py check the phase kernel against,
and :func:`phase_rule` restates klab's libm-free rule for e(k / L) with Python
floats, the oracle its bits are checked against.
"""

import math

import mpmath as mp

mp.mp.dps = 50
R = mp.mpf


def coprime_trilinear(M, N, A, theta, norms, eps):
    M, N, A, eps = map(R, (M, N, A, eps))
    amn = A * M * N
    t1 = amn ** (R(7) / 20 + eps) * (M + N) ** (R(1) / 4)
    t2 = amn ** (R(3) / 8 + eps) * (A * N + A * M) ** (R(1) / 8)
    scale = norms[0] * norms[1] * norms[2] * mp.sqrt(1 + abs(theta) * A / (M * N))
    return scale * (t1 + t2)


def fixed_factor_trilinear(M, N, A, RR, theta, norms, eps, x3):
    M, N, A, RR, eps, x3 = map(R, (M, N, A, RR, eps, x3))
    bracket = (
        N ** (-R(1) / 8)
        + RR ** (R(1) / 8) * N ** (R(1) / 8) / M ** (R(1) / 4)
        + M ** (R(1) / 10) / (RR ** (R(3) / 20) * A**x3 * N ** (R(3) / 20))
        + N ** (R(3) / 20) / (A ** (R(3) / 20) * M ** (R(1) / 5))
        + N ** (R(3) / 8) / M ** (R(1) / 2)
    )
    scale = (
        M**eps
        * norms[0] * norms[1] * norms[2]
        * (A * M * N) ** (R(1) / 2)
        * RR ** (R(1) / 4)
        * (1 + abs(theta) * A / (M * N)) ** (R(1) / 4)
    )
    return scale * bracket


def mean_square(M, N, A, b, theta, norms, eps):
    M, N, A, b, eps = map(R, (M, N, A, b, eps))
    terms = (
        A * M * (b * N) ** (R(1) / 2)
        + b ** (R(3) / 4) * A * M ** (R(1) / 2) * N ** (R(5) / 4)
        + A * M ** (R(6) / 5) * N ** (R(1) / 10) / b ** (R(2) / 5)
        + b ** (R(1) / 5) * A ** (R(2) / 5) * M ** (R(6) / 5) * N ** (R(7) / 10)
        + b ** (R(1) / 2) * A ** (R(7) / 10) * M ** (R(3) / 5) * N ** (R(13) / 10)
        + b ** (R(1) / 2) * A * N ** (R(7) / 4)
    )
    return norms[0] ** 2 * norms[1] ** 2 * M**eps * mp.sqrt(1 + abs(theta) * A / (b * M * N)) * terms


def dispersion_rhs(M, N, Q, D, al2, estar, kappa, c, eps, X):
    M, N, Q, D, estar, X = map(R, (M, N, Q, D, estar, X))
    lk = R(1) if (X == 1 and kappa == 0) else mp.log(X) ** kappa
    dc = D**c * X**eps
    s = (
        M / Q * estar
        + lk * N * N * Q
        + lk * N * N * M / mp.sqrt(D)
        + dc * Q ** (R(15) / 8) * N ** (R(11) / 4)
        + dc * M ** (R(3) / 20) * Q ** (R(33) / 20) * N ** (R(51) / 20)
    )
    return al2 * mp.sqrt(s)


def kloosterman_phase(theta, a, m, n, RR=1):
    """e(theta a m^-1 / (n RR)) with the inverse taken mod n RR; the numerator
    is reduced mod n RR in integers before the exponential.  ``pow`` raises
    ValueError when m is not invertible."""
    L = n * RR
    x = (theta * a * pow(m, -1, L)) % L
    return complex(mp.expjpi(2 * R(x) / L))


def _nearest(x):
    """The float nearest to the mpf ``x``."""
    f = float(x)
    return min((math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)), key=lambda g: abs(R(g) - x))


# the Taylor coefficients of cos 2 pi t and sin(2 pi t) / t in t^2, each rounded once
COS_2PI = tuple(_nearest((-1) ** j * (2 * mp.pi) ** (2 * j) / mp.factorial(2 * j)) for j in range(10))
SIN_2PI = tuple(_nearest((-1) ** j * (2 * mp.pi) ** (2 * j + 1) / mp.factorial(2 * j + 1)) for j in range(11))


def phase_rule(k, L):
    """e(k / L) for integers 0 <= k < L by the octant rule, in Python floats:
    o = floor(8k / L) and num = 8k - oL (L - num in odd octants), t = num /
    (8L) by Python's correctly rounded int / int, cos and sin of 2 pi t by
    Horner in t * t, and the octant's swap and signs, a sign being 0.0 minus
    the value.  The angle is o pi / 4 + 2 pi t in even octants and
    (o + 1) pi / 4 - 2 pi t in odd ones."""
    o, num = divmod(8 * k, L)
    if o % 2:
        num = L - num
    t = num / (8 * L)
    u = t * t
    c = COS_2PI[-1]
    for coef in COS_2PI[-2::-1]:
        c = c * u + coef
    s = SIN_2PI[-1]
    for coef in SIN_2PI[-2::-1]:
        s = s * u + coef
    s = s * t
    cos_sin = ((c, s), (s, c), (0.0 - s, c), (0.0 - c, s), (0.0 - c, 0.0 - s), (0.0 - s, 0.0 - c), (s, 0.0 - c),
               (c, 0.0 - s))
    return complex(*cos_sin[o])


def phase_80(k, L):
    """e(k / L) at 80 bits, an mpc."""
    with mp.workprec(80):
        return mp.expjpi(2 * R(k) / L)


BC_PTS = [
    (1, 1, 1, 1, (1, 1, 1), 0.0),
    (4, 8, 2, -3, (1.5, 0.5, 2.0), 0.01),
    (16, 9, 5, 7, (1, 2, 3), 0.0),
    (100, 50, 10, -1, (0.3, 0.7, 1.1), 0.02),
    (256, 128, 16, 2, (1, 1, 1), 0.01),
]
BCR_PTS = [
    (1, 1, 1, 1, 1, (1, 1, 1), 0.0),
    (4, 8, 2, 3, -3, (1.5, 0.5, 2.0), 0.01),
    (16, 9, 5, 2, 7, (1, 2, 3), 0.0),
    (100, 50, 10, 8, -1, (0.3, 0.7, 1.1), 0.02),
    (256, 128, 16, 16, 2, (1, 1, 1), 0.01),
]
CB_PTS = [
    (1, 1, 1, 1, 1, (1, 1), 0.0),
    (4, 8, 2, 2, -3, (1.5, 0.5), 0.01),
    (16, 9, 5, 4, 7, (1, 2), 0.0),
    (100, 50, 10, 9, -1, (0.3, 0.7), 0.02),
    (256, 128, 16, 8, 2, (1, 1), 0.01),
]
DISP_PTS = [
    (1, 1, 1, 1, 1.0, 0.0, 0.0, 0.0, 0.0, 1),
    (8, 4, 16, 2, 1.5, 3.0, 1.0, 2.0, 0.01, 64),
    (100, 10, 50, 4, 0.7, 120.0, 2.0, 1.0, 0.0, 1000),
    (256, 16, 128, 8, 1.0, 0.0, 0.0, 3.0, 0.02, 4096),
    (1000, 30, 500, 2, 2.0, 900.0, 1.0, 5.0, 0.01, 30000),
]


# Frozen output of main(): (argument tuple, value) pairs, checked at 1e-12.
BC_GOLDEN = list(zip(BC_PTS, (
    3.2240036559153699097,
    25.655601199120836933,
    293.82045738553497005,
    85.743268601660146073,
    981.41436149399228577,
)))
BCR_GOLDEN = {
    "statement": list(zip(BCR_PTS, (
        5.9460355750136053336,
        75.816560755692846699,
        700.23931153559041739,
        266.59236619816477731,
        3847.376317920252507,
    ))),
    "proof": list(zip(BCR_PTS, (
        5.9460355750136053336,
        73.984485360766501957,
        647.39005864821459411,
        242.60884466428241929,
        3477.6402313218758082,
    ))),
}
CB_GOLDEN = list(zip(CB_PTS, (
    8.4852813742385702928,
    210.61032274007227289,
    11623.942058348350875,
    8400.8872458365196302,
    1365923.8580661879114,
)))
DISP_GOLDEN = list(zip(DISP_PTS, (
    2.0,
    350.34968748202232387,
    1675.072913931525759,
    126342.46218243928018,
    504594.9337819772429,
)))


def main():
    print("BC_GOLDEN")
    for p in BC_PTS:
        print(f"    ({p!r}, {mp.nstr(coprime_trilinear(*p), 20)}),")
    for x3, label in ((R(1) / 20, "statement"), (R(3) / 10, "proof")):
        print(f"BCR_GOLDEN[{label}]")
        for M, N, A, RR, th, no, e in BCR_PTS:
            print(f"    ({(M, N, A, RR, th, no, e)!r}, "
                  f"{mp.nstr(fixed_factor_trilinear(M, N, A, RR, th, no, e, x3), 20)}),")
    print("BCR extra regression point (R = 1)")
    print(f"    {mp.nstr(fixed_factor_trilinear(16, 9, 5, 1, 7, (1, 2, 3), 0.0, R(1) / 20), 20)}")
    print("CB_GOLDEN")
    for p in CB_PTS:
        print(f"    ({p!r}, {mp.nstr(mean_square(*p), 20)}),")
    print("DISP_GOLDEN")
    for p in DISP_PTS:
        print(f"    ({p!r}, {mp.nstr(dispersion_rhs(*p), 20)}),")


if __name__ == "__main__":
    main()
