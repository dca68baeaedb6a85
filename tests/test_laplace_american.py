import cmath
import concurrent.futures
import json
import math
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mellinbarnes import laplace_american
from mellinbarnes._summation import KahanSum
from mellinbarnes.laplace_american import (
    AmericanConstants,
    LaplaceSymbol,
    UnreliableInversionError,
    _exp,
    _invl_w_pow_over_p,
    _log,
    _sqrt,
    american_kernel_oracle,
    american_kernel_series,
    american_kernel_symbol,
    boundary_symbol,
    effective_abscissa,
    exercise_boundary,
    f_power,
    f_shifted,
    inverse_laplace,
    laguerre_coefficients,
    laguerre_gen,
    regularized_gamma_p,
    talbot_inverse,
    vertical_inverse,
)
from mellinbarnes.special_functions import PoleError

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CONSTS = AmericanConstants.from_rates(0.1, 0.3)


# ---------------------------------------------------------------------------
# constants and closed forms
# ---------------------------------------------------------------------------

def test_constants_from_rates():
    c = CONSTS
    assert c.gamma_c == pytest.approx(2 * 0.1 / 0.09, rel=1e-15)
    assert c.a == pytest.approx((1 + c.gamma_c) / 2, rel=1e-15)
    assert c.b == pytest.approx((1 - c.gamma_c) / 2, rel=1e-15)
    assert abs(c.a * c.a - c.b * c.b - c.gamma_c) <= 1e-14 * c.a * c.a


def test_constants_invalid():
    with pytest.raises(ValueError):
        AmericanConstants.from_rates(0.0, 0.3)
    with pytest.raises(ValueError):
        AmericanConstants(gamma_c=1.0, a=2.0, b=0.5)  # a^2 != b^2 + gamma


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-4, max_value=0.5), st.floats(min_value=0.01, max_value=2.0))
def test_constants_identity_property(r, sigma):
    c = AmericanConstants.from_rates(r, sigma)
    assert abs(c.a * c.a - (c.b * c.b + c.gamma_c)) <= 1e-14 * max(1.0, c.a * c.a)


def test_f_power_values():
    assert f_power(1.0, 0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    for x in (0.2, 1.0, 3.7):
        assert f_power(x, 0.5) == pytest.approx(1.0 / math.sqrt(math.pi * x), rel=1e-14)
        assert f_power(x, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert f_power(x, 2.0) == pytest.approx(x, rel=1e-14)
    with pytest.raises(PoleError):
        f_power(1.0, 0.0)
    with pytest.raises(PoleError):
        f_power(1.0, -2.0)


def test_laguerre_low_orders():
    # l_0 = x^nu; l_1 = nu x^{nu-1} - alpha x^nu (derivative convention)
    for alpha in (0.0, 0.5, 1.3):
        for nu in (0.5, 2.0, 3.7):
            for x in (0.4, 1.7):
                assert laguerre_gen(0, alpha, x, nu) == pytest.approx(x**nu, rel=1e-14)
                want1 = nu * x ** (nu - 1.0) - alpha * x**nu
                assert laguerre_gen(1, alpha, x, nu) == pytest.approx(want1, rel=1e-13)
    # n=2, alpha=0, nu=2: second derivative of x^2 is the constant 2
    assert laguerre_gen(2, 0.0, 1.9, 2.0) == pytest.approx(2.0, rel=1e-14)


def test_laguerre_gen_is_a_plain_left_fold():
    # builtin sum() compensates floats since Python 3.12 and gives ...5453p+0
    # here: the value must not depend on the Python version
    assert laguerre_gen(2, 0.5, 0.5, 0.5).hex() == "-0x1.3cc8a99af5454p+0"


def test_laguerre_coefficient_recurrence():
    # L_{n+1} = d/dx L_n translates to l_{n+1} = l_n' - alpha l_n on coefficients
    alpha, nu = 0.7, 2.5
    for n in range(6):
        cur = dict(laguerre_coefficients(n, alpha, nu))
        nxt = dict(laguerre_coefficients(n + 1, alpha, nu))
        derived: dict = {}
        for k, c in cur.items():
            derived[k] = derived.get(k, 0.0) - alpha * c
            derived[k + 1] = derived.get(k + 1, 0.0) + (nu - k) * c
        derived = {k: v for k, v in derived.items() if v != 0.0}
        assert set(derived) == set(nxt)
        for k in derived:
            assert derived[k] == pytest.approx(nxt[k], rel=1e-13)


def test_f_shifted_closed_forms():
    for x in (0.3, 1.0, 4.2):
        assert f_shifted(0, 1.0, 0.5, x) == pytest.approx(
            math.exp(-x) / math.sqrt(math.pi * x), rel=1e-13)
        assert f_shifted(0, 0.0, 1.5, x) == pytest.approx(f_power(x, 1.5), rel=1e-13)


def test_f_shifted_against_bromwich():
    sym = LaplaceSymbol(func=lambda p: p / (p + 1.0) ** 3, mu=1.0)
    got = inverse_laplace(sym, 1.0, tol=1e-9).value
    assert f_shifted(1, 1.0, 3.0, 1.0) == pytest.approx(got, abs=1e-8)


def test_laplace_identity_fixes_sign_convention():
    # this grid is the test that freezes the Laguerre sign convention
    for (n, nu) in [(1, 3.0), (2, 4.0), (3, 5.0)]:
        for alpha in (0.5, 1.0):
            for x in (0.5, 1.0, 2.0):
                sym = LaplaceSymbol(func=lambda p, n=n, a=alpha, v=nu: p**n / (p + a) ** v, mu=1.0)
                want = inverse_laplace(sym, x, tol=1e-9).value
                assert f_shifted(n, alpha, nu, x) == pytest.approx(want, abs=1e-7, rel=1e-7)


# ---------------------------------------------------------------------------
# Bromwich machinery
# ---------------------------------------------------------------------------

def test_inverse_laplace_basics():
    one_over_p = LaplaceSymbol(func=lambda p: 1 / p, mu=1.0)
    res = inverse_laplace(one_over_p, 2.0)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.spread < 1e-9
    inv_sqrt = LaplaceSymbol(func=lambda p: 1 / _sqrt(p), mu=1.0)
    assert inverse_laplace(inv_sqrt, 1.0).value == pytest.approx(1 / math.sqrt(math.pi), rel=1e-12)
    ramp = LaplaceSymbol(func=lambda p: 1 / p**2, mu=1.0)
    assert inverse_laplace(ramp, 2.5).value == pytest.approx(2.5, rel=1e-11)


def test_inverse_laplace_detects_branch_right_of_talbot_contour():
    # sqrt branch point at p = 5 lies right of the Talbot contour for x = 4
    # (rightmost point 2M/(5x) = 4.8) but left of the vertical line at mu = 6:
    # the methods disagree and the oracle refuses
    sym = LaplaceSymbol(func=lambda p: 1 / (p * _sqrt(p - 5.0)), mu=6.0, mu_min=5.0)
    with pytest.raises(UnreliableInversionError):
        inverse_laplace(sym, 4.0)


def test_symbol_helpers_keep_the_precision_of_a_private_context():
    ctx = mpmath.MPContext()
    ctx.dps = 40
    p = ctx.mpc(2, 1)
    assert _sqrt(p) == ctx.sqrt(p) and _exp(p) == ctx.exp(p) and _log(p) == ctx.log(p)
    assert abs(_sqrt(p) - complex(_sqrt(p))) > ctx.mpf(10) ** -30
    assert _sqrt(complex(4.0, 0.0)) == 2.0


def test_talbot_and_vertical_agree_on_decaying_kernel():
    f = lambda p: 1 / _sqrt(p + 1.0)
    for x in (0.1, 1.0, 2.5, 10.0):
        want = math.exp(-x) / math.sqrt(math.pi * x)
        assert talbot_inverse(f, x) == pytest.approx(want, rel=1e-12)
        # the vertical method's error scale is set by e^{mu x}, so its
        # *relative* accuracy degrades as the value decays at large x
        assert vertical_inverse(f, x, mu=1.0) == pytest.approx(want, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("m", [0, 1, -3, 2.0, None])
def test_talbot_inverse_rejects_a_bad_node_count(m):
    # m = -3 used to return 0.0247 for 1/(p^2+1) at x = 1, where the answer is sin 1
    with pytest.raises(ValueError):
        talbot_inverse(lambda p: 1 / (p * p + 1), 1.0, m=m)


def test_cold_talbot_cache_under_threads(monkeypatch):
    taus = (0.1, 0.5, 1.2, 2.0)
    serial = [exercise_boundary(tau, 0.08, 0.3) for tau in taus]
    monkeypatch.setattr(laplace_american, "_TALBOT_CACHE", {})
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda tau: exercise_boundary(tau, 0.08, 0.3), taus))
    assert threaded == serial
    cache = laplace_american._TALBOT_CACHE
    assert list(cache) == [48]
    assert all(ctx.dps == int(0.19 * m) + 20 for m, (ctx, _, _) in cache.items())


def _vertical_node_by_node(func, x, mu, panels=160, nodes=24, averaged=40, symbol_scale=4.0):
    """Reference for vertical_inverse: the same nodes, one scalar symbol call
    each, cells added in order within a panel."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    h = math.pi / x
    nsub = min(128, max(1, math.ceil(h / symbol_scale)))
    partials = []
    acc = KahanSum(0.0)
    for k in range(panels):
        s = 0.0
        for j in range(nsub):
            mid = (k + (j + 0.5) / nsub) * h
            half = 0.5 * h / nsub
            for xi, wi in zip(xs, ws):
                y = mid + half * xi
                s += wi * half * (complex(func(complex(mu, y))) * cmath.exp(1j * y * x)).real
        acc.add(s)
        partials.append(acc.value)
    tail = partials[-averaged:]
    while len(tail) > 1:
        tail = [0.5 * (tail[i] + tail[i + 1]) for i in range(len(tail) - 1)]
    return math.exp(mu * x) / math.pi * tail[0]


def test_vertical_inverse_matches_node_by_node_reference():
    # numpy sums a panel's cells in another order and its sqrt/exp/log/cos
    # may differ in the last bit: a few ulps per node, far below 1e-12
    boundary = boundary_symbol(0.1, 0.3)
    kernel = american_kernel_symbol(2, 1, CONSTS)
    for sym, x in ((boundary, 0.25), (boundary, 1.0), (kernel, 1.0)):
        mu = effective_abscissa(sym, x)
        want = _vertical_node_by_node(sym.func, x, mu)
        assert vertical_inverse(sym.func, x, mu) == pytest.approx(want, rel=1e-12)


def test_vertical_inverse_calls_the_symbol_on_blocks_of_nodes():
    sym = boundary_symbol(0.1, 0.3)
    args = []

    def spy(p):
        args.append(p)
        return sym.func(p)

    vertical_inverse(spy, 0.25, mu=sym.mu)
    # 160 panels x 4 cells x 24 nodes = 15,360 nodes, at most 4096 per call
    assert len(args) == math.ceil(160 * 4 * 24 / 4096) == 4
    assert all(isinstance(p, np.ndarray) and p.dtype == complex and p.size <= 4096
               for p in args)
    assert sum(p.size for p in args) == 160 * 4 * 24


def test_vertical_inverse_memory_is_bounded_by_the_block():
    # x = 0.05 has 61,440 nodes; evaluated at once the symbol's temporaries
    # take several MB
    sym = boundary_symbol(0.1, 0.3)
    mu = effective_abscissa(sym, 0.05)
    vertical_inverse(sym.func, 0.05, mu)
    tracemalloc.start()
    try:
        vertical_inverse(sym.func, 0.05, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_non_finite_contour_values_are_unreliable():
    # e^{-p^2} overflows on both contours; neither inf nor nan may pass the band
    sym = LaplaceSymbol(lambda p: _exp(-p * p), mu=1.0)
    with pytest.raises(UnreliableInversionError):
        inverse_laplace(sym, 1.0)


def test_regularized_gamma_p_against_mpmath():
    for s in (0.5, 1.0, 1.7, 3.0, 7.5, 12.0):
        for x in (0.05, 0.5, 1.0, 2.6, 8.0, 30.0):
            want = float(mpmath.gammainc(s, 0, x, regularized=True))
            assert regularized_gamma_p(s, x) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_regularized_gamma_p_at_zero():
    for s in (0.5, 1.0, 7.5):
        assert regularized_gamma_p(s, 0.0) == 0.0


def test_invl_w_pow_over_p_against_bromwich():
    a = 1.3
    for k in (0, 1, 2, 3, 4, 5):
        sym = LaplaceSymbol(
            func=lambda p, k=k: _sqrt(p + a * a) ** k / p, mu=max(1.0, a * a + 1.0))
        for tau in (0.4, 1.0):
            want = talbot_inverse(sym.func, tau)
            assert _invl_w_pow_over_p(k, tau, a) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# American kernel
# ---------------------------------------------------------------------------

def test_kernel_series_matches_oracle_grid():
    for tau in (0.25, 1.0):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                s = american_kernel_series(n, m, tau, CONSTS, tol=1e-12)
                o = american_kernel_oracle(n, m, tau, CONSTS)
                assert s.converged
                assert abs(s.value - o) / abs(o) <= 1e-4, (n, m, tau)


def test_kernel_series_other_rate_regimes():
    # gamma < 1 flips the sign of b (geometric ratio |b|/a larger); larger
    # order gaps exercise deeper binomial tails
    low = AmericanConstants.from_rates(0.02, 0.4)
    assert low.b > 0.0
    for (n, m, tau) in ((2, 1, 0.5), (3, 1, 1.5), (1, 2, 0.75)):
        s = american_kernel_series(n, m, tau, low, tol=1e-12)
        o = american_kernel_oracle(n, m, tau, low)
        assert s.converged
        assert s.value == pytest.approx(o, rel=1e-6)
    s = american_kernel_series(6, 1, 2.0, CONSTS, tol=1e-12)
    o = american_kernel_oracle(6, 1, 2.0, CONSTS)
    assert s.value == pytest.approx(o, rel=1e-6)


@pytest.mark.parametrize("rates", [(0.1, 0.3), (0.02, 0.4)])
def test_kernel_binomial_with_order_gap_of_three_or_more(rates):
    # m - n >= 3 reaches the odd powers (p+a^2)^{k/2}/p with k >= 3, whose
    # transforms take the derivatives of E from the Laguerre polynomials
    c = AmericanConstants.from_rates(*rates)
    for n, m in ((1, 4), (1, 5), (1, 6), (2, 5), (2, 6)):
        for tau in (0.25, 1.0):
            s = american_kernel_series(n, m, tau, c, tol=1e-12)
            o = american_kernel_oracle(n, m, tau, c)
            assert s.converged
            assert s.value == pytest.approx(o, rel=1e-9), (n, m, tau)


def test_kernel_degenerate_b_zero_single_term():
    # 2r = sigma^2 -> gamma = 1, b = 0: the series collapses to its first term
    c = AmericanConstants.from_rates(0.045, 0.3)
    assert c.b == 0.0
    s = american_kernel_series(3, 1, 1.0, c)
    assert s.terms_used == 1 and s.converged
    o = american_kernel_oracle(3, 1, 1.0, c)
    assert s.value == pytest.approx(o, rel=1e-9)
    # n = m: constant kernel (-1)^m
    s11 = american_kernel_series(1, 1, 0.7, c)
    assert s11.value == pytest.approx(-1.0, abs=1e-15)


B_ZERO = AmericanConstants.from_rates(0.045, 0.3)  # gamma = 1, b = 0
B_POS = AmericanConstants.from_rates(0.02, 0.3)  # gamma < 1, b > 0

# (constants, n, m, tau, value, converged, last_shell_magnitude, max_term,
# terms_used): the kernel series as it was when the finite binomial had its
# own summation loop and the b = 0 series its own completion rule
KERNEL_PINS = [
    (CONSTS, 1, 2, 0.05, '0x1.1dc52e430df23p+1', True, '0x0.0p+0', '0x1.6bfe11d146d5cp+1', 2),
    (CONSTS, 1, 2, 0.5, '0x1.0b9774c3d5ad6p+0', True, '0x0.0p+0', '0x1.a8093be047748p+0', 2),
    (CONSTS, 1, 2, 2.0, '0x1.000b2d6342e74p+0', True, '0x0.0p+0', '0x1.9c7cf47fb4ae6p+0', 2),
    (CONSTS, 2, 3, 0.05, '-0x1.1dc52e430df23p+1', True, '0x0.0p+0', '0x1.6bfe11d146d5cp+1', 2),
    (CONSTS, 2, 3, 0.5, '-0x1.0b9774c3d5ad6p+0', True, '0x0.0p+0', '0x1.a8093be047748p+0', 2),
    (CONSTS, 2, 3, 2.0, '-0x1.000b2d6342e74p+0', True, '0x0.0p+0', '0x1.9c7cf47fb4ae6p+0', 2),
    (CONSTS, 1, 3, 0.05, '0x1.03523780b5f58p-1', True, '0x0.0p+0', '0x1.bce13238abe8ep+1', 3),
    (CONSTS, 1, 3, 0.5, '-0x1.e3aa37e86774cp-1', True, '0x0.0p+0', '0x1.4c3f35ba78195p+1', 3),
    (CONSTS, 1, 3, 2.0, '-0x1.ffe4ad7f2391ep-1', True, '0x0.0p+0', '0x1.4c3f35ba78195p+1', 3),
    (CONSTS, 2, 5, 0.05, '0x1.09478f2d320a1p+4', True, '0x0.0p+0', '0x1.d8ed7b00e1af8p+3', 4),
    (CONSTS, 2, 5, 0.5, '-0x1.e69351d02af49p-1', True, '0x0.0p+0', '0x1.308f469598c1ep+2', 4),
    (CONSTS, 2, 5, 2.0, '-0x1.00052a279515dp+0', True, '0x0.0p+0', '0x1.308f469598c1ep+2', 4),
    (CONSTS, 2, 1, 0.5, '-0x1.949ac20a6a236p-1', True, '0x1.02e5f9b5ac1c5p-47', '0x1.1bbd64fed001dp-1', 20),
    (CONSTS, 2, 1, 2.0, '-0x1.fc96581407dbep-1', True, '0x1.ce34f3752886ap-45', '0x1.3d638cef0cf7ap-1', 26),
    (CONSTS, 6, 1, 0.5, '-0x1.316e241b110dfp-4', True, '0x1.33d3e047350dbp-46', '0x1.979a635f4536cp-6', 21),
    (CONSTS, 6, 1, 2.0, '-0x1.7b1ac561ebe18p-1', True, '0x1.303b33f6ec34fp-46', '0x1.52cf925b0ac05p-3', 31),
    (B_ZERO, 1, 1, 0.05, '-0x1.0000000000000p+0', True, '0x0.0p+0', '0x1.0000000000000p+0', 1),
    (B_ZERO, 1, 1, 0.5, '-0x1.0000000000000p+0', True, '0x0.0p+0', '0x1.0000000000000p+0', 1),
    (B_ZERO, 1, 2, 0.05, '0x1.52f9cc903d068p+1', True, '0x0.0p+0', '0x1.52f9cc903d068p+1', 2),
    (B_ZERO, 1, 2, 0.5, '0x1.2aa8534ad994cp+0', True, '0x0.0p+0', '0x1.2aa8534ad994cp+0', 2),
    (B_ZERO, 1, 3, 0.05, '-0x1.0000000000000p+0', True, '0x0.0p+0', '0x1.0000000000000p+0', 3),
    (B_ZERO, 1, 3, 0.5, '-0x1.0000000000000p+0', True, '0x0.0p+0', '0x1.0000000000000p+0', 3),
    (B_ZERO, 2, 5, 0.05, '0x1.55a3f73cc324fp+4', True, '0x0.0p+0', '0x1.55a3f73cc324fp+4', 4),
    (B_ZERO, 2, 5, 0.5, '-0x1.5d897a241a6fcp-1', True, '0x0.0p+0', '0x1.5d897a241a6fcp-1', 4),
    (B_ZERO, 3, 1, 0.05, '-0x1.8f874f58d95a1p-5', True, '0x1.8f874f58d95a1p-5', '0x1.8f874f58d95a1p-5', 1),
    (B_ZERO, 3, 1, 0.5, '-0x1.92e9a0720d3ebp-2', True, '0x1.92e9a0720d3ebp-2', '0x1.92e9a0720d3ebp-2', 1),
    (B_ZERO, 3, 1, 2.0, '-0x1.bab5557101f8dp-1', True, '0x1.bab5557101f8dp-1', '0x1.bab5557101f8dp-1', 1),
    (B_POS, 1, 3, 0.5, '-0x1.272234677c994p+0', True, '0x0.0p+0', '0x1.1bb306d54b5ecp-1', 3),
    (B_POS, 3, 1, 0.5, '-0x1.568580173781fp-2', True, '0x1.7e99cfa19c936p-50', '0x1.c2ade2a5f933dp-2', 16),
]


def test_kernel_series_keeps_every_bit():
    for c, n, m, tau, value, converged, last, max_term, terms in KERNEL_PINS:
        s = american_kernel_series(n, m, tau, c)
        if c.b == 0.0:
            # b = 0 leaves one non-zero term, j = 0, and it is the whole
            # series: counted like any other series, with an empty tail
            last, terms = (0.0).hex(), 1
        got = (s.value.hex(), s.converged, s.last_shell_magnitude.hex(), s.max_term.hex(),
               s.terms_used)
        assert got == (value, converged, last, max_term, terms), (c, n, m, tau)
        assert s.record and s.record[-1].partial == s.value
        if n <= m:  # the finite binomial is one shell of terms j = 0 .. m - n
            assert [sh.label for sh in s.record] == [0] and s.exhausted
            assert [j for j, _ in s.record[0].terms] == list(range(m - n + 1 if c.b else 1))


def test_kernel_small_tau_limit():
    # for n > m the 1/p-smoothed transform vanishes at tau -> 0+
    for (n, m) in ((2, 1), (3, 1), (3, 2)):
        v = american_kernel_series(n, m, 1e-4, CONSTS).value
        assert abs(v) < 5e-2
        v2 = american_kernel_series(n, m, 1e-6, CONSTS).value
        assert abs(v2) < abs(v)


def test_kernel_derivative_consistency():
    # d/dtau of the kernel matches inversion without the 1/p factor
    n, m, tau = 2, 1, 1.0
    g, a2, b = CONSTS.gamma_c, CONSTS.a ** 2, CONSTS.b

    def phi_no_smoothing(p):
        w = _sqrt(p + a2)
        return (p + g) ** m / ((b + w) ** n * (b - w) ** m)

    want = talbot_inverse(phi_no_smoothing, tau)
    h = 1e-3
    fd = (american_kernel_series(n, m, tau + h, CONSTS).value
          - american_kernel_series(n, m, tau - h, CONSTS).value) / (2 * h)
    assert fd == pytest.approx(want, abs=1e-4, rel=1e-4)


def test_kernel_series_tol_scaling():
    for tol in (1e-6, 1e-7):
        a = american_kernel_series(2, 1, 1.0, CONSTS, tol=tol).value
        b = american_kernel_series(2, 1, 1.0, CONSTS, tol=tol / 10.0).value
        assert abs(a - b) < 10.0 * tol


def test_kernel_input_validation():
    with pytest.raises(ValueError):
        american_kernel_series(0, 1, 1.0, CONSTS)
    with pytest.raises(ValueError):
        american_kernel_oracle(1, 1, -1.0, CONSTS)


# ---------------------------------------------------------------------------
# exercise boundary
# ---------------------------------------------------------------------------

def test_boundary_dual_method_agreement_and_monotonicity():
    taus = [0.05, 0.1, 0.25, 0.5, 1.0]
    values = []
    for tau in taus:
        inv = exercise_boundary(tau, 0.1, 0.3)
        assert abs(inv.talbot - inv.vertical) / abs(inv.talbot) <= 1e-5
        values.append(inv.value)
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-6


def test_boundary_limits():
    # tau -> 0+: approaches 1 (value at expiry, units of strike); this limit
    # study sits below the dual-method range, so it uses the Talbot oracle
    phi = boundary_symbol(0.1, 0.3).func
    b_small = talbot_inverse(phi, 0.01)
    b_tiny = talbot_inverse(phi, 0.002)
    assert 0.7 < b_small < 1.0
    assert b_small < b_tiny < 1.0
    # tau -> inf: perpetual boundary gamma/(1+gamma)
    g = CONSTS.gamma_c
    assert talbot_inverse(phi, 60.0) == pytest.approx(g / (1 + g), abs=1e-6)


def test_boundary_symbol_large_p_normalization():
    # p phi(p) -> 1 as p -> +inf: boundary value 1 at expiry
    phi = boundary_symbol(0.1, 0.3).func
    assert complex(1e8 * phi(complex(1e8, 0.0))).real == pytest.approx(1.0, abs=1e-3)


def test_boundary_branch_check_clean_for_valid_rates():
    for (r, sigma) in ((0.1, 0.3), (0.02, 0.4), (0.3, 0.2)):
        inv = exercise_boundary(0.5, r, sigma)
        assert inv.value > 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=3.0), st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=1e-3, max_value=1e4))
def test_boundary_log_argument_stays_in_the_right_half_plane(r, sigma, mu, height):
    # p + gamma = (w - b)(w + b) and gamma + b = a, so the log argument of
    # boundary_symbol is (a + w)/gamma: with a > 0 and the principal root it
    # never reaches the negative real axis, and no branch cut is crossed
    c = AmericanConstants.from_rates(r, sigma)
    g, a, b = c.gamma_c, c.a, c.b
    p = mu + 1j * height * np.arange(65) / 64
    w = np.sqrt(p + a * a)
    arg = 1 - (p + g) / (g * (b - w))
    want = (a + w) / g
    assert np.all(np.abs(arg - want) <= 1e-12 * np.abs(want))
    assert a / g > 0.5 and np.all(arg.real >= a / g)


# ---------------------------------------------------------------------------
# golden records
# ---------------------------------------------------------------------------

def golden_records(name):
    return [json.loads(line) for line in (GOLDEN_DIR / name).read_text().splitlines()]


def test_golden_line_round_trip():
    record = {"n": 1, "m": 2, "tau": 0.15000000000000002, "r": 0.1, "sigma": 0.3,
              "value": -0.78061099582184645}
    back = json.loads(json.dumps(record, sort_keys=True))
    assert back == record and type(back["n"]) is int and type(back["m"]) is int
    keys = {"american_kernel.jsonl": ["m", "n", "r", "sigma", "tau", "value"],
            "exercise_boundary.jsonl": ["r", "sigma", "tau", "value"]}
    for name, want in keys.items():
        for line in (GOLDEN_DIR / name).read_text().splitlines():
            assert json.dumps(json.loads(line), sort_keys=True) == line
            assert list(json.loads(line)) == want


def test_golden_kernel_regression():
    for rec in golden_records("american_kernel.jsonl"):
        c = AmericanConstants.from_rates(rec["r"], rec["sigma"])
        got = american_kernel_oracle(rec["n"], rec["m"], rec["tau"], c)
        # Talbot values come from pure mpmath arithmetic: exact reproduction
        assert got == rec["value"]


def test_golden_boundary_regression():
    for rec in golden_records("exercise_boundary.jsonl"):
        got = exercise_boundary(rec["tau"], rec["r"], rec["sigma"]).value
        assert got == rec["value"]


def test_an_overflowing_vertical_factor_is_an_unreliable_inversion():
    # e^{mu x} at the effective abscissa 10.5 and x = 100 is beyond the double range
    sym = LaplaceSymbol(lambda p: 1 / (p - 10), 11.0, 10.0)
    with pytest.raises(UnreliableInversionError, match="not finite"):
        inverse_laplace(sym, 100.0)


def test_talbot_takes_a_numpy_integer_node_count():
    # an m no other test uses, so the numpy integer builds the nodes
    f = lambda p: 1 / (p + 1)  # noqa: E731
    assert talbot_inverse(f, 1.0, m=np.int64(37)) == talbot_inverse(f, 1.0, m=37)


def _stirling_first_kind_rows():
    """Rows m = 1, 2, ... of the unsigned Stirling numbers of the first kind,
    c(m, n) at index n, by c(m, n) = c(m-1, n-1) + (m-1) c(m-1, n)."""
    row = [1]  # c(0, 0)
    while True:
        m = len(row)
        row = [0] + [row[n - 1] + (m - 1) * (row[n] if n < m else 0) for n in range(1, m + 1)]
        yield row


def test_stirling_rows_count_permutations_by_cycles():
    rows = _stirling_first_kind_rows()
    assert [next(rows) for _ in range(4)] == [[0, 1], [0, 1, 1], [0, 2, 3, 1], [0, 6, 11, 6, 1]]
    assert all(sum(next(rows)) == math.factorial(m) for m in range(5, 30))


@pytest.mark.parametrize("r, sigma, tau", [(0.1, 0.2, 1.0), (0.1, 0.2, 4.0), (0.05, 0.2, 4.0),
                                           (0.03, 0.15, 4.0)])
def test_the_boundary_is_a_stirling_sum_of_american_kernels(r, sigma, tau):
    # with u = (p+gamma)/(gamma(b-w)) the boundary symbol is
    # (1/p) exp{-log(1-u)/(b+w)}; expanding the exp and
    # (-log(1-u))^n/n! = sum_{m>=n} c(m,n) u^m/m! turns each u^m/(p (b+w)^n)
    # into A_{n,m}/gamma^m, so
    # B(tau) = 1 + sum_{m>=1} sum_{n=1..m} c(m,n)/(m! gamma^m) A_{n,m}(tau)
    c = AmericanConstants.from_rates(r, sigma)
    total = 1.0
    for m, stirling in enumerate(_stirling_first_kind_rows(), start=1):
        assert m <= 60, "the rows did not fall below 1e-16"
        scale = math.factorial(m) * c.gamma_c ** m
        row = 0.0
        for n in range(1, m + 1):
            kernel = american_kernel_series(n, m, tau, c, tol=1e-14)
            assert kernel.converged, (n, m)
            row += stirling[n] / scale * kernel.value
        total += row
        if abs(row) < 1e-16:
            break
    assert total == pytest.approx(exercise_boundary(tau, r, sigma).value, abs=1e-13)


@pytest.mark.parametrize("r, sigma", [(0.1, 0.2), (0.05, 0.2)])
def test_the_boundary_tends_to_the_perpetual_put_boundary(r, sigma):
    # Merton (1973): the perpetual put is exercised at gamma/(1+gamma) of the strike
    g = 2.0 * r / (sigma * sigma)
    assert exercise_boundary(8.0, r, sigma).value == pytest.approx(g / (1.0 + g), abs=1e-12)
