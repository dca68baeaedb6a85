import concurrent.futures
import hashlib
import math
import sys

import mpmath
import numpy as np
import pytest

from mellinbarnes import bs_pricer
from mellinbarnes.bs_pricer import (
    MONEYNESS_SERIES_LIMIT,
    OptionContract,
    _series_sum,
    bs_closed_form,
    bs_series,
    bs_series_term,
    forward_term,
    heat_kernel,
    heat_kernel_mb,
    log_moneyness,
)
from mellinbarnes.fractional_green import ConvergenceError
from mellinbarnes.mellin_core import (
    Contour,
    Direction,
    GammaFraction,
    GammaLinearFactor,
    PowerFactor,
    compatible_cone,
    sum_residues,
)

REFERENCE_CONTRACT = OptionContract(spot=3700.0, strike=4000.0, tau=1.0, rate=0.01, sigma=0.25)


def test_contract_validation():
    with pytest.raises(ValueError):
        OptionContract(spot=-1.0, strike=1.0, tau=1.0, rate=0.0, sigma=0.2)
    with pytest.raises(ValueError):
        OptionContract(spot=1.0, strike=1.0, tau=1.0, rate=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        OptionContract(spot=1.0, strike=1.0, tau=0.0, rate=0.0, sigma=0.2)


def test_closed_form_reference_value():
    assert bs_closed_form(REFERENCE_CONTRACT) == pytest.approx(264.82, abs=0.01)


def test_closed_form_deterministic_limit():
    c = OptionContract(spot=120.0, strike=100.0, tau=1.0, rate=0.03, sigma=1e-9)
    assert bs_closed_form(c) == pytest.approx(120.0 - 100.0 * math.exp(-0.03), rel=1e-12)


def test_closed_form_zero_log_moneyness():
    kd = 100.0 * math.exp(-0.02)
    c = OptionContract(spot=kd, strike=100.0, tau=1.0, rate=0.02, sigma=0.3)
    assert log_moneyness(c) == pytest.approx(0.0, abs=1e-15)
    from mellinbarnes.special_functions import normal_cdf
    st = c.sigma_sqrt_tau
    want = c.spot * (normal_cdf(st / 2.0) - normal_cdf(-st / 2.0))
    assert bs_closed_form(c) == pytest.approx(want, rel=1e-13)


def test_series_term_examples():
    c = REFERENCE_CONTRACT
    kd = c.discounted_strike
    L = log_moneyness(c)
    st = c.sigma_sqrt_tau
    inv = 1.0 / math.sqrt(2.0 * math.pi)
    assert bs_series_term(0, 0, c) == pytest.approx(inv * (c.spot - kd) * L / st, rel=1e-14)
    assert bs_series_term(0, 1, c) == pytest.approx(inv * 0.5 * (c.spot + kd) * st, rel=1e-14)
    assert bs_series_term(0, 2, c) == 0.0


def test_displayed_truncation_value():
    # forward term plus the five lowest lattice terms reproduce the quoted 264.79
    c = REFERENCE_CONTRACT
    total = forward_term(c)
    for n, m in [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3)]:
        total += bs_series_term(n, m, c)
    assert total == pytest.approx(264.79, abs=0.01)


def test_series_matches_closed_form_reference_contract():
    res = bs_series(REFERENCE_CONTRACT, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(bs_closed_form(REFERENCE_CONTRACT), rel=1e-10)


def test_series_near_money_region():
    # |[log]|/st <= 3, st in [0.05, 1]: relative gap <= 1e-8 within 200 shells
    for q in (-3.0, -1.5, 0.0, 1.5, 3.0):
        for st in (0.05, 0.2, 1.0):
            spot = math.exp(q * st)
            c = OptionContract(spot=spot, strike=1.0, tau=1.0, rate=0.0, sigma=st)
            res = bs_series(c, tol=1e-12, max_shells=200)
            cf = bs_closed_form(c)
            assert res.converged
            assert abs(res.value - cf) / cf <= 1e-8


def test_recurrence_shells_match_closed_form_terms():
    # tol = 0 never stops: the record holds every term of the first 60 shells
    record = _series_sum(REFERENCE_CONTRACT, 0.0, 60).record
    assert [shell.label for shell in record] == list(range(60))
    worst = 0.0
    for shell in record:
        s = shell.label
        assert [key for key, _ in shell.terms] == [(n, s - n) for n in range(s + 1) if 1 + 3 * n >= s]
        for (n, m), term in shell.terms:
            want = bs_series_term(n, m, REFERENCE_CONTRACT)
            assert want != 0.0
            worst = max(worst, abs(term - want) / abs(want))
    assert worst <= 1e-12


def _record_bits(res):
    return [(sh.label, [(k, t.hex()) for k, t in sh.terms], sh.shell_sum.hex(), sh.partial.hex())
            for sh in res.record]


def test_step_table_is_bounded_and_gives_the_same_bits_cold_and_warm(monkeypatch):
    # tol = 0 never stops: 150 shells run past the cached ones
    assert bs_pricer._STEPS_CACHED < 150
    monkeypatch.setattr(bs_pricer, "_STEPS", {})
    cold = _series_sum(REFERENCE_CONTRACT, 0.0, 150)
    assert sorted(bs_pricer._STEPS) == list(range(bs_pricer._STEPS_CACHED))
    warm = _series_sum(REFERENCE_CONTRACT, 0.0, 150)
    assert len(bs_pricer._STEPS) == bs_pricer._STEPS_CACHED
    assert [sh.label for sh in cold.record] == list(range(150))
    assert _record_bits(warm) == _record_bits(cold)
    assert warm.value.hex() == cold.value.hex()


def test_threads_filling_a_cold_step_table_get_the_same_bits(monkeypatch):
    # the table is shared: threads racing to fill a shell write equal rows
    monkeypatch.setattr(bs_pricer, "_STEPS", {})
    want = _record_bits(_series_sum(REFERENCE_CONTRACT, 0.0, 100))
    monkeypatch.setattr(bs_pricer, "_STEPS", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_series_sum, REFERENCE_CONTRACT, 0.0, 100) for _ in range(16)]
            got = [_record_bits(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(g == want for g in got)
    assert sorted(bs_pricer._STEPS) == list(range(bs_pricer._STEPS_CACHED))


def test_series_zero_log_moneyness_structure():
    kd_ratio = math.exp(-0.02)
    c = OptionContract(spot=100.0 * kd_ratio, strike=100.0, tau=1.0, rate=0.02, sigma=0.3)
    # only the m = 1+2n lattice survives
    assert bs_series_term(0, 0, c) == 0.0
    assert bs_series_term(0, 1, c) != 0.0
    assert bs_series_term(1, 3, c) != 0.0
    assert bs_series_term(1, 2, c) == 0.0
    res = bs_series(c, tol=1e-13)
    assert res.value == pytest.approx(bs_closed_form(c), rel=1e-12)


def test_term_sign_structure():
    # m even carries (S - K e^{-r tau}), m odd carries (S + K e^{-r tau}):
    # terms are linear under joint scaling of (spot, strike)
    c1 = OptionContract(spot=3700.0, strike=4000.0, tau=1.0, rate=0.01, sigma=0.25)
    lam = 1.7
    c2 = OptionContract(spot=lam * c1.spot, strike=lam * c1.strike, tau=1.0, rate=0.01, sigma=0.25)
    kd = c1.discounted_strike
    L = log_moneyness(c1)
    st = c1.sigma_sqrt_tau
    for n in range(11):
        for m in range(11):
            t1 = bs_series_term(n, m, c1)
            t2 = bs_series_term(n, m, c2)
            assert t2 == pytest.approx(lam * t1, rel=1e-12, abs=1e-300)
            if t1 != 0.0:
                strike_part = c1.spot - (-1.0) ** m * kd
                expected_sign = math.copysign(1.0, (-1.0) ** n * L ** (1 + 2 * n - m) * strike_part)
                assert math.copysign(1.0, t1) == expected_sign


def test_put_call_parity_via_closed_forms():
    for spot in (90.0, 100.0, 112.0):
        c = OptionContract(spot=spot, strike=100.0, tau=0.75, rate=0.02, sigma=0.3)
        fwd_full = c.spot - c.discounted_strike
        call_series = bs_series(c, tol=1e-13).value
        put_parity = bs_closed_form(c) - fwd_full
        assert call_series - put_parity == pytest.approx(fwd_full, abs=1e-10 * max(1.0, abs(fwd_full)))


def test_vega_positivity():
    prices = []
    for sigma in np.linspace(0.1, 0.6, 9):
        c = OptionContract(spot=95.0, strike=100.0, tau=1.0, rate=0.01, sigma=float(sigma))
        res = bs_series(c, tol=1e-12)
        assert res.converged
        prices.append(res.value)
    assert all(b > a for a, b in zip(prices, prices[1:]))


def test_series_stable_under_shell_doubling():
    tol = 1e-10
    c = OptionContract(spot=80.0, strike=100.0, tau=1.0, rate=0.02, sigma=0.25)
    a = bs_series(c, tol=tol, max_shells=100)
    b = bs_series(c, tol=tol, max_shells=200)
    assert a.converged
    assert abs(a.value - b.value) <= tol * max(1.0, abs(a.value))


def test_far_from_money_flagged():
    c = OptionContract(spot=30.0, strike=100.0, tau=1.0, rate=0.0, sigma=0.1)
    assert abs(log_moneyness(c)) / c.sigma_sqrt_tau > MONEYNESS_SERIES_LIMIT
    res = bs_series(c)
    assert not res.converged


def test_deep_otm_escalated_precision_and_determinism():
    # the price here is ~2.3e-7 while the largest lattice terms are ~1e3, a
    # condition number ~1e12; the tolerance is an absolute scale for sub-unit
    # sums, so relative accuracy on a tiny price needs tol ~ 1e-9 * price
    c = OptionContract(spot=60.0, strike=100.0, tau=1.0, rate=0.0, sigma=0.1)
    cf = bs_closed_form(c)
    tol = 1e-9 * cf
    r1 = bs_series(c, tol=tol)
    r2 = bs_series(c, tol=tol)
    assert r1.converged
    assert abs(r1.value - cf) / cf <= 1e-8
    assert r1.value == r2.value  # bit-identical reruns


def test_max_term_is_the_escalation_condition_numerator():
    # bs_series escalates when max_term / |value| * 5e-16 > 0.1 * tol
    c = OptionContract(spot=60.0, strike=100.0, tau=1.0, rate=0.0, sigma=0.1)
    tol = 1e-9 * bs_closed_form(c)
    res = bs_series(c, tol=tol)
    assert res.max_term * 5e-16 > 0.1 * tol * abs(res.value)
    ref = bs_series(REFERENCE_CONTRACT, tol=1e-10)
    assert not ref.max_term * 5e-16 > 0.1 * 1e-10 * abs(ref.value)


# (spot, tau, rate, sigma) at strike 100 -> value, terms_used, converged,
# max_term and a hash of the record's per-term floats of the escalated pass
ESCALATED_BITS = [
    ((40.0, 1.0, 0.02, 0.2),
     ("0x1.3de8edcac2c6ap-17", 1200, True, "0x1.ee547601ed7ddp+13", "bb8ff6f17f5fe0ae")),
    ((40.0, 0.25, 0.01, 0.45),
     ("0x1.422f4f07d0058p-14", 972, True, "0x1.a01857e342c13p+11", "17442554f2b27872")),
    ((45.0, 0.5, 0.05, 0.3),
     ("0x1.da7018cb497e9p-12", 736, True, "0x1.77d977f56e8dcp+9", "91a91982ffe93981")),
    ((48.0, 2.0, 0.0, 0.15),
     ("0x1.06b34bdae4bb5p-10", 675, True, "0x1.aa90457c6831bp+8", "645866a7eed249c3")),
    ((50.0, 1.0, 0.02, 0.2),
     ("0x1.699af4abf847bp-10", 616, True, "0x1.333d69b51f8e4p+8", "4efc06176f4f986e")),
    ((55.0, 1.0, 0.02, 0.2),
     ("0x1.0d5e67453c738p-7", 456, True, "0x1.598198cccca7bp+6", "0d186fcaad4d0f8b")),
    ((55.0, 0.5, 0.05, 0.3),
     ("0x1.0c3cf7106af1ap-6", 408, True, "0x1.e74518bb34272p+5", "a067c02f5722e880")),
    ((55.0, 2.0, 0.0, 0.15),
     ("0x1.6f3b681a6ebbbp-7", 432, True, "0x1.3f285b3702abfp+6", "96363989e4adc9eb")),
]


@pytest.mark.parametrize("params, bits", ESCALATED_BITS)
def test_escalated_bits_are_pinned(params, bits):
    spot, tau, rate, sigma = params
    c = OptionContract(spot, 100.0, tau, rate, sigma)
    assert abs(log_moneyness(c)) / c.sigma_sqrt_tau <= MONEYNESS_SERIES_LIMIT
    tol = min(1e-10, 1e-9 * bs_closed_form(c))
    res = bs_series(c, tol=tol)
    assert res.max_term * 5e-16 > 0.1 * tol * abs(res.value)  # the mpmath pass ran
    floats = ",".join(t.hex() for sh in res.record for _, t in sh.terms)
    got = (res.value.hex(), res.terms_used, res.converged, res.max_term.hex(),
           hashlib.sha256(floats.encode()).hexdigest()[:16])
    assert got == bits


def _escalated_bits(params):
    spot, tau, rate, sigma = params
    c = OptionContract(spot, 100.0, tau, rate, sigma)
    res = bs_series(c, tol=min(1e-10, 1e-9 * bs_closed_form(c)))
    floats = ",".join(t.hex() for sh in res.record for _, t in sh.terms)
    return (res.value.hex(), res.terms_used, res.converged, res.max_term.hex(),
            hashlib.sha256(floats.encode()).hexdigest()[:16])


def test_threads_get_the_pinned_escalated_bits():
    # each escalation builds its own context and tables; threads switching
    # every microsecond through every pinned contract get the pinned bits
    jobs = ESCALATED_BITS * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_escalated_bits, params) for params, _ in jobs]
            got = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [bits for _, bits in jobs]


def test_escalated_pass_at_the_money_without_drift():
    # spot = strike, rate 0: x and S - K e^{-r tau} are exactly 0 in the
    # context, so the zero table entries give no term and only p = 0 remains
    c = OptionContract(spot=100.0, strike=100.0, tau=1.0, rate=0.0, sigma=0.2)
    res = bs_pricer._series_sum_mp(c, 1e-15, 200, 30)
    assert res.converged
    assert all(1 + 2 * n - m == 0 for sh in res.record for (n, m), _ in sh.terms)
    assert res.value == pytest.approx(bs_closed_form(c), rel=1e-14)
    assert res.value == pytest.approx(_series_sum(c, 1e-15, 200).value, rel=1e-14)


# (q, tau, rate, sigma) at strike 100, spot 100 exp(q sigma sqrt(tau) - rate tau),
# so q = [log] / (sigma sqrt tau): contracts whose float pass escalates
ESCALATING = [
    (-5.5, 1.0, 0.02, 0.2), (-5.0, 0.3, 0.04, 0.5), (-4.5, 0.5, 0.05, 0.3),
    (-4.0, 2.0, 0.0, 0.15), (-3.5, 0.25, 0.01, 0.45), (-3.0, 1.0, 0.03, 0.25),
    (-2.7, 1.0, 0.02, 0.2), (5.4, 1.0, 0.05, 0.45), (5.45, 2.5, 0.02, 0.3),
    (5.5, 0.4, 0.02, 0.5),
]


def _lattice_terms_mp(c, ctx):
    """The forward term and bs_series_term's closed form as a function of
    (n, m), evaluated in the mpmath context ctx."""
    S, K = ctx.mpf(c.spot), ctx.mpf(c.strike)
    r, tau, sigma = ctx.mpf(c.rate), ctx.mpf(c.tau), ctx.mpf(c.sigma)
    st = sigma * ctx.sqrt(tau)
    L = ctx.log(S / K) + r * tau
    strike_part = (S - K * ctx.exp(-r * tau), S + K * ctx.exp(-r * tau))
    inv = 1 / ctx.sqrt(2 * ctx.pi)

    def term(n, m):
        p = 1 + 2 * n - m
        coef = ctx.mpf((-1) ** n * math.factorial(2 * n)) / (
            2 ** (n + m) * math.factorial(n) * math.factorial(m) * math.factorial(p))
        return inv * coef * strike_part[m % 2] * L ** p * st ** (-1 + 2 * (m - n))

    return strike_part[0] / 2, term


@pytest.mark.parametrize("q, tau, rate, sigma", ESCALATING)
def test_escalated_terms_match_closed_form_terms_at_higher_precision(monkeypatch, q, tau, rate, sigma):
    c = OptionContract(100.0 * math.exp(q * sigma * math.sqrt(tau) - rate * tau), 100.0, tau, rate, sigma)
    tol = min(1e-10, 1e-9 * bs_closed_form(c))
    digits = []
    elevated = bs_pricer._series_sum_mp

    def spy(c, tol, max_shells, dps):
        digits.append(dps)
        return elevated(c, tol, max_shells, dps)

    monkeypatch.setattr(bs_pricer, "_series_sum_mp", spy)
    res = bs_series(c, tol=tol)
    assert res.converged and len(digits) == 1
    ctx = mpmath.MPContext()
    ctx.dps = digits[0] + 20
    total, term = _lattice_terms_mp(c, ctx)
    for shell in res.record:
        for (n, m), t in shell.terms:
            want = term(n, m)
            assert t == float(want), (n, m)
            total += want
    assert res.value == float(total)


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def test_heat_kernel_peak_symmetry_normalization():
    assert heat_kernel(0.0, 1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    assert heat_kernel(0.7, 2.0, 0.4) == heat_kernel(-0.7, 2.0, 0.4)
    xs = np.linspace(-8.0, 8.0, 801) * 0.4 * math.sqrt(2.0)
    ys = [heat_kernel(float(x), 2.0, 0.4) for x in xs]
    assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=1e-10)


def test_heat_kernel_mb_matches_gaussian():
    assert heat_kernel_mb(1.0, 1.0, 1.0) == pytest.approx(0.2419707245, abs=1e-10)
    assert heat_kernel_mb(0.1, 1.0, 0.5) == pytest.approx(heat_kernel(0.1, 1.0, 0.5), rel=1e-10)
    # equivalent scalings (Legendre-duplication route) hit the same oracle
    for (y, tau, sigma) in [(0.7, 0.25, 2.0), (1.3, 4.0, 0.3), (2.0, 1.0, 1.0)]:
        assert heat_kernel_mb(y, tau, sigma) == pytest.approx(heat_kernel(y, tau, sigma), rel=1e-10)


def test_heat_kernel_mb_raises_when_the_series_does_not_converge():
    # u = 5 sqrt(2): the right sum grows until the divergence exit fires after
    # 11 terms, at a partial sum of about 5572.5 where the density is 1.49e-6
    with pytest.raises(ConvergenceError):
        heat_kernel_mb(5.0, 1.0, 1.0)


def test_heat_kernel_mb_domain_error():
    with pytest.raises(ValueError):
        heat_kernel_mb(0.0, 1.0, 1.0)


def _bs_fractions(c):
    """The two parts of the Black-Scholes residue lattice as two-variable Gamma
    fractions in w = (-n, -m), p = 1+2n-m: Gamma(w1) Gamma(1-w1) Gamma(1/2-w1)
    Gamma(w2) / Gamma(2-2w1+w2) * |L|^p st^(2w1-2w2-1) 2^(w2-w1), one for the
    spot and one for the strike.  Gamma(1/2+w2) Gamma(1/2-w2) = pi/cos(pi w2)
    in a denominator cancels the (-1)^m of Gamma(w2)'s residues; it sits in
    the part whose sign does not alternate with m, which L^p's sign decides."""
    L = log_moneyness(c)
    numerator = (GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((-1.0, 0.0), 1.0),
                 GammaLinearFactor((-1.0, 0.0), 0.5), GammaLinearFactor((0.0, 1.0), 0.0))
    lattice = (GammaLinearFactor((-2.0, 1.0), 2.0),)
    cosine = (GammaLinearFactor((0.0, 1.0), 0.5), GammaLinearFactor((0.0, -1.0), 0.5))
    powers = (PowerFactor(abs(L), (-2.0, 1.0), 1.0),
              PowerFactor(c.sigma_sqrt_tau, (2.0, -2.0), -1.0),
              PowerFactor(2.0, (-1.0, 1.0), 0.0))
    spot, strike = c.spot / math.sqrt(2.0), -c.discounted_strike / math.sqrt(2.0)
    if L > 0.0:
        return (GammaFraction(numerator, lattice + cosine, powers, spot),
                GammaFraction(numerator, lattice, powers, strike / math.pi))
    return (GammaFraction(numerator, lattice, powers, -spot / math.pi),
            GammaFraction(numerator, lattice + cosine, powers, -strike))


def test_the_price_is_a_sum_over_a_compatible_cone_of_two_variable_fractions():
    # the several-variable theorem on an integrand with a diagonal divisor
    # family; acceptance criterion 2's grid at r = 0.02 and |x| <= 2.5, where
    # x = L/(sigma sqrt tau)
    contour = Contour((0.25, 0.5))
    points = 0
    for sk in (0.6, 0.8, 1.0, 1.25, 1.6):
        for st in (0.1, 0.25, 0.5):
            c = OptionContract(spot=sk, strike=1.0, tau=1.0, rate=0.02, sigma=st)
            if abs(log_moneyness(c)) / c.sigma_sqrt_tau > 2.5:
                continue
            closed = bs_closed_form(c)
            price = forward_term(c)
            for f in _bs_fractions(c):
                cone = compatible_cone(f, contour)
                assert cone.faces == (Direction.LEFT, Direction.LEFT)
                res = sum_residues(f, contour, cone, tol=min(1e-10, 1e-9 * closed), budget=400)
                assert res.converged, (sk, st)
                price += res.value
            assert price == pytest.approx(closed, rel=1e-8), (sk, st)
            points += 1
    assert points == 13


def test_at_the_money_series_keeps_only_the_log_free_terms():
    # log(S/K) + r tau = 0 exactly: every term with a positive power of the log vanishes
    c = OptionContract(100.0, 100.0, 1.0, 0.0, 0.2)
    assert log_moneyness(c) == 0.0
    assert all(bs_series_term(n, m, c) == 0.0
               for n in range(8) for m in range(2 * n + 1))
    res = bs_series(c, tol=1e-14)
    terms = dict(kt for shell in res.record for kt in shell.terms)
    assert sorted(terms) == [(n, 2 * n + 1) for n in range(8)]
    for (n, m), t in terms.items():
        assert t == pytest.approx(bs_series_term(n, m, c), rel=1e-14, abs=0)
    assert res.value == pytest.approx(bs_closed_form(c), rel=1e-14, abs=0)
