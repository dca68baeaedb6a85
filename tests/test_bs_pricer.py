import hashlib
import math

import mpmath
import numpy as np
import pytest

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
    record = _series_sum(REFERENCE_CONTRACT, 0.0, 60, mpmath.fp).record
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
