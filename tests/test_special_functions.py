import math

import pytest

from mellinbarnes.special_functions import (
    normal_cdf,
    real_gamma_sign,
    real_log_abs_gamma,
)


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    assert normal_cdf(40.0) == 1.0
    assert normal_cdf(-30.0) > 0.0  # erfc keeps relative accuracy deep in the tail
    assert abs(normal_cdf(1.0) - 0.8413447460685429) < 1e-15


def test_erf_series_head():
    # 2/sqrt(pi) (x - x^3/3 + x^5/10 - x^7/42) matches erf to 1e-10 for |x| <= 0.1
    for k in range(-10, 11):
        x = 0.01 * k
        head = 2.0 / math.sqrt(math.pi) * (x - x**3 / 3.0 + x**5 / 10.0 - x**7 / 42.0)
        assert abs(head - math.erf(x)) <= 1e-10


def test_real_gamma_sign():
    assert real_gamma_sign(2.5) == 1.0
    assert real_gamma_sign(-0.5) == -1.0
    assert real_gamma_sign(-1.5) == 1.0
    assert real_gamma_sign(-2.5) == -1.0
    assert math.copysign(1.0, math.gamma(-4.3)) == real_gamma_sign(-4.3)
    assert real_log_abs_gamma(-4.3) == pytest.approx(math.lgamma(-4.3), rel=1e-15)

