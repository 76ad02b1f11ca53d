from pathlib import Path

import pytest

from siegellift import AntiCycChar, CurveData, ImagQuadField, parse_eigenfile

DATA = Path(__file__).parent / "data"


@pytest.fixture
def curve_11a3():
    # Cremona 11a3: y^2 + y = x^3 - x^2, conductor 11, split multiplicative at 11
    return CurveData(0, -1, 1, 0, 0, conductor=11)


@pytest.fixture
def delta_form():
    return parse_eigenfile(DATA / "delta_weight12.txt")


@pytest.fixture
def delta_path():
    return DATA / "delta_weight12.txt"


@pytest.fixture
def chi_gauss():
    # weight-4 anti-cyclotomic character of Q(i)
    return AntiCycChar(ImagQuadField(-4), 2)
