"""Property twin of tests/test_affine_scan.py: random structure tensors
(with or without a unit) over F_2, F_3, F_5, F_4 and F_9, random variants
and random invertible maps; `scan_c` must print the reference scan's report
byte for byte and make N + 1 twist() calls."""

import sys

import pytest

from reference_scan import reference_scan_c
from twistkit.algebra import Algebra
from twistkit.fields import ExtensionField, PrimeField
from twistkit.linalg import Matrix
from twistkit.twist import scan_c

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TWIST = sys.modules["twistkit.twist"]   # the module; `twistkit.twist` is the function

# (field, F_p degree, largest dimension) with at most 125 elements c
FIELDS = [(PrimeField(2), 1, 3), (PrimeField(3), 1, 3), (PrimeField(5), 1, 2),
          (ExtensionField(2, 2), 2, 2), (ExtensionField(3, 2), 2, 1)]


@st.composite
def elements(draw, field):
    return field.element_at(draw(st.integers(0, field.order() - 1)))


@st.composite
def invertible_maps(draw, field, n):
    m = Matrix(field, [[draw(elements(field)) for _ in range(n)] for _ in range(n)])
    hypothesis.assume(m.is_invertible())
    return m


@st.composite
def scans(draw):
    field, k, top = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, top))
    table = [[[draw(elements(field)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    unit = None
    if draw(st.booleans()):
        one, zero = field.one(), field.zero()
        for i in range(n):
            table[0][i] = table[i][0] = [one if j == i else zero for j in range(n)]
        unit = table[0][0]
    alg = Algebra(field, table, unit=unit, label="rand")
    return (alg, draw(st.integers(1, 12)), draw(invertible_maps(field, n)),
            draw(invertible_maps(field, n)), n * k)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(scans())
def test_scan_matches_reference(case):
    alg, variant, f, g, big = case
    calls = []
    twist = TWIST.twist
    TWIST.twist = lambda a, spec: calls.append(1) or twist(a, spec)
    try:
        text = scan_c(alg, variant, f, g).text()
    finally:
        TWIST.twist = twist
    assert len(calls) == big + 1
    assert text == reference_scan_c(alg, variant, f, g).text()
