"""Property test for the prime-field regrep kernel: random structure tensors
over F_2..F_7 and random x, against the `Scalar` determinant of
`left_mul_matrix(x)`."""

import pytest

from twistkit.algebra import Algebra
from twistkit.fields import PrimeField
from twistkit.forms import NormForm

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.data())
def test_kernel_matches_scalar_det(data):
    field = PrimeField(data.draw(st.sampled_from([2, 3, 5, 7])))
    n = data.draw(st.integers(1, 4))
    entries = st.integers(0, field.p - 1)
    vals = data.draw(st.lists(entries, min_size=n**3, max_size=n**3))
    alg = Algebra(field, [[[field.element(vals[(i * n + j) * n + k]) for k in range(n)]
                           for j in range(n)] for i in range(n)])
    x = [field.element(v) for v in data.draw(st.lists(entries, min_size=n, max_size=n))]
    assert NormForm.regrep_form(alg).evaluate(x) == alg.left_mul_matrix(x).det()
