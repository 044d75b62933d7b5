import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ar2lab.summation import CompensatedSum, compensated_cumsum

# Finite doubles from subnormals up to 1e300: 64 of them cannot overflow a
# running sum, so every total is finite and comparable bit for bit.
FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=64))
@example([1e16, 1.0, -1e16, 1.0])
@example([-0.0, 0.0, -0.0])
@example([5e-324, -1e300, 1e300, -5e-324])
def test_compensated_cumsum_matches_scalar_accumulator_bitwise(values):
    acc = CompensatedSum()
    expected = np.array([acc.add(v).total for v in values])
    got = compensated_cumsum(values)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
