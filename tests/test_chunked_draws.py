"""The numpy behaviour the deep trainer's chunked batch draws rest on.

The trainer draws the batch positions of a chunk of steps with one
``Generator.integers(0, n, size=(steps, batch))`` call per stream.  Its
members equal the per-step reference loop of tests/test_deep.py only if
that call returns the rows that ``steps`` calls of ``size=batch`` return,
and leaves the generator where they leave it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(2, 2**40), batch=st.integers(1, 80), steps=st.integers(1, 12),
       seed=st.integers(0, 2**64 - 1))
@example(n=795, batch=63, steps=7, seed=0)  # odd batches of 32-bit draws
@example(n=2**31 + 5, batch=3, steps=5, seed=1)
@example(n=2**40, batch=5, steps=3, seed=2)  # 64-bit draws
def test_one_chunk_draw_equals_per_step_draws(n, batch, steps, seed):
    chunked, stepped = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = chunked.integers(0, n, size=(steps, batch))
    want = np.array([stepped.integers(0, n, size=batch) for _ in range(steps)])
    np.testing.assert_array_equal(rows, want)
    # the next draw of either generator is the same too
    np.testing.assert_array_equal(chunked.integers(0, n, size=batch),
                                  stepped.integers(0, n, size=batch))
