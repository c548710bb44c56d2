"""Defects the benchmark found in coralign, kept as expected failures.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests/check_known_defects.py

Every op of the benchmark's workloads passes its output check, so a
failed op does not show these defects; README.md says where they show
instead.  Each test states the behaviour the code documents and fails
today, with the error named in its mark.  The marks are strict: once a
defect is fixed its test fails as an unexpected pass, and should become
an ordinary check.
"""

import pathlib
import sys
import warnings

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from coralign import coral  # noqa: E402
from coralign.errors import NumericalError  # noqa: E402
from coralign.bench import data, runner  # noqa: E402
from coralign.linalg import mean_and_covariance  # noqa: E402


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="pinv_sqrt(C_S) root_r(C_T) reaches the rank-r "
                   "truncation of C_T only when C_T's top eigenvectors lie in the "
                   "source's row space")
def test_wide_analytical_fit_reaches_the_rank_r_truncation():
    """fit_analytical's docstring: with deficient source rank the aligned
    covariance is the best rank-r approximation of C_T.  On raw wide
    generate_shift data (the fit-wide workload, scaled down) it misses
    that by about 0.3 of ||C_T,r|| (0.52 at fit-wide's size)."""
    spec = data.rotated_anisotropic_spec(0, d=256, n_source=100, n_target=175)
    src, tgt = data.generate_shift(spec)
    T = coral.fit_analytical(src.features, tgt.features)
    got = mean_and_covariance(coral.apply_to_features(T, src.features)).cov
    w, V = np.linalg.eigh(mean_and_covariance(tgt.features).cov)
    top = np.argsort(w)[::-1][: T.rank_used]
    truncation = (V[:, top] * w[top]) @ V[:, top].T
    err = np.linalg.norm(got - truncation) / np.linalg.norm(truncation)
    assert err <= 1e-6, f"relative distance to the rank-{T.rank_used} truncation: {err:.3g}"


@pytest.mark.xfail(strict=True, raises=NumericalError, reason="the deep defaults diverge on some data seeds "
                   "outside the default experiment's trials 0-19")
@pytest.mark.parametrize("data_seed", [10003, 13002])
def test_default_deep_training_converges(data_seed):
    """One paper-grid trial with the deep method and default settings."""
    config = runner.ExperimentConfig(
        spec=data.rotated_anisotropic_spec(data_seed), methods=("deep",),
        trials=1, seed_base=data_seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way to the error
        runner.run_experiment(config)
