"""Checks that the fit workloads' output checks pass good output and
reject wrong output, on small versions of their inputs.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests/check_references.py
"""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import workloads  # noqa: E402

# (d, n_source, n_target, tolerance): wide like fit-wide, tall like fit-tall.
SHAPES = {"wide": (256, 100, 175, 1e-6), "tall": (16, 400, 400, 1e-8)}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fit_checks_accept_the_fits_and_reject_swapped_outputs(shape):
    d, n_source, n_target, tol = SHAPES[shape]
    workload = workloads.FitWorkload(0, d=d, n_source=n_source, n_target=n_target,
                                     analytical_tol=tol)
    regularized, analytical = workload.op(0), workload.op(1)
    assert workload.check(0, regularized)["align_gap"] < workload.reference().gap_before
    assert workload.check(1, analytical)["formula_err"] <= tol
    # The regularized fit's output is not the analytical formula's.
    with pytest.raises(workloads.CheckFailed):
        workload.check(1, regularized)
    # Unaligned features do not reduce the covariance gap.
    with pytest.raises(workloads.CheckFailed):
        workload.check(0, workload.Xs)
