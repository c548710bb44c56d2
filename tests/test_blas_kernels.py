"""Results reproduce across OpenBLAS kernels.

numpy's bundled OpenBLAS, when built DYNAMIC_ARCH, picks its compute
kernel per process from OPENBLAS_CORETYPE.  The frozen report (20 trials
of the frozen shift, all ten methods) runs in a child process under the
default kernel and under each named kernel.  Per-trial accuracies,
chosen C and its cross-validated accuracy must be equal; every other
float agrees to a relative 1e-9, or to 1e-12 absolute for values that
are round-off (CORAL-analytical's post-alignment distances).  Under each
kernel the report, wall_clock_seconds dropped and keys sorted, must
keep the sha256 recorded for that numpy, OpenBLAS and kernel; a build
with no recorded digest skips that check.  Under
every kernel, two lockstep deep runs of trial 0 must equal, bit for bit,
the reference loop that trains one network on 2-D arrays
(tests/test_deep.py): the runner's (both deep methods), and one of five
members, four of them aligned, whose covariances are formed as one stack.
Under every kernel, too, generate_shift's source and target must equal,
bit for bit, the one-expression form (tests/test_bench_data.py) at
d = 512 and d = 2048 with more rows than one row block: a target product
taken in row blocks moved entries in the last bits under Nehalem at both
sizes.

LAPACK builds are varied too.  The package's only LAPACK calls are
np.linalg.eigh (linalg.sym_eigen) and np.linalg.qr (the random
rotation of bench.data); one more child routes both to scipy.linalg,
which bundles its own OpenBLAS build, eigh through the MRRR driver
("evr"), a different algorithm from numpy's.  Its frozen report must
agree with the default kernel's under the same equalities and
tolerances.
"""

import ctypes
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Run in the child: the kernel OpenBLAS chose and its version, the frozen
# report's per-method results and digest, and whether each member of
# trial 0's lockstep deep runs equals the reference loop in weights and
# loss curves.
CHILD = """
import ctypes, hashlib, json, sys
import numpy as np
from coralign import deep
from coralign.bench import runner
from coralign.bench.data import rotated_anisotropic_spec

lib = ctypes.CDLL(sys.argv[1])
lib.scipy_openblas_get_corename64_.argtypes = []
lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
core = lib.scipy_openblas_get_corename64_().decode()
lib.scipy_openblas_get_config64_.argtypes = []
lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
openblas = ".".join(lib.scipy_openblas_get_config64_().decode().split()[1].split(".")[:3])
config = runner.ExperimentConfig(spec=rotated_anisotropic_spec(0), methods=runner.METHODS)
assert config.trials == 20
report = runner.run_experiment(config).to_dict()


def timeless(obj):
    if isinstance(obj, dict):
        return {k: timeless(v) for k, v in obj.items() if k != "wall_clock_seconds"}
    return [timeless(v) for v in obj] if isinstance(obj, list) else obj


digest = hashlib.sha256(json.dumps(timeless(report), sort_keys=True).encode()).hexdigest()

sys.path.insert(0, sys.argv[2])
from test_deep import reference_train
trial = runner._make_trial(config, 0)
net = runner._deep_network(trial, config.deep)
bitwise = []
for weights in ((config.deep.coral_weight, 0.0), (0.5, 2.0, 0.0, 0.25, 1.0)):
    runs = deep._train_members(net, trial.Xs, trial.ys, trial.Xt, config.deep, weights,
                               trial.seed)
    for weight, (trained, rep) in zip(weights, runs):
        layers, class_curve, coral_curve = reference_train(
            net, trial.Xs, trial.ys, trial.Xt, config.deep, weight, trial.seed)
        got = [a for layer in trained.layers for a in layer] + [rep.class_loss, rep.coral_loss]
        want = [a for layer in layers for a in layer] + [class_curve, coral_curve]
        bitwise.append(all(np.array_equal(a, b) for a, b in zip(got, want)))

from test_bench_data import one_expression_shift
from coralign.bench import data
draws = []
rotation_for = data._rotation_for
for d, n in ((512, 300), (2048, 100)):
    spec = rotated_anisotropic_spec(1, d=d, n_source=n, n_target=n)
    # the rotation (a d x d QR, 2 s at d = 2048) once for the two draws
    data._rotation_for = lambda _, R=rotation_for(spec): R
    want_s, want_t = one_expression_shift(spec)
    src, tgt = data.generate_shift(spec)
    draws.append(src.features.tobytes() == want_s.tobytes())
    draws.append(tgt.features.tobytes() == want_t.tobytes())
print(json.dumps({"core": core, "openblas": openblas, "numpy": np.__version__,
                  "methods": report["methods"], "digest": digest,
                  "lockstep_bitwise": bitwise, "draws_bitwise": draws}))
"""

# Run before CHILD in the LAPACK-build child: np.linalg.eigh and
# np.linalg.qr routed to scipy's own OpenBLAS build.
SCIPY_LAPACK = """
import numpy as np, scipy.linalg
np.linalg.eigh = lambda a: scipy.linalg.eigh(a, driver="evr")
np.linalg.qr = lambda a: scipy.linalg.qr(a, mode="economic")
"""

# sha256 of the frozen report, wall_clock_seconds dropped and keys
# sorted, per (numpy version, OpenBLAS version, kernel) measured.
FROZEN_DIGESTS = {
    ("2.4.6", "0.3.31", "SkylakeX"):
        "fec95953022a2fb040e9edd23e910b38440ec7d63c68093004a4674dd0b8cf64",
    ("2.4.6", "0.3.31", "Haswell"):
        "7de3f68b6e8da024b71c579a1ac5392bb39eef6833891bfdffc7e0000f1b0dcd",
    ("2.4.6", "0.3.31", "Nehalem"):
        "c3e6a7c50fe248828520afffe72dc515caa60672b10ce0bdf3b7f265e56d6bc7",
}

EXACT = ("target_acc", "source_acc", "target_acc_mean", "target_acc_std",
         "source_acc_mean", "source_acc_std", "chosen_C", "cv_acc")


def bundled_openblas():
    """Path of numpy's bundled OpenBLAS if it is built DYNAMIC_ARCH, else
    skip the test with the reason."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if not hasattr(lib, "scipy_openblas_get_config64_"):
            continue
        lib.scipy_openblas_get_config64_.argtypes = []
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        config = lib.scipy_openblas_get_config64_().decode()
        if "DYNAMIC_ARCH" not in config:
            pytest.skip(f"numpy's OpenBLAS is not built DYNAMIC_ARCH: {config}")
        return str(path)
    pytest.skip(f"no bundled OpenBLAS with scipy_openblas symbols in {libs}")


@functools.cache
def run_child(lib, core=None, prelude=""):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    proc = subprocess.run([sys.executable, "-c", prelude + CHILD, lib, str(TESTS)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def default_run():
    lib = bundled_openblas()
    # the cache key of the default-kernel digest test's call, so the
    # default child runs once
    return lib, run_child(lib, None)


@pytest.mark.parametrize("core", [None, "Haswell", "Nehalem"])
def test_frozen_report_keeps_its_recorded_digest(default_run, core):
    got = run_child(default_run[0], core)
    if core is not None and got["core"].lower() != core.lower():
        pytest.skip(f"OPENBLAS_CORETYPE={core} ran the {got['core']} kernel")
    key = (got["numpy"], got["openblas"], got["core"])
    if key not in FROZEN_DIGESTS:
        pytest.skip("no frozen-report digest recorded for numpy {}, OpenBLAS {}, "
                    "kernel {}".format(*key))
    assert got["digest"] == FROZEN_DIGESTS[key], key


def test_lockstep_deep_run_matches_the_reference_loop(default_run):
    assert default_run[1]["lockstep_bitwise"] == [True] * 7


def test_generated_shifts_match_the_one_expression_form(default_run):
    assert default_run[1]["draws_bitwise"] == [True] * 4


def assert_reports_agree(got, want):
    """Per-trial accuracies, chosen C and cv_acc equal; every other float
    to a relative 1e-9, or 1e-12 absolute."""
    assert list(got) == list(want)
    for name, fields in want.items():
        assert set(got[name]) == set(fields), name
        for field, w in fields.items():
            g = got[name][field]
            if field == "wall_clock_seconds":
                continue
            elif field in EXACT:
                assert g == w, (name, field)
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-12), (name, field)


@pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
def test_results_agree_with_the_default_kernel(default_run, core):
    lib, want = default_run
    got = run_child(lib, core)
    if got["core"].lower() != core.lower():
        pytest.skip(f"OPENBLAS_CORETYPE={core} ran the {got['core']} kernel")
    assert got["lockstep_bitwise"] == [True] * 7, core
    assert got["draws_bitwise"] == [True] * 4, core
    assert_reports_agree(got["methods"], want["methods"])


def test_results_agree_under_scipys_lapack_build(default_run):
    pytest.importorskip("scipy.linalg")
    lib, want = default_run
    assert_reports_agree(run_child(lib, prelude=SCIPY_LAPACK)["methods"], want["methods"])
