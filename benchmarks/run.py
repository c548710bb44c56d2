"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 benchmarks/run.py --workload paper-grid --seed 0 --seconds 20 --trace 0

The run is a closed loop: one caller in one process, each op starting
when the previous one has finished, with BLAS threads capped at the
number of usable cores.  Trial workloads first run one untimed warm-up
op; then ops run until ``--seconds`` of op time have passed, ending on
a whole round (fit workloads alternate two fits).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs half the time untraced and half traced and prints
the per-layer metrics.  Each metric is printed on its own line with its
unit; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (environment, per-op times and checks, spans when traced) is
written under ``.bench_out/`` in the checkout.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
# setup_s is the median over fresh processes, this one included: at least
# SETUP_MIN of them, and more, up to SETUP_MAX, while their set-up time
# sums to under SETUP_BUDGET_S, so that cheap set-ups get more samples.
# One is taken after each op, so they span the run.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 3.0
CHILD_TIMEOUT_S = 170
# Units of the check values printed beside the metrics; the rest are accuracies.
QUALITY_UNITS = {"align_gap": "ratio", "analytical_err": "ratio", "formula_err": "ratio"}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at the usable cores; read when numpy loads BLAS."""
    n = str(usable_cores())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def import_package() -> None:
    """Import coralign from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coralign
    except ImportError as exc:
        sys.exit(f"error: cannot import coralign from {src}: {exc}")
    if pathlib.Path(coralign.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: coralign was imported from {coralign.__file__}, not {src}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": usable_cores(),
        "machine": platform.machine(),
    }


def measure(workload, seconds: float, warmup: int | None = None, between_ops=None) -> dict:
    """Run and check `warmup` ops (the workload's own count by default),
    then ops until `seconds` of op time, on a whole round.  Warm-up ops
    are checked and counted but not timed.  On a calibrated workload the
    reference loop runs between ops and each op's time is also given at
    the reference speed.  `between_ops`, if given, is called after each
    op's check, outside the timed region."""
    import calibration
    from workloads import CheckFailed

    if warmup is None:
        warmup = workload.warmup_ops
    loops = [calibration.loop_seconds()] if workload.calibrated else []
    log, busy, i = [], 0.0, 0
    while i < warmup or busy < seconds or (i - warmup) % workload.ops_per_round:
        quality, error = {}, None
        t = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as exc:  # a failed op is counted; the run goes on
            out, error = None, f"op raised {exc!r}"
        elapsed = time.perf_counter() - t
        entry = {"op": i, "seconds": elapsed, "warmup": i < warmup}
        if workload.calibrated:
            loops.append(calibration.loop_seconds())
            entry["loop_s"] = loops[-2:]
            entry["scaled_s"] = calibration.scale(elapsed, loops[-2:])
        if out is not None:
            try:
                quality = workload.check(i, out)
            except CheckFailed as exc:
                quality, error = exc.quality, str(exc)
            except Exception as exc:
                error = f"check raised {exc!r}"
        del out  # free the output before the next op, so it is not in its peak
        if i >= warmup:
            busy += elapsed
        log.append({**entry, "error": error, "quality": quality})
        i += 1
        if between_ops is not None:
            between_ops()
    timed = log[warmup:]
    run = {
        "ops": len(log),
        "failed": sum(e["error"] is not None for e in log),
        "measured_ops_per_s": len(timed) / sum(e["seconds"] for e in timed),
        "log": log,
    }
    run["ops_per_s"] = (len(timed) / sum(e["scaled_s"] for e in timed)
                        if workload.calibrated else run["measured_ops_per_s"])
    if loops:
        run["loop_s"] = loops
    return run


def mean_quality(log) -> dict:
    """Mean over the run's ops of each quality value the checks measured."""
    values = {}
    for entry in log:
        for key, value in entry["quality"].items():
            values.setdefault(key, []).append(value)
    return {key: statistics.fmean(v) for key, v in sorted(values.items())}


class SetupSampler:
    """Set-up times: this process's, then fresh processes' run one at a
    time, one after each op, so that the samples span the run."""

    def __init__(self, args, own: float):
        self.samples = [own]
        self.cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
        ]

    def take(self) -> None:
        """Time one more fresh process, if the sample still wants one."""
        if len(self.samples) >= SETUP_MAX or (
            len(self.samples) >= SETUP_MIN and sum(self.samples) >= SETUP_BUDGET_S
        ):
            return
        proc = subprocess.run(
            self.cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        self.samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    def finish(self) -> list:
        """Top the samples up to SETUP_MIN and return them."""
        while len(self.samples) < SETUP_MIN:
            self.take()
        return self.samples


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the inputs, print the set-up time and exit (used for setup_s)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    cap_blas_threads()
    import_package()
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import tracer

        untraced = measure(workload, args.seconds / 2)
        with tracer.Tracer() as recorder:
            traced = measure(workload, args.seconds / 2, warmup=0)  # already warm
        overhead = 1.0 - traced["ops_per_s"] / untraced["ops_per_s"]
        metrics = tracer.layer_metrics(recorder.spans, traced["ops"], overhead)
        tracer.write_spans(recorder.spans, OUT_DIR / f"{stem}.spans.jsonl")
        phases = {"untraced": untraced, "traced": traced}
        reported = {}
    else:
        setup = SetupSampler(args, own_setup)
        run = measure(workload, args.seconds, between_ops=setup.take)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = setup.finish()
        quality = mean_quality(run["log"])
        if "target_acc" not in quality:
            sys.exit(f"error: no {args.workload} op returned output to check")
        metrics = {
            "ops_per_s": metric(run["ops_per_s"], "ops/s"),
            "setup_s": metric(statistics.median(samples), "s"),
            "peak_rss_mb": metric(peak_rss_mib, "MiB"),
            "target_acc": metric(quality.pop("target_acc"), "fraction"),
        }
        phases = {"untraced": run}
        reported = {}
        if workload.calibrated:  # what was measured, before scaling
            reported["ops_per_s.measured"] = metric(run["measured_ops_per_s"], "ops/s")
            reported["loop_s"] = metric(statistics.median(run["loop_s"]), "s")
        reported.update((key, metric(value, QUALITY_UNITS.get(key, "fraction")))
                        for key, value in quality.items())
        env["setup_samples_s"] = samples

    attempted = sum(p["ops"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    reported["fail_rate"] = metric(failed / attempted, "ratio")
    env["ops"] = {name: p["ops"] for name, p in phases.items()}

    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "metrics": metrics, "reported": reported,
                   "ops": {name: p["log"] for name, p in phases.items()}}, fh, indent=1)

    print(f"# {json.dumps(env)}")
    for entry in (e for p in phases.values() for e in p["log"] if e["error"]):
        print(f"# failed op {entry['op']}: {entry['error']}")
    for name, m in {**metrics, **reported}.items():
        print(f"{args.workload:12s} {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
