"""Fixed-work benchmark of polyrig verdict time.

    python3 bench/run.py --workload mesh-rank --seed 0 --seconds 30 --trace 0

Run from the root of a polyrig checkout; polyrig is imported from its
`src/` directory, and the run stops with exit code 2 when that is missing.
One process, one verdict at a time (a closed loop with one client).

The run repeats its workload's case list for a number of passes fixed by
--seconds and the workload's nominal pass time, so two runs with the same
arguments do the same work whatever the machine's speed. Every verdict's
output is checked after its pass. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: setup_s, pass_s,
verdict_s_p50 and peak_rss_mb. With --trace 1 passes alternate between
untraced and traced, and the metrics are per-layer self times and call
counts from the traced passes plus the tracing overhead. The result and,
when traced, the spans are also written under bench/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the figures then do not depend on how many cores other
# processes leave free, and a run keeps to one core.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

# Seconds one pass takes on the reference machine (see README.md); the
# number of passes is --seconds divided by this, so the work is fixed.
NOMINAL_PASS_S = {"mesh-rank": 7.5, "witness-search": 7.5, "planar-oracles": 4.0}
SETUP_REPEATS = 3

# What a fresh interpreter imports before the first verdict; timed again in
# child processes, since one process can import only once.
IMPORTS = "import checks, spans, workloads"

CALL_COUNTED = (
    "geometry.d_phi", "geometry.gradient_rows", "linalg.svd", "nlsq.gauss_newton",
    "nlsq.lm_solve", "linalg.solve", "pointsets.value", "pointsets.gradient",
    "pointsets.align", "scipy.minimize",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_polyrig():
    """Import polyrig from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import polyrig
    except ImportError as exc:
        print(f"error: cannot import polyrig from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(polyrig.__file__).resolve().parent.parent != src:
        print(f"error: polyrig imported from {polyrig.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def import_seconds() -> float:
    """Import time of a fresh interpreter, measured inside it."""
    code = (f"import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = {[str(ROOT / 'src'), str(ROOT / 'bench')]!r}; "
            f"{IMPORTS}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def run_pass(cases, tracer=None):
    """One pass over the case list: (wall seconds, [(seconds, output, error)])."""
    results = []
    start = time.perf_counter()
    for case in cases:
        t = time.perf_counter()
        try:
            out = tracer.verdict(case.name, case.run) if tracer else case.run()
            err = None
        except Exception as exc:  # a verdict that raises counts as failed
            out, err = None, exc
        results.append((time.perf_counter() - t, out, err))
    return time.perf_counter() - start, results


def check_pass(cases, results, checks, workloads):
    """(failed, incorrect) counts, with a reason for each on stderr."""
    failed = incorrect = 0
    for case, (_, out, err) in zip(cases, results):
        if err is None:
            try:
                case.check(out)
                continue
            except workloads.OperationFailed as exc:
                err = exc
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                incorrect += 1
                print(f"incorrect: {case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
        failed += 1
        print(f"failed: {case.name}: {type(err).__name__}: {err}", file=sys.stderr)
    return failed, incorrect


def layer_metrics(tracer, spans, traced_times, untraced_times):
    """Per traced pass: self time and call count of each layer, restarts,
    and the traced pass time with its excess over an untraced pass."""
    traced_passes = len(traced_times)
    metrics = {}
    totals = tracer.snapshot()
    for layer in spans.layer_names():
        self_s, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}_s"] = (self_s / traced_passes, "s")
        if layer in CALL_COUNTED:
            metrics[f"{layer}_calls"] = (calls // traced_passes, "count")
    restarts = tracer.restarts // traced_passes
    converged = tracer.restarts_converged // traced_passes
    metrics["rigidity.restarts"] = (restarts, "count")
    metrics["rigidity.restarts_converged"] = (converged, "count")
    metrics["rigidity.restart_yield"] = (converged / restarts if restarts else 0.0, "ratio")
    traced = statistics.median(traced_times)
    metrics["trace.pass_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - statistics.median(untraced_times), "s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_polyrig()
    import checks
    import spans
    import workloads

    # set-up, part one: process start to polyrig and its dependencies
    # imported, here and in SETUP_REPEATS - 1 fresh interpreters
    import_times = [time.perf_counter() - T0]
    import_times += [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    OUT.mkdir(parents=True, exist_ok=True)
    build = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        # set-up, part two: input generation (OFF and JSON files included)
        # and one warm-up verdict
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            cases = build(args.seed, workdir)
            cases[0].run()
            setup_times.append(time.perf_counter() - t)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        print("setup: imports " + ", ".join(f"{t:.3f}" for t in import_times)
              + " s; inputs and warm-up " + ", ".join(f"{t:.3f}" for t in setup_times)
              + " s", file=sys.stderr)

        passes = max(2, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
        tracer = spans.Tracer() if args.trace else None
        pass_times, traced_times, verdict_times = [], [], []
        attempted = failed = incorrect = 0
        for k in range(passes):
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
            try:
                wall, results = run_pass(cases, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_times if traced else pass_times).append(wall)
            print(f"pass {k}{' traced' if traced else ''}: {wall:.3f} s", file=sys.stderr)
            if not traced:
                verdict_times += [r[0] for r in results]
            attempted += len(results)
            f, i = check_pass(cases, results, checks, workloads)
            failed += f
            incorrect += i

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(pass_times), "s"),
            "verdict_s_p50": (statistics.median(verdict_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, spans, traced_times, pass_times)
    result = {
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{stem}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
