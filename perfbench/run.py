"""Benchmark for the bivirus package: one workload per process, closed loop.

    python3 perfbench/run.py --workload case2_basins --seed 1 --seconds 30 --trace 0

One client issues one op at a time over the workload's fixed op list (a
pass) and repeats passes until `--seconds` of timed work is done.  Every
answer is checked after its pass, outside the timed region.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, the end-to-end metrics with `--trace 0` and the per-layer
metrics with `--trace 1`.  Metric names and units come from
`BENCHMARK.json` at the repository root.  See perfbench/README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# One BLAS thread: the matrices are n <= 100, where threads gain nothing,
# and an idle OpenBLAS thread spinning on a shared 2-core machine makes
# timings jumpy.  Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-up runs per measurement: this process plus fresh subprocesses.
SETUP_REPEATS = 3

EXIT_NO_LIBRARY = 2
EXIT_PREFLIGHT = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds, and exit")
    return p.parse_args(argv)


def import_library():
    """Import bivirus from this checkout's src/ (never an installed copy)
    and the workload definitions that depend on it."""
    sys.path.insert(0, str(SRC))
    import bivirus
    if SRC.resolve() not in Path(bivirus.__file__).resolve().parents:
        raise ImportError(f"bivirus resolved to {bivirus.__file__}, "
                          f"not to {SRC}")
    import workloads
    return bivirus, workloads


# ---------------------------------------------------------------------------
# set-up and preflight

def setup_in_subprocess(args):
    """Set-up seconds of a fresh process on the same workload and seed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def preflight(bivirus):
    """FAIL lines from grading the bundled case studies (empty: all pass)."""
    failures = []
    for case in bivirus.cases.CASES.values():
        ok, lines, _doc = bivirus.cli.run_case(case)
        if not ok:
            failures += [ln for ln in lines if "[FAIL]" in ln]
    return failures


# ---------------------------------------------------------------------------
# timed passes

def run_pass(wl, inputs, failures, tracer=None):
    """Time one pass over the op list.  Returns (pass seconds, per-op
    seconds, answers); an op that raises one of `failures` answers with
    the exception."""
    answers, op_times = [], []
    t_pass = time.perf_counter()
    for case in inputs:
        t_op = time.perf_counter()
        try:
            with tracer.span() if tracer else nullcontext():
                answer = wl.op(case.system)
        except failures as e:
            answer = e
        op_times.append(time.perf_counter() - t_op)
        answers.append(answer)
    return time.perf_counter() - t_pass, op_times, answers


def grade(wl, inputs, answers):
    """(failed, wrong, notes) for one pass.  An op fails when it raised,
    came back inconclusive, or gave a wrong answer."""
    failed = wrong = 0
    notes = []
    for k, (case, answer) in enumerate(zip(inputs, answers)):
        if isinstance(answer, Exception):
            verdict = ("raised", f"{type(answer).__name__}: {answer}")
        else:
            verdict = wl.check(case, answer)
        if verdict:
            failed += 1
            wrong += verdict[0] == "wrong"
            notes.append(f"op {k} {case.info}: {verdict[0]}: {verdict[1]}")
    return failed, wrong, notes


# ---------------------------------------------------------------------------
# per-layer metrics

COUNTED = {
    "sim.integrate": ("calls", "self_s", "errors", "records"),
    "sim.sandwich_test": ("self_s", "retries"),
    "sim.basin_probe": ("self_s", "unresolved"),
    "sim.detect_convergence": ("self_s",),
    "model.field": ("self_s",),
    "model.jacobian": ("calls", "self_s"),
    "equilibria.find_coexistence_newton": ("self_s",),
    "equilibria.classify_state": ("calls", "self_s"),
    "equilibria.single_virus_endemic": ("calls", "self_s", "errors"),
    "speclin.spectral_radius": ("calls", "self_s", "errors"),
    "speclin.spectral_abscissa": ("calls", "self_s", "errors"),
    "speclin.is_irreducible": ("calls", "self_s"),
    "cli.build_analysis_report": ("self_s",),
}


def layer_metrics(spans_mod, spans, fail_frac):
    stats, edges, op_s, covered_s = spans_mod.summarize(spans)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{name}.{key}": stat(name, key)
         for name, keys in COUNTED.items() for key in keys}
    calls = stat("sim.integrate", "calls")
    m["sim.integrate.converged_frac"] = ratio(stat("sim.integrate", "converged"), calls)
    m["sim.integrate.evals_per_call"] = ratio(
        edges.get(("model.field", "sim.integrate"), 0), calls)
    m["model.field.evals"] = stat("model.field", "calls")
    seeds = stat("equilibria.default_seed_grid", "seeds")
    roots = stat("equilibria.find_coexistence_newton", "roots")
    m["equilibria.newton.seeds"] = seeds
    m["equilibria.newton.iters"] = edges.get(
        ("model.jacobian", "equilibria.find_coexistence_newton"), 0)
    m["equilibria.newton.roots"] = roots
    m["equilibria.newton.roots_per_seed"] = ratio(roots, seeds)
    for layer in spans_mod.LAYERS:
        self_s = sum(st["self_s"] for name, st in stats.items()
                     if name.startswith(layer + "."))
        m[f"{layer}.self_frac"] = ratio(self_s, op_s)
    m["trace.coverage"] = ratio(covered_s, op_s)
    m["fail_frac"] = fail_frac
    return m


# ---------------------------------------------------------------------------
# context

def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def commit_id():
    """HEAD of the checkout's git directory, read without running git;
    None when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(args, np, scipy, extra):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "src_lines": src_line_count(), "commit": commit_id(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        **extra,
    }


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    try:
        bivirus, workloads = import_library()
    except ImportError as e:
        print(f"error: cannot import bivirus from {SRC}: {e}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    wl.warmup(inputs)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    import numpy as np
    import scipy
    import spans as spans_mod

    t = time.perf_counter()
    bad = preflight(bivirus)
    preflight_s = time.perf_counter() - t
    if bad:
        print("error: preflight case grading failed; no result reported",
              file=sys.stderr)
        print("\n".join(bad), file=sys.stderr)
        return EXIT_PREFLIGHT
    setups = [setup_s] + [setup_in_subprocess(args)
                          for _ in range(SETUP_REPEATS - 1)]

    passes, traced_passes, op_times, layer_runs, notes = [], [], [], [], []
    attempted = failed = wrong = 0

    def tally(answers):
        nonlocal attempted, failed, wrong
        f, w, pass_notes = grade(wl, inputs, answers)
        attempted, failed, wrong = attempted + len(inputs), failed + f, wrong + w
        notes[:] = notes or pass_notes
        return f

    while sum(passes) + sum(traced_passes) < args.seconds or not passes:
        pass_s, times, answers = run_pass(wl, inputs, workloads.FAILURES)
        passes.append(pass_s)
        op_times.append(times)
        tally(answers)
        if args.trace:
            tracer = spans_mod.Tracer(bivirus)
            with tracer:
                pass_s, _times, answers = run_pass(wl, inputs, workloads.FAILURES,
                                                   tracer)
            traced_passes.append(pass_s)
            layer_runs.append(layer_metrics(spans_mod, tracer.spans,
                                            tally(answers) / len(inputs)))

    if args.trace:
        # median_low: a count stays the whole number every pass repeats
        metrics = {k: statistics.median_low(run[k] for run in layer_runs)
                   for k in layer_runs[0]}
        metrics["trace.overhead_frac"] = (statistics.median(traced_passes)
                                          / statistics.median(passes) - 1.0)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        np.savez_compressed(span_file, **tracer.arrays())
        section = "per_layer"
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(statistics.median(per_op) for per_op in zip(*op_times)),
            "op_p50_s": statistics.median(t for times in op_times for t in times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        span_file = None
        section = "end_to_end"

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                           f"not both computed and listed in BENCHMARK.json")

    ctx = context(args, np, scipy, {
        "preflight_s": preflight_s, "setup_samples_s": setups,
        "passes": len(passes), "traced_passes": len(traced_passes),
        "ops_per_pass": len(inputs), "first_pass_op_s": op_times[0],
        "fail_frac": failed / attempted,
        "wrong": wrong, "spans_file": span_file and str(span_file.relative_to(ROOT)),
    })
    print("context " + json.dumps(ctx))
    for note in notes:
        print("failure " + note)
    for name in units:
        print(f"{name:45s} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
