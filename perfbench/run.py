"""magflow benchmark: one workload per process, seeded inputs.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --all            # every workload, summary table

A run builds the workload's inputs from --seed, then repeats passes over
the inputs until --seconds are used (at least MIN_PASSES). Set-up (import
plus profile construction) is timed in fresh processes spread over the
run, between passes, and reported as their median. Times are reported in
nominal seconds: each operation and each set-up probe is scaled by the
times of the reference kernel (reference.py) run just before and just
after it, so that most of a change of the shared machine's speed during
or between runs cancels out. The last
line of stdout is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1. The trace run alternates untraced and traced
passes, so the tracing overhead is measured in the same process.

Everything the run records (environment, inputs, pass times, worst errors,
self-time table, spans) is written to .perfbench_out/ at the root of the
checkout when the run ends.
"""
from __future__ import annotations

import os

# one BLAS thread, whatever the caller's environment says: the bounds hold
# for this configuration only
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROCESSES = 9      # fresh processes timed for setup_s, --trace 0
KERNEL_EVERY_S = 1.0     # least time between reference kernel samples
MIN_PASSES = 3           # untraced passes in a --trace 0 run
MIN_TRACE_PASSES = 2     # alternating untraced and traced passes, --trace 1


def _import_magflow():
    """Import magflow from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "magflow", "__init__.py")):
        sys.exit(f"perfbench: no magflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import magflow.cli
    import magflow.contact
    import magflow.cz
    import magflow.flow
    import magflow.hopf
    import magflow.profiles
    import magflow.reduced
    if not os.path.abspath(magflow.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: magflow imported from {magflow.__file__}")
    return magflow


# -- environment -------------------------------------------------------------------


def environment(seed: int) -> dict:
    """Read-only record of the machine and software state."""
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_sha": sha,
        "seed": seed,
    }


# -- set-up ------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Import plus construction of the workload's profiles, in seconds."""
    from spans import Tracer
    from workloads import build_profiles, generate
    mf = _import_magflow()
    build_profiles(mf, generate(workload, seed)["profiles"], Tracer(False))
    return time.perf_counter() - _T_START


def measure_setup(workload: str, seed: int, n: int, speed) -> list:
    """n fresh processes, run one after the other, each between two
    reference kernel samples: (set-up seconds, samples taken before it)."""
    probes = []
    for _ in range(n):
        speed.sample()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probes.append((float(proc.stdout.strip().splitlines()[-1]),
                       len(speed.samples)))
        speed.sample()
    return probes


def nominal(seconds: float, kernel_s: float) -> float:
    """seconds measured while the reference kernel took kernel_s, scaled
    to a machine on which it takes reference.NOMINAL_S."""
    import reference
    return seconds * reference.NOMINAL_S / kernel_s


def pass_time(passes: list, speed) -> float:
    """Time of one pass: the sum over operations of each one's median.

    Each operation's time is first scaled by the reference kernel times
    around it. Other work on a shared machine changes
    the speed of single operations by 10-20%; taking the median per
    operation before summing keeps an operation slowed in one pass out
    of the total.
    """
    scaled = [[nominal(w, speed.around(i))
               for w, i in zip(ps.op_walls, ps.op_sample)] for ps in passes]
    return sum(statistics.median(ws) for ws in zip(*scaled))


# -- one run -----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from spans import Tracer
    from workloads import build_profiles, generate, run_pass
    import metrics as M
    import reference

    mf = _import_magflow()
    import_s = time.perf_counter() - _T_START
    env = environment(seed)
    inputs = generate(workload, seed)

    tracer = Tracer(traced)
    tracer.pass_id = -1                      # set-up spans
    profiles = build_profiles(mf, inputs["profiles"], tracer)

    quiet = Tracer(False)
    walls = {"untraced": [], "traced": []}
    passes = []
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    n_min = MIN_TRACE_PASSES if traced else MIN_PASSES
    # A shared machine's speed drifts during a run; set-up probes spread
    # over the whole run, between passes, see the same speeds as the passes.
    # The reference kernel is timed between untraced operations only, so
    # traced passes hold layer spans alone.
    n_probes = 0 if traced else SETUP_PROCESSES
    speed = reference.Speedometer(KERNEL_EVERY_S)
    reference.kernel_s()                     # warm-up, not kept
    probes = measure_setup(workload, seed, min(1, n_probes), speed)
    speed.sample()
    while True:
        k = len(passes)
        use = tracer if traced and k % 2 == 1 else quiet
        use.pass_id = k
        t0 = time.perf_counter()
        ps = run_pass(mf, workload, inputs, profiles, use,
                      None if traced else speed)
        wall = time.perf_counter() - t0
        walls["traced" if use.enabled else "untraced"].append(wall)
        passes.append((use.enabled, wall, ps))
        due = math.ceil(n_probes * (time.perf_counter() - t_begin) / seconds)
        probes += measure_setup(
            workload, seed, max(0, min(due, n_probes) - len(probes)), speed)
        cycle = (time.perf_counter() - t_begin) / len(passes)
        if (len(passes) >= n_min and time.perf_counter() + cycle
                > deadline):
            break
    probes += measure_setup(workload, seed, n_probes - len(probes), speed)
    setup_times = [nominal(s, speed.around(i)) for s, i in probes]

    failures = [f for _, _, ps in passes for f in ps.failures]
    attempted = sum(ps.attempted for _, _, ps in passes)
    counts = [ps.counts for _, _, ps in passes]
    counts_repeat = all(c == counts[0] for c in counts)
    if not counts_repeat:
        failures.append(f"counts differ between passes: {counts}")
    worst = {}
    for _, _, ps in passes:
        for key, val in ps.worst.items():
            worst[key] = max(worst.get(key, 0.0), val)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        traced_passes = [(w, ps) for en, w, ps in passes if en]
        metrics, table = M.layer_metrics(tracer.spans, traced_passes,
                                         walls["untraced"])
    else:
        metrics = M.end_to_end(statistics.median(setup_times),
                               pass_time([ps for _, _, ps in passes],
                                         speed), rss_mb)
        table = None

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "environment": env, "inputs": inputs,
        "import_s": import_s, "setup_s_samples": setup_times,
        "setup_measured_s": [s for s, _ in probes],
        "setup_sample": [i for _, i in probes],
        "pass_walls": walls, "kernel_samples_s": speed.samples,
        "measured": {
            "setup_s": (statistics.median(s for s, _ in probes)
                        if probes else None),
            "wall_s": sum(statistics.median(ws) for ws in
                          zip(*(ps.op_walls for en, _, ps in passes
                                if not en))),
            "kernel_s": statistics.median(speed.samples)},
        "op_walls": [[name, [ps.op_walls[i] for _, _, ps in passes]]
                     for i, name in enumerate(passes[0][2].op_names)],
        "op_sample": [ps.op_sample for _, _, ps in passes],
        "peak_rss_mb": rss_mb,
        "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures, "counts_per_pass": counts[0],
        "counts_repeat": counts_repeat, "worst_errors": worst,
        "metrics": metrics, "self_time_table": table,
        "spans": [s.to_dict() for s in tracer.spans],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(traced)}"
                                 f".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = path
    return record


def report(rec: dict):
    """Human-readable lines, then the result object as the last line."""
    print(f"environment {json.dumps(rec['environment'], sort_keys=True)}")
    print(f"workload {rec['workload']} seed {rec['seed']}: "
          f"{len(rec['pass_walls']['untraced'])} untraced and "
          f"{len(rec['pass_walls']['traced'])} traced passes")
    print(f"fail_ratio {rec['fail_ratio']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} operations)")
    for f in rec["failures"]:
        print(f"  FAILED {f}")
    print(f"counts per pass {json.dumps(rec['counts_per_pass'], sort_keys=True)}"
          f" repeat={rec['counts_repeat']}")
    print("worst errors (diagnostic, ungated): "
          + ", ".join(f"{k}={v:.3g}" for k, v in
                      sorted(rec["worst_errors"].items())))
    if rec["self_time_table"]:
        import metrics as M
        for line in M.table_lines(rec["self_time_table"]):
            print(line)
    from reference import NOMINAL_S
    meas = rec["measured"]
    print(f"measured, not scaled: reference kernel {meas['kernel_s']:.4f} s"
          f" (nominal {NOMINAL_S} s), pass {meas['wall_s']:.4f} s"
          + (f", set-up {meas['setup_s']:.4f} s" if meas["setup_s"] else ""))
    for name, m in rec["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record written to {rec['path']}")
    print(json.dumps({"correct": rec["failed"] == 0,
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": rec["metrics"]}))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in fresh processes, untraced then traced; one table."""
    rows = []
    from workloads import WORKLOADS
    for workload in WORKLOADS:
        res = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                return proc.returncode or 1
            res[trace] = json.loads(lines[-1])
            table = [ln for ln in lines if ln.startswith("|")]
            if trace == 1:
                print(f"self time, workload {workload}:")
                print("\n".join(table))
        rows.append((workload, res))
    print()
    print("| workload | setup_s (s) | wall_s (s) | peak_rss_mb (MB) | "
          "fail_ratio (ratio) | trace overhead (s) | uncovered share |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for workload, res in rows:
        e2e, lay = res[0]["metrics"], res[1]["metrics"]
        att = res[0]["attempted"] + res[1]["attempted"]
        fail = res[0]["failed"] + res[1]["failed"]
        ok = ok and res[0]["correct"] and res[1]["correct"]
        print(f"| {workload} | {e2e['setup_s']['value']:.3f} | "
              f"{e2e['wall_s']['value']:.3f} | "
              f"{e2e['peak_rss_mb']['value']:.1f} | "
              f"{fail / att:.3g} ({fail}/{att}) | "
              f"{lay['trace.overhead_s']['value']:.3f} | "
              f"{lay['trace.uncovered_share']['value']:.4f} |")
    return 0 if ok else 2


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print one summary table")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required without --all")
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
