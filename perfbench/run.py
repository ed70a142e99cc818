"""postselect benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs it once untraced
and once traced, and reports the per-layer metrics.  ``--smoke`` shrinks
every input so the whole benchmark runs in seconds; its numbers are not
comparable with a full run.

Every timed op is divided by a calibration chunk timed next to it
(see calib.py), so the gated metrics are in calibration units.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every output check passed.
"""

import os

# One BLAS thread, set before NumPy loads: the fuzz workers are the only
# parallelism, and load stays within nproc threads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)


def single_malloc_arena() -> bool:
    """Have glibc serve every thread from one malloc arena.

    With per-thread arenas, freed fuzz temporaries stay in whichever arena
    a worker thread used, and peak RSS swings by a fifth from run to run
    with thread timing rather than with the memory the program holds.
    The setting is the same on every commit.
    """
    import ctypes
    import ctypes.util

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
    except (OSError, AttributeError, TypeError):
        return False
    m_arena_max = -8
    return libc.mallopt(m_arena_max, 1) == 1


SINGLE_ARENA = single_malloc_arena()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("scenario-stream", "wide-witness", "fuzz-campaign", "region-map")
CAL_BURST = 3
SETUP_REPS = 5
# Median time of one calib.Scenario chunk on the 2-core machine the bounds
# were set on.  setup_s is each spawn's wall time divided by the chunks timed
# around it, times this constant: seconds at that machine's speed, so that a
# slower or faster spell of the machine does not read as a change in set-up.
SETUP_CAL_REF_S = 0.009
CLI_REPS = 5
# Share of traced wall time that spans must cover on the single-threaded workloads.
ACCOUNTED_WORKLOADS = ("scenario-stream", "wide-witness")
MAX_UNACCOUNTED = 0.10
REGION_MAPS = ("ternary", "ps", "pt", "ts")
SLACK_MAPS = ("ternary", "pt", "ts")  # emit_ps_region computes its slack inline
LADDER = (16, 32, 64, 96)
DIAGNOSTIC_UNITS = {
    "ops_per_cal": "op/cal", "latency_p50_cal": "cal", "latency_p99_cal": "cal", "ops_per_s": "op/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "ops_timed": "count", "cal_s": "s",
    "failed_ratio": "ratio", "setup_wall_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_time(args: list, env: dict) -> float:
    """Wall time of a fresh interpreter running args."""
    t0 = perf_counter()
    subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return perf_counter() - t0


def timed_spawn(args: list, reps: int) -> float:
    """Median wall time of a fresh interpreter running args, after one untimed run."""
    env = child_env()
    spawn_time(args, env)
    return statistics.median(spawn_time(args, env) for _ in range(reps))


def measure_setup(workload: str, workers: int) -> tuple[float, float]:
    """(setup_s, raw median wall seconds) of a fresh interpreter's import and warm-up op."""
    import calib

    chunk = calib.Scenario()

    def chunk_time():
        t0 = perf_counter()
        chunk()
        return perf_counter() - t0

    args, env = [str(HERE / "warmup.py"), workload, str(workers)], child_env()
    spawn_time(args, env)  # untimed: fills the bytecode cache
    ratios, walls = [], []
    for _ in range(SETUP_REPS):
        before = chunk_time()
        wall = spawn_time(args, env)
        ratios.append(wall / (0.5 * (before + chunk_time())))
        walls.append(wall)
    return SETUP_CAL_REF_S * statistics.median(ratios), statistics.median(walls)


class Loop:
    """Timed ops of one phase, with a burst of calibration chunks between segments.

    Each op is divided by the mean of the burst medians just before and just
    after it.  A shared 2-core machine switches between fast and slow states within
    seconds, so one median over the whole phase flips with the share of time
    spent in each state; pairing each op with its neighbours does not.
    """

    def __init__(self):
        self.cals: list[float] = []  # seconds per calibration chunk
        self.bursts: list[float] = []  # burst medians: one before each segment, one after the last
        self.ops: list[tuple[int, object, int, int, float]] = []  # (segment, key, size, failed, seconds)
        self.wall = 0.0

    def run(self, wl, seconds: float, tr) -> "Loop":
        def burst():
            times = []
            for _ in range(CAL_BURST):
                with tr.span("bench.cal"):
                    t0 = perf_counter()
                    wl.cal()
                    times.append(perf_counter() - t0)
            self.cals += times
            self.bursts.append(statistics.median(times))

        start = perf_counter()
        burst()
        for seg, end_of_pass in wl.segments():
            for key, size, op in seg:
                t0 = perf_counter()
                try:
                    failed = op(tr)
                except Exception:  # an op that raises is a failed op; keep measuring
                    traceback.print_exc(file=sys.stderr)
                    failed = size
                self.ops.append((len(self.bursts) - 1, key, size, failed, perf_counter() - t0))
            burst()
            if end_of_pass and perf_counter() - start >= seconds:
                break
        self.wall = perf_counter() - start
        return self

    def local_cal(self, seg: int) -> float:
        return 0.5 * (self.bursts[seg] + self.bursts[seg + 1])

    @property
    def cal_s(self) -> float:
        return statistics.median(self.cals)

    @property
    def attempted(self) -> int:
        return sum(op[2] for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op[3] for op in self.ops)

    def ops_per_cal(self) -> float:
        return self.attempted / sum(dt / self.local_cal(seg) for seg, _, _, _, dt in self.ops)

    def key_latencies(self, calibrated: bool) -> list[float]:
        """Median latency of each distinct request, in calibration units or seconds."""
        by_key: dict[object, list[float]] = {}
        for seg, key, _, _, dt in self.ops:
            by_key.setdefault(key, []).append(dt / self.local_cal(seg) if calibrated else dt)
        return [statistics.median(v) for v in by_key.values()]

    def summary(self) -> dict:
        import numpy as np

        p50_cal, p99_cal = np.percentile(self.key_latencies(calibrated=True), [50, 99])
        p50_s, p99_s = np.percentile(self.key_latencies(calibrated=False), [50, 99])
        return {
            "ops_per_cal": self.ops_per_cal(),
            "latency_p50_cal": float(p50_cal),
            "latency_p99_cal": float(p99_cal),
            "ops_per_s": self.attempted / sum(op[4] for op in self.ops),
            "latency_p50_ms": 1e3 * float(p50_s),
            "latency_p99_ms": 1e3 * float(p99_s),
            "ops_timed": len(self.ops),
            "cal_s": self.cal_s,
            "failed_ratio": self.failed / self.attempted,
        }


def warm_up(wl, tr) -> None:
    """One untimed op, so lazy set-up and caches are done before timing."""
    seg, _ = next(wl.segments())
    _, _, op = seg[0]
    op(tr)
    wl.cal()


def run_record(args, workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "fuzz_workers": workers,
        "blas_env": BLAS_ENV,
        "malloc_single_arena": SINGLE_ARENA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "src_lines": src_lines,
    }


def median_of(values, scale: float = 1.0) -> float:
    values = list(values)
    return scale * statistics.median(values) if values else 0.0


def layer_metrics(wl, tracer, untraced: Loop, traced: Loop, workers: int) -> dict:
    """Per-layer metrics from the traced phase's spans; 0 where a layer was not entered."""
    spans = {sid: rec for sid, *rec in tracer.spans}
    selfs = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for sid, (_, name, _, _, _) in spans.items():
        by_name.setdefault(name, []).append(sid)

    def dur(sid):
        return spans[sid][3] - spans[sid][2]

    def attrs(sid):
        return spans[sid][4]

    def ids(name, **match):
        return [s for s in by_name.get(name, ()) if all(attrs(s).get(k) == v for k, v in match.items())]

    def us(name, use_self=False):
        return median_of((selfs[s] if use_self else dur(s) for s in ids(name)), 1e6)

    m = {
        "core.scenario_new_us": us("core.scenario_new"),
        "core.projective_validate_us": us("core.projective_validate"),
        "core.generalized_validate_us": us("core.generalized_validate"),
        "feasibility.check_raw_us": us("feasibility.check_raw"),
        "feasibility.check_chain_us": us("feasibility.check_chain"),
        "feasibility.feasible_share": wl.feasible_share() if hasattr(wl, "feasible_share") else 0.0,
    }
    slack = ids("feasibility.slack_arrays")
    m["feasibility.slack_rows_per_s"] = (
        sum(attrs(s)["rows"] for s in slack) / sum(dur(s) for s in slack) if slack else 0.0
    )
    for name in SLACK_MAPS:
        emits = set(ids("regions.emit", map=name))
        m[f"feasibility.region_slack_s.{name}"] = median_of(
            dur(s) for s in ids("feasibility.region_slack") if spans[s][0] in emits
        )
    m.update({
        "construct.projective_us": us("construct.projective"),
        "construct.projective_self_us": us("construct.projective", use_self=True),
        "construct.close_polygon_us": us("construct.close_polygon"),
        "construct.factor_amplitudes_us": us("construct.factor_amplitudes"),
        "construct.generalized_us": us("construct.generalized"),
        "construct.generalized_self_us": us("construct.generalized", use_self=True),
    })
    for n in LADDER:
        m[f"construct.build_s.n{n}"] = median_of(dur(s) for s in ids("construct.projective", n=n))
    check = getattr(wl, "check", None)
    m["stats.evaluate_us"] = us("stats.evaluate")
    m["stats.max_deviation"] = check.max_deviation if check else 0.0
    m["witness_io.encode_us"] = us("witness_io.encode")
    m["witness_io.decode_us"] = us("witness_io.decode")
    m["witness_io.json_bytes"] = median_of(getattr(wl, "json_bytes", ()))

    campaigns = ids("oracle.run_campaign", workers=workers)
    chunks = ids("oracle.fuzz_projective")

    def samples_per_s(full_rank: bool):
        sel = [s for s in campaigns if (attrs(s)["d"] == attrs(s)["n"]) == full_rank]
        return sum(attrs(s)["samples"] for s in sel) / sum(dur(s) for s in sel) if sel else 0.0

    m["oracle.fullrank_samples_per_s"] = samples_per_s(True)
    m["oracle.partition_samples_per_s"] = samples_per_s(False)
    m["oracle.chunk_busy_s"] = median_of(attrs(s)["cpu_s"] for s in chunks)
    m["oracle.merge_ms"] = median_of((dur(s) for s in ids("oracle.merge_reports")), 1e3)
    m["oracle.parallel_efficiency"] = (
        sum(attrs(s)["cpu_s"] for s in chunks) / (workers * sum(dur(s) for s in campaigns))
        if campaigns else 0.0
    )
    reports = getattr(wl, "reports", {})
    m["oracle.coverage_cells"] = sum(len(rep.coverage_grid) for _, rep in reports.values())
    m["oracle.violations"] = getattr(wl, "violations", 0)

    sizes = getattr(wl, "sizes", {})
    for name in REGION_MAPS:
        emit = ids("regions.emit", map=name)
        m[f"regions.emit_s.{name}"] = median_of(dur(s) for s in emit)
        m[f"regions.emit_self_s.{name}"] = median_of(selfs[s] for s in emit)
        m[f"regions.csv_s.{name}"] = median_of(selfs[s] for s in ids("regions.csv", map=name))
        m[f"regions.svg_s.{name}"] = median_of(selfs[s] for s in ids("regions.svg", map=name))
        csv_bytes, svg_bytes = sizes.get(name, (0, 0))
        m[f"regions.csv_bytes.{name}"] = csv_bytes
        m[f"regions.svg_bytes.{name}"] = svg_bytes

    m["bench.cal_s"] = untraced.cal_s
    m["bench.trace_overhead"] = untraced.ops_per_cal() / traced.ops_per_cal()
    m["bench.trace_unaccounted"] = 1.0 - covered_time(tracer) / traced.wall
    return m


def covered_time(tracer) -> float:
    """Length of the union of root-span intervals: the time some layer or the benchmark accounts for."""
    roots = sorted((start, end) for _, parent, _, start, end, _ in tracer.spans if not parent)
    covered, reach = 0.0, float("-inf")
    for start, end in roots:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def cli_metrics() -> dict:
    numpy_s = timed_spawn(["-c", "import numpy"], CLI_REPS)
    import_s = timed_spawn(["-c", "import postselect"], CLI_REPS)
    check_s = timed_spawn(
        ["-m", "postselect.cli", "check", "--t", "0", "--s", "0.5", "--p", "0.5,0.5"], CLI_REPS
    )
    return {"cli.import_s": import_s - numpy_s, "cli.check_cold_s": check_s}


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"#   {name:40s} {value:.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "postselect" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'postselect'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from tracing import NullTracer, Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workers = len(os.sched_getaffinity(0))
    record = run_record(args, workers)
    off = NullTracer()

    if args.trace == 0:
        setup_s, setup_wall_s = measure_setup(args.workload, workers)
        wl = workloads.make(args.workload, args.seed, args.smoke, workers)
        try:
            warm_up(wl, off)
            loop = Loop().run(wl, args.seconds, off)
        finally:
            getattr(wl.cal, "close", lambda: None)()
        summary = loop.summary()
        summary["setup_wall_s"] = setup_wall_s
        metrics = {
            "setup_s": setup_s,
            "ops_per_cal": summary["ops_per_cal"],
            "latency_p50_cal": summary["latency_p50_cal"],
            "latency_p99_cal": summary["latency_p99_cal"],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        attempted, failed, problems = loop.attempted, loop.failed, []
        record["bench.cal_s"] = summary["cal_s"]
        print_metrics("diagnostics (not gated)", summary, DIAGNOSTIC_UNITS)
    else:
        wl = workloads.make(args.workload, args.seed, args.smoke, workers)
        tracer = Tracer()
        problems = []
        try:
            warm_up(wl, off)
            untraced = Loop().run(wl, args.seconds / 2, off)
            tracer.install()
            try:
                traced = Loop().run(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            if args.workload == "fuzz-campaign":
                mismatches = wl.single_worker_mismatches(off)
                if mismatches:
                    problems.append(f"{mismatches} fuzz digests differ between 1 and {workers} workers")
        finally:
            getattr(wl.cal, "close", lambda: None)()
        metrics = layer_metrics(wl, tracer, untraced, traced, workers)
        metrics.update(cli_metrics())
        metrics = {m["name"]: metrics[m["name"]] for m in spec["per_layer"]}
        unaccounted = metrics["bench.trace_unaccounted"]
        if args.workload in ACCOUNTED_WORKLOADS and unaccounted > MAX_UNACCOUNTED:
            problems.append(f"spans leave {unaccounted:.1%} of the traced wall time unaccounted")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        record["bench.cal_s"] = metrics["bench.cal_s"]
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print("# record " + json.dumps(record))
    print_metrics("metrics", metrics, units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
