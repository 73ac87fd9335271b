"""sonine-kit benchmark: run a workload's CLI jobs, check them, report metrics.

    python3 perfbench/run.py --workload verify-large|solve-large|batch-small|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
Each job is a JSON config handed to ``sonine_kit.cli.main`` in this one
single-threaded process, so the CLI layer is timed too. The job list is
repeated until ``--seconds`` have passed (at least once). Job times are
scaled to a reference host speed (see ``speed.py``), and set-up times to
a baseline interpreter's (see ``time_setup``). ``--trace 1``
adds one traced pass and reports the per-layer metrics instead of the
end-to-end ones. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record,
with host details and any failing configs, goes to ``.perfbench_work/``.
"""

import os

# single-threaded numerics: these must be set before numpy is loaded
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

from checks import check_job  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

#: fresh set-up interpreters timed per run; setup_s is their median
SETUP_REPEATS = 15

#: a fresh interpreter that imports numpy and no sonine_kit. It is timed
#: next to every set-up: start-up and imports slow down with the host as
#: set-up does, while the job-time calibration loop does not track them.
BASELINE_CMD = [sys.executable, "-c", "import json, numpy"]

#: CPU seconds the baseline interpreter takes at reference speed; set-up
#: times are scaled to it
BASELINE_REFERENCE_S = 0.15

#: reported for an accuracy metric when no job of the workload measures it,
#: so every workload reports every metric; the table prints n/a instead
STAND_IN = 1.0

#: accuracy metrics and how jobs' values combine into one figure
ACCURACY = {
    "g0_defect_max": max,
    "route_diff_max": max,
    "residual_first_kind_max": max,
    "err_vs_exact_max": max,
    "converge_order_min": min,
    "gronwall_ratio_max": max,
}


def import_package():
    """Import sonine_kit from this checkout's sources, never from elsewhere."""
    init = SRC / "sonine_kit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no sonine_kit sources at {init}")
    sys.path.insert(0, str(SRC))
    import sonine_kit

    if Path(sonine_kit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported sonine_kit from {sonine_kit.__file__}, not {init}")
    return sonine_kit


def host_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def time_process(cmd: list[str]) -> float:
    """CPU time, user and system, of one fresh single-threaded interpreter,
    start to exit. Unlike its wall time, this leaves out the time it waits
    for a core that other processes hold."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(cmd, cwd=ROOT, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def time_setup(workload: str, seed: int) -> tuple[float, list[float], list[float]]:
    """Set-up time at reference speed: the median over SETUP_REPEATS
    set-ups of each one's CPU time times BASELINE_REFERENCE_S / the CPU
    time of a baseline interpreter run right next to it.

    Also returns the raw set-up and baseline times. One untimed set-up
    first writes the bytecode caches, as a fresh checkout has none.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)]
    time_process(cmd)
    setups, baselines = [], []
    for k in range(SETUP_REPEATS):
        # alternate the order, so a trend in host speed favours neither
        if k % 2:
            setups.append(time_process(cmd))
            baselines.append(time_process(BASELINE_CMD))
        else:
            baselines.append(time_process(BASELINE_CMD))
            setups.append(time_process(cmd))
    scaled = statistics.median(
        s * BASELINE_REFERENCE_S / b for s, b in zip(setups, baselines)
    )
    return scaled, setups, baselines


def reference_rule(package):
    """The quadrature's cached reference rule, or None once it is gone."""
    rule = getattr(sys.modules[package.__name__ + ".quadrature"], "_reference_rule", None)
    return rule if hasattr(rule, "cache_info") else None


class Runner:
    """Runs jobs through the CLI and checks every output it writes."""

    def __init__(self, package, workdir: Path, jobs: list[dict]):
        self.package = package
        self.jobs = jobs
        self.paths = []
        for i, job in enumerate(jobs):
            cfg = workdir / f"job-{i:03d}.json"
            cfg.write_text(json.dumps(job, indent=1) + "\n")
            self.paths.append((cfg, workdir / f"out-{i:03d}.json"))
        self.probe = SpeedProbe()
        self.first_output: dict[int, bytes] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.accuracy: dict[str, list] = defaultdict(list)

    def _main(self, argv: list[str]):
        try:
            return self.package.cli.main(argv)
        except Exception:  # a crash fails this job, and the run goes on
            return "raised " + traceback.format_exc(limit=-3)

    def run(self, i: int) -> tuple[float, float, int]:
        """Run job i once; returns its wall time, its time at reference
        speed, and its output size in bytes."""
        job = self.jobs[i]
        cfg, out = self.paths[i]
        out.unlink(missing_ok=True)
        argv = [job["command"], "--config", str(cfg), "--out", str(out), "--format", "json"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status, elapsed, scaled = self.probe.measure(self._main, argv)
        data = out.read_bytes() if out.is_file() else None
        problems, accuracy = check_job(job, status, data)
        if data is not None and self.first_output.setdefault(i, data) != data:
            problems.append("output bytes differ from the job's first run")
        self.attempted += 1
        if problems:
            self.failures.append({"job": job, "problems": problems, "log": sink.getvalue()[-4000:]})
        for name, value in accuracy.items():
            self.accuracy[name].append(value)
        return elapsed, scaled, len(data or b"")

    def run_pass(self, tracer=None) -> tuple[list[float], list[float], int]:
        """All jobs once, from a cold reference-rule cache so that every
        pass does the same work.

        Returns raw job times, job times at reference speed, and the bytes
        of output written.
        """
        rule = reference_rule(self.package)
        if rule is not None:
            rule.cache_clear()
        gc.collect()
        raw, scaled, size = [], [], 0
        for i in range(len(self.jobs)):
            if tracer is not None:
                tracer.job = i
            elapsed, at_reference, nbytes = self.run(i)
            raw.append(elapsed)
            scaled.append(at_reference)
            size += nbytes
        return raw, scaled, size


def traced_pass(runner: Runner, untraced_wall: float, tag: str) -> tuple[dict, float, list[str]]:
    """One pass with every public function wrapped: per-layer metrics, the
    largest self-time accounting gap, and the jobs whose gap is too large."""
    tracer = Tracer()
    tracer.install()
    try:
        times, scaled, size = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    rule = reference_rule(runner.package)
    info = rule.cache_info() if rule is not None else None
    lookups = info.hits + info.misses if info else 0
    layer["quadrature.reference_rule_hit_ratio"] = info.hits / lookups if lookups else 0.0
    layer["cli.output_bytes"] = size
    layer["trace.overhead_s"] = sum(scaled) - untraced_wall
    # self times must add up to each job's wall time: no time unattributed
    totals = tracer.job_self_totals()
    gaps = [abs(wall - totals.get(i, 0.0)) for i, wall in enumerate(times)]
    problems = [
        f"job {i}: spans miss {gap!r} s of its {times[i]!r} s"
        for i, gap in enumerate(gaps)
        if gap > max(1e-3, 0.01 * times[i])
    ]
    tracer.write(WORK / f"spans-{tag}.csv")
    return layer, max(gaps), problems


def print_table(record: dict, spec: dict, layer_map: dict) -> None:
    """Every metric by name and unit, the error rate, the host and failures."""
    e2e, layer = record["end_to_end"], record["per_layer"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {record['passes']}  jobs {record['jobs']}")
    print("host " + json.dumps(record["host"]))
    for m in spec["end_to_end"]:
        value = e2e[m["name"]]
        shown = "n/a (no job measures it)" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<26} {shown:>14} {m['unit']}")
    print(f"  {'error_rate':<26} {record['error_rate']:>14.6g} 1  "
          f"({record['failed']} of {record['attempted']} jobs failed a check)")
    print(f"  job times: {record['job_samples']} samples; wall before scaling to reference "
          f"speed: {statistics.median(record['raw_pass_walls_s']):.6g} s")
    print(f"  set-up CPU time before scaling to reference speed: "
          f"{statistics.median(record['setup_samples_s']):.6g} s; baseline interpreter "
          f"{statistics.median(record['baseline_samples_s']):.6g} s")
    if record["trace"]:
        print("per-layer (traced pass) -> end-to-end metric it should move")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<40} {layer[m['name']]:>14.6g} {m['unit']:<6} -> {layer_map[m['name']]}")
        print(f"  self-time accounting: largest gap {record['accounting_gap_s']:.3g} s, "
              f"{'FAILED' if record['accounting_problems'] else 'ok'}")
    for f in record["failures"]:
        print("FAILED " + json.dumps(f["job"], sort_keys=True) + ": " + "; ".join(f["problems"]))
    for p in record["accounting_problems"]:
        print("ACCOUNTING " + p)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    if set(layer_map) != {m["name"] for m in spec["per_layer"]}:
        raise SystemExit("perfbench: layer_map.json and BENCHMARK.json name different layer metrics")
    package = import_package()
    host = host_info()
    jobs = jobs_for(workload, seed)
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_s, setup_raw, baseline_raw = time_setup(workload, seed)
    runner = Runner(package, workdir, jobs)
    tag = f"{workload}-seed{seed}"
    raw_walls, walls, job_times = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        raw, scaled, _ = runner.run_pass()
        raw_walls.append(sum(raw))
        walls.append(sum(scaled))
        job_times += scaled
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # README promises byte-stable tables: rerun the fastest job and compare
    runner.run(min(range(len(jobs)), key=job_times.__getitem__))

    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(job_times),
        "job_p90_s": statistics.quantiles(job_times, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
    }
    for name, combine in ACCURACY.items():
        values = runner.accuracy.get(name)
        e2e[name] = combine(values) if values else None

    layer, gap, accounting = traced_pass(runner, e2e["wall_s"], tag) if traced else ({}, 0.0, [])
    failed = len(runner.failures)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "host": host,
        "jobs": len(jobs),
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "setup_samples_s": setup_raw,
        "baseline_samples_s": baseline_raw,
        "job_samples": len(job_times),
        "attempted": runner.attempted,
        "failed": failed,
        "error_rate": failed / runner.attempted,
        "end_to_end": e2e,
        "per_layer": layer,
        "accounting_gap_s": gap,
        "accounting_problems": accounting,
        "failures": runner.failures,
    }
    (WORK / f"result-{tag}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print_table(record, spec, layer_map)

    chosen = spec["per_layer"] if traced else spec["end_to_end"]
    values = layer if traced else e2e
    metrics = {
        m["name"]: {
            "value": STAND_IN if values[m["name"]] is None else values[m["name"]],
            "unit": m["unit"],
        }
        for m in chosen
    }
    result = {
        "correct": not runner.failures and not accounting,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {workload} exited {proc.returncode}")
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
