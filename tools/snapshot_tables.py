"""Snapshot every benchmark job's table, stdout and exit status.

    python3 tools/snapshot_tables.py <tree> <out-dir>

Runs each job of verify-large, solve-large and batch-small seeds 1-3
(``perfbench/workloads.py`` of ``<tree>``, imported read-only) through
``sonine_kit.cli.main`` of ``<tree>/src``, once in JSON and once in CSV,
in this one single-threaded process. For job i of a workload it writes
``<out-dir>/<workload>/<i>-<command>.<format>`` (the table), ``.stdout``
(with the output path masked as ``<out>``) and ``.status`` (the exit
status, or the traceback's last line if the CLI raised). For each
workload it also writes ``<out-dir>/<workload>/metrics.json``: the
benchmark's accuracy figures over the JSON runs, each job's from
``check_job`` and combined by ``ACCURACY`` of ``<tree>/perfbench/run.py``
(imported read-only: the largest, or for ``converge_order_min`` the
smallest), and ``failed_checks``, the number of JSON runs that fail a
check. Snapshot two trees and compare them with ``diff -r``: identical
directories mean byte-identical tables, summaries, exit statuses and
accuracy figures.
"""

import os

# single-threaded numerics, as in the benchmark: set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 2, 3)
FORMATS = ("json", "csv")


def _suites(workloads) -> list[tuple[str, list[dict]]]:
    """(name, jobs) of every workload the snapshot covers."""
    return [("verify-large", workloads.verify_large()), ("solve-large", workloads.solve_large())] + [
        (f"batch-small-seed{seed}", workloads.batch_small(seed)) for seed in SEEDS
    ]


def snapshot(tree: Path, out_dir: Path) -> int:
    """Write the snapshot of ``tree`` into ``out_dir``; returns the number
    of job runs."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    cli = importlib.import_module("sonine_kit.cli")
    workloads = importlib.import_module("workloads")
    bench = importlib.import_module("run")
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "job.json"
        for name, jobs in _suites(workloads):
            folder = out_dir / name
            folder.mkdir(parents=True, exist_ok=True)
            accuracy, failed = defaultdict(list), 0
            for i, job in enumerate(jobs):
                cfg.write_text(json.dumps(job) + "\n")
                for fmt in FORMATS:
                    stem = folder / f"{i:03d}-{job['command']}.{fmt}"
                    argv = [job["command"], "--config", str(cfg), "--out", str(stem), "--format", fmt]
                    stem.unlink(missing_ok=True)
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink):
                        try:
                            status = cli.main(argv)
                        except Exception:  # a crash is recorded, and the run goes on
                            status = "raised " + traceback.format_exc().splitlines()[-1]
                    stem.with_name(stem.name + ".stdout").write_text(
                        sink.getvalue().replace(str(stem), "<out>")
                    )
                    stem.with_name(stem.name + ".status").write_text(f"{status}\n")
                    runs += 1
                    if fmt == "json":
                        data = stem.read_bytes() if stem.is_file() else None
                        problems, figures = bench.check_job(job, status, data)
                        failed += bool(problems)
                        for key, value in figures.items():
                            accuracy[key].append(value)
            metrics = {key: bench.ACCURACY[key](values) for key, values in accuracy.items()}
            metrics["failed_checks"] = failed
            (folder / "metrics.json").write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/snapshot_tables.py <tree> <out-dir>", file=sys.stderr)
        return 1
    runs = snapshot(Path(argv[0]).resolve(), Path(argv[1]))
    print(f"{runs} job runs -> {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
