"""Snapshot every benchmark job's table, stdout and exit status.

    python3 tools/snapshot_tables.py <tree> <out-dir>

Runs each job of verify-large, solve-large and batch-small seeds 1-3
(``perfbench/workloads.py`` of ``<tree>``, imported read-only) through
``sonine_kit.cli.main`` of ``<tree>/src``, once in JSON and once in CSV,
in this one single-threaded process. For job i of a workload it writes
``<out-dir>/<workload>/<i>-<command>.<format>`` (the table), ``.stdout``
(with the output path masked as ``<out>``) and ``.status`` (the exit
status, or the traceback's last line if the CLI raised). Snapshot two
trees and compare them with ``diff -r``: identical directories mean
byte-identical tables, summaries and exit statuses.
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
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "job.json"
        for name, jobs in _suites(workloads):
            folder = out_dir / name
            folder.mkdir(parents=True, exist_ok=True)
            for i, job in enumerate(jobs):
                cfg.write_text(json.dumps(job) + "\n")
                for fmt in FORMATS:
                    stem = folder / f"{i:03d}-{job['command']}.{fmt}"
                    argv = [job["command"], "--config", str(cfg), "--out", str(stem), "--format", fmt]
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink):
                        try:
                            status = str(cli.main(argv))
                        except Exception:  # a crash is recorded, and the run goes on
                            status = "raised " + traceback.format_exc().splitlines()[-1]
                    stem.with_name(stem.name + ".stdout").write_text(
                        sink.getvalue().replace(str(stem), "<out>")
                    )
                    stem.with_name(stem.name + ".status").write_text(status + "\n")
                    runs += 1
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
