"""One set-up, timed from outside by run.py: import sonine_kit, then build
the workload's configs, kernel pairs and meshes.

Usage: python3 perfbench/setup_probe.py <src-dir> <workload> <seed>
"""

import json
import sys

src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)

from sonine_kit import (  # noqa: E402
    affine_exponent,
    graded_mesh,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    parse_config,
)
from workloads import jobs_for  # noqa: E402

for job in jobs_for(workload, seed):
    cfg = parse_config(json.dumps(job))
    kc = cfg.kernel
    if kc.kind == "classical":
        make_classical_abel_pair(kc.alpha, kc.b)
    else:
        make_variable_exponent_pair(affine_exponent(kc.a0, kc.a1, kc.b), kc.b)
    graded_mesh(cfg.N, cfg.r, kc.b)
