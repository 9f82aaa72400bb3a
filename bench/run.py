"""Run the simulator benchmark (see bench/README.md).

    python bench/run.py                                   # all workloads
    python bench/run.py --workload incident_slo --seed 3 --seconds 20 --trace 0
    python bench/run.py --compare a.json b.json

The thread pins are set before numpy is imported, so the simulator and every
round child forked from this process run on one BLAS thread.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        print(f"error: cannot import the simulator from {src}: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    from harness import main

    raise SystemExit(main())
