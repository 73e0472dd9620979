"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-powerlaw --seed 1 --seconds 25 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a run that alternates untraced and traced
batches.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest-powerlaw", "ingest-road", "serve-mixed")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _report(out, trace: bool) -> dict:
    """Print the human-readable report; return the JSON result."""
    print(f"== {out.workload}")
    for name, m in {**out.metrics, **out.extra}.items():
        print(f"  {name:<22} {m.value:>14.6g} {m.unit:<6} {m.note}")
    if out.work:
        work = ", ".join(f"{k}={v}" for k, v in out.work.items())
        print(f"  work per cycle: {work}")
    if trace:
        for name, m in out.layers.items():
            print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    for line in out.notes:
        print(f"  {line}")
    for problem in out.problems:
        print(f"  FAILED CHECK: {problem}")
    print(f"  checks: {out.failed} failed of {out.attempted} operations")
    if trace:
        metrics = out.layers
    else:
        metrics = {k: {"value": m.value, "unit": m.unit} for k, m in out.metrics.items()}
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro import obs
    from repro.obs.flightrec import RECORDER

    # Measure the code as deployed by default: metrics and recorder off.
    obs.disable()
    RECORDER.disable()
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        from perfbench import serve

        state_root = ROOT / ".perfbench-state"
        state_root.mkdir(exist_ok=True)
        state = tempfile.mkdtemp(dir=state_root)
        try:
            out = serve.run(args.workload, args.seed, args.seconds, trace, state)
        finally:
            shutil.rmtree(state, ignore_errors=True)
            if not any(state_root.iterdir()):
                os.rmdir(state_root)
    else:
        from perfbench import ingest

        out = ingest.run(args.workload, args.seed, args.seconds, trace)
    result = _report(out, trace)
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
