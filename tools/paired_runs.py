"""Alternating paired benchmark runs of two git refs, with a claim check.

Usage (from the repository root)::

    python3 tools/paired_runs.py --base HEAD~1 --change HEAD \\
        --workload ingest-powerlaw --pairs 10 --seed 201

Each ref is checked out into its own ``git worktree`` under a temporary
directory (removed afterwards), and ``perfbench/run.py`` runs there for
``BENCHMARK.json``'s ``run_seconds``, so both sides build what they run
from their own sources.  Pair ``i`` uses seed ``--seed + i`` on both
sides and alternates which side runs first.

For every workload and every end-to-end metric that ``BENCHMARK.json``
declares, the report gives each side's median and quartiles, the number
of pairs the change won (ties count for neither side), the parent's
interquartile range and whether a gain could be claimed: every run of
the change is correct, the change fails no larger share of its
operations than the parent, it wins at least nine tenths of the pairs
and the medians differ, in the better direction, by more than the
parent's interquartile range.  ``--json`` also writes every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Share of the pairs the change must win before a gain is claimed.
CLAIM_WIN_SHARE = 0.9


@dataclass(frozen=True)
class MetricSummary:
    """One metric of one workload over all pairs."""

    name: str
    better: str  # "lower" or "higher"
    base: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int  # pairs where the change read strictly better
    pairs: int
    healthy: bool  # every change run correct, no larger failure share

    @property
    def base_iqr(self) -> float:
        return self.base[2] - self.base[0]

    @property
    def ratio(self) -> float:
        """Change median over parent median (0 when the parent's is 0)."""
        return self.change[1] / self.base[1] if self.base[1] else 0.0

    @property
    def claimable(self) -> bool:
        """Whether the change's gain on this metric may be claimed."""
        gap = self.change[1] - self.base[1]
        if self.better == "lower":
            gap = -gap
        return (
            self.healthy
            and self.wins >= CLAIM_WIN_SHARE * self.pairs
            and gap > self.base_iqr
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failure_share(runs: list[dict]) -> float:
    """Failed over attempted operations, summed over ``runs``."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def summarize(
    base: list[dict], change: list[dict], metrics: list[tuple[str, str]]
) -> list[MetricSummary]:
    """Summaries of paired runs: ``base[i]`` and ``change[i]`` are the
    ``perfbench/run.py`` results of pair ``i`` (``correct``, ``attempted``,
    ``failed`` and ``metrics``); ``metrics`` lists ``(name, better)``."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same number (>= 1) of runs on each side")
    healthy = all(r["correct"] for r in change) and (
        failure_share(change) <= failure_share(base)
    )
    out = []
    for name, better in metrics:
        b = [run["metrics"][name]["value"] for run in base]
        c = [run["metrics"][name]["value"] for run in change]
        if better == "lower":
            wins = sum(y < x for x, y in zip(b, c))
        elif better == "higher":
            wins = sum(y > x for x, y in zip(b, c))
        else:
            raise ValueError(f"metric {name}: unknown direction {better!r}")
        out.append(
            MetricSummary(name, better, quartiles(b), quartiles(c), wins, len(b), healthy)
        )
    return out


def format_table(workload: str, rows: list[MetricSummary]) -> str:
    lines = [
        f"== {workload} ({rows[0].pairs} pairs)" if rows else f"== {workload}",
        f"  {'metric':<20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
        f" {'ratio':>7} {'wins':>6} {'parent IQR':>11}  claim",
    ]
    for r in rows:
        lines.append(
            f"  {r.name:<20} {_fmt(r.base):>34} {_fmt(r.change):>34}"
            f" {r.ratio:>7.3f} {r.wins:>3}/{r.pairs:<2} {r.base_iqr:>11.4g}"
            f"  {'yes' if r.claimable else 'no'}"
        )
    return "\n".join(lines)


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; returns its JSON result."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
        ],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent git ref")
    ap.add_argument("--change", required=True, help="changed git ref")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--json", type=Path, help="also write every run here")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    refs = {"base": _git("rev-parse", args.base), "change": _git("rev-parse", args.change)}
    runs: dict[str, dict[str, list[dict]]] = {w: {"base": [], "change": []} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="paired-runs-") as tmp:
        trees = {side: Path(tmp) / side for side in refs}
        try:
            for side, sha in refs.items():
                _git("worktree", "add", "--detach", str(trees[side]), sha)
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for workload in args.workload:
                    for side in order:
                        result = run_once(
                            trees[side], workload, args.seed + i, spec["run_seconds"]
                        )
                        runs[workload][side].append(result)
                        print(
                            f"pair {i + 1}/{args.pairs} {workload} {side}: "
                            f"correct={result['correct']} failed={result['failed']}",
                            file=sys.stderr,
                        )
        finally:
            for tree in trees.values():
                if tree.exists():
                    _git("worktree", "remove", "--force", str(tree))
    for workload, sides in runs.items():
        print(format_table(workload, summarize(sides["base"], sides["change"], metrics)))
        for side, rs in sides.items():
            failed = sum(r["failed"] for r in rs)
            attempted = sum(r["attempted"] for r in rs)
            incorrect = sum(not r["correct"] for r in rs)
            print(
                f"  {side}: {failed} of {attempted} operations failed,"
                f" {incorrect} of {len(rs)} runs incorrect"
            )
    if args.json:
        args.json.write_text(json.dumps({"refs": refs, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
