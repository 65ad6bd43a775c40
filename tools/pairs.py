"""Run the benchmark on two commits in alternating pairs and save one BENCH file.

    python tools/pairs.py --parent REV --change REV [--workloads NAME ...]
        [--control] [--out PATH] [--description TEXT]

Both commits are exported with ``git archive`` into fresh temporary
directories, so only committed files are measured.  For each workload, pair
``i`` (``PAIRS`` of them) runs ``benches/run.py --workload W --seed S --trace
0`` of both trees with the same seed (``SEEDS[i % len(SEEDS)]``); the run
length is ``run.py``'s default, the ``run_seconds`` of ``BENCHMARK.json``.
The parent runs first in even pairs and the change first in odd ones, so a
drift of the machine's speed does not favour one side.  With ``--control``
the change side is a second archive of the parent: its spread is the noise
floor a claim on the same machine has to clear.

The output (default: ``BENCH_<n>.json`` in the repository root, ``n`` one
above the largest existing) holds ``runs``, one entry per run::

    {"tree": "parent"|"change", "workload", "seed", "pair", "first", "result"}

where ``result`` is the last stdout line of ``run.py`` (or an ``error``), and
a ``summary`` per workload (see ``summarize``).  The file is rewritten after
every pair, so an interrupted series keeps what it measured.  Only git and the
repository are needed.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEEDS = [42, *range(2001, 2010)]


def export(rev: str, dest: Path) -> str:
    """``git archive`` of ``rev`` unpacked into ``dest``; returns the full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one ``benches/run.py`` run of ``tree``."""
    proc = subprocess.run(
        [sys.executable, "benches/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _valid(result: dict) -> bool:
    """A run counts only if it finished and passed ``run.py``'s correctness gate."""
    return "error" not in result and result.get("correct") is True


def _health(results: list[dict]) -> dict:
    errored = sum("error" in r for r in results)
    return {
        "runs": len(results),
        "errored": errored,
        "incorrect": len(results) - errored - sum(_valid(r) for r in results),
        "failed": sum(r.get("failed", 0) for r in results),
        "attempted": sum(r.get("attempted", 0) for r in results),
    }


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload: ``health``, and per end-to-end metric (``metrics`` maps
    its name to ``"lower"`` or ``"higher"``, the better direction) the stats
    of both sides.

    ``health[tree]`` counts that side's ``runs``, the ``errored`` ones (no
    result line), the ``incorrect`` ones (``correct`` not true) and the
    summed ``failed`` and ``attempted`` jobs of the runs that reported them;
    ``valid`` is true when no run of either side errored or was incorrect.
    Only valid runs enter ``metrics``: each side's median and quartiles
    (``statistics.quantiles``, exclusive method), the parent's IQR, the
    change of the medians (absolute and relative), and ``change_better_pairs``
    out of ``pairs``, the pairs in which both runs are valid (``pairs_run``
    counts every pair that ran)."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        own = [r for r in runs if r["workload"] == workload]
        health = {
            tree: _health([r["result"] for r in own if r["tree"] == tree])
            for tree in ("parent", "change")
        }
        per_metric = {}
        for name, better in metrics.items():
            sides: dict[str, dict[int, float]] = {"parent": {}, "change": {}}
            for run in own:
                value = run["result"].get("metrics", {}).get(name, {}).get("value")
                if _valid(run["result"]) and value is not None:
                    sides[run["tree"]][run["pair"]] = value
            if not sides["parent"] or not sides["change"]:
                continue
            stats = {}
            for tree, values in sides.items():
                q1, median, q3 = _quartiles(sorted(values.values()))
                stats[tree] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
            pairs = sorted(set(sides["parent"]) & set(sides["change"]))
            sign = 1.0 if better == "lower" else -1.0
            delta = stats["change"]["median"] - stats["parent"]["median"]
            per_metric[name] = {
                **stats,
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
                "median_change": delta,
                "median_change_rel": delta / stats["parent"]["median"],
                "better": better,
                "change_better_pairs": sum(
                    sign * (sides["change"][p] - sides["parent"][p]) < 0 for p in pairs
                ),
                "pairs": len(pairs),
                "pairs_run": len({r["pair"] for r in own}),
            }
        summary[workload] = {
            "health": health,
            "valid": all(h["errored"] == 0 and h["incorrect"] == 0 for h in health.values()),
            "metrics": per_metric,
        }
    return summary


def default_out() -> Path:
    numbers = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(numbers, default=0) + 1}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--control", action="store_true",
                        help="run the parent against a second archive of itself")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    out = args.out or default_out()
    work = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        parent_sha = export(args.parent, trees["parent"])
        change_sha = export(args.parent if args.control else args.change, trees["change"])
        payload = {
            "description": args.description,
            "parent": parent_sha,
            "change": change_sha,
            "control": args.control,
            "command": "benches/run.py --workload W --seed S --trace 0",
            "run_seconds": benchmark["run_seconds"],
            "runs": [],
            "summary": {},
        }
        for workload in workloads:
            for pair in range(PAIRS):
                seed = SEEDS[pair % len(SEEDS)]
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for tree in order:
                    result = run_once(trees[tree], workload, seed)
                    payload["runs"].append({
                        "tree": tree, "workload": workload, "seed": seed,
                        "pair": pair, "first": order[0], "result": result,
                    })
                    job = result.get("metrics", {}).get("job_s", {}).get("value")
                    print(f"{workload} pair {pair} seed {seed} {tree}: job_s {job}",
                          file=sys.stderr)
                payload["summary"] = summarize(payload["runs"], metrics)
                out.write_text(json.dumps(payload, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for workload, summary in payload["summary"].items():
        for tree, h in summary["health"].items():
            print(f"{workload} {tree}: {h['runs']} runs, {h['errored']} errored, "
                  f"{h['incorrect']} incorrect, {h['failed']} of {h['attempted']} jobs failed")
        for name, s in summary["metrics"].items():
            print(f"{workload} {name}: {s['parent']['median']:.6g} -> "
                  f"{s['change']['median']:.6g} ({100 * s['median_change_rel']:+.1f} %, "
                  f"{s['change_better_pairs']}/{s['pairs']} valid pairs better of {s['pairs_run']}, "
                  f"parent IQR {s['parent_iqr']:.3g})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
