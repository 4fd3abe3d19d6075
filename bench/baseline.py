"""Record a baseline: every workload on several seeds, plus one traced run.

Usage, from the repository root:

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Each run is a separate ``bench/run.py`` process, one workload per process.
For every end-to-end metric the record holds the per-run values,
their median and quartiles, and the spread (interquartile distance over the
median) next to the bound fixed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)

# Figures from the ROADMAP re-anchor (2-core shared VM, Python 3.11.7, wall
# clock of the CLI as a fresh process), and the metric of this benchmark that
# measures the same work in-process.  The on-search workload stops at n = 7,
# so "search-on --n-max 8" is timed once on its own ("call").
ROADMAP = (
    ("search-on --n-max 8", 26.1, None, "call",
     ["search-on", "--n-max", "8", "--oracle", "--json"]),
    ("analyze O_6", 6.2, "tf-analyze", "item", "analyze O_6"),
    ("analyze T_4", 0.96, "tf-analyze", "item", "analyze T_4"),
    ("search-q4 --oracle", 1.0, "band-stream", "pass_s", None),
)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = HERE / "out" / f"report-{workload}-{seed}-{trace}.json"
    out.parent.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--report", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(out.read_text())


def _summary(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    record = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "date": time.strftime("%Y-%m-%d"),
        "workloads": {},
    }
    for w in spec["workloads"]:
        runs = []
        for seed in seeds:
            rep = _run(w["name"], seed, seconds, 0)
            runs.append(rep)
            m = rep["result"]["metrics"]
            print(w["name"], seed, " ".join(f"{k}={v['value']:.6g}" for k, v in m.items()),
                  flush=True)
        traced = _run(w["name"], seeds[0], seconds, 1)
        items = {}
        for rep in runs:
            for label, ms in rep["report"]["item_median_ms"].items():
                items.setdefault(label, []).append(ms)
        slowest = sorted(items, key=lambda k: -statistics.median(items[k]))[:5]
        record["workloads"][w["name"]] = {
            "why": w["why"],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted_per_run": runs[0]["result"]["attempted"],
            "failed_per_run": [r["result"]["failed"] for r in runs],
            "causes": runs[0]["report"]["causes"],
            "passes_per_run": runs[0]["report"]["passes"]["untraced"],
            "metrics": {
                name: _summary([r["result"]["metrics"][name]["value"] for r in runs],
                               bounds.get(name))
                for name in runs[0]["result"]["metrics"]
            },
            "raw": {
                "pass_s": _summary([r["report"]["pass_s_median"] for r in runs], None),
                "item_p50_ms": _summary([r["report"]["item_p50_ms"] for r in runs], None),
                "ref_ms": _summary([r["report"]["ref_ms"] for r in runs], None),
            },
            "slowest_items_median_ms": {k: statistics.median(items[k]) for k in slowest},
            "traced_seed": seeds[0],
            "layers": {
                k: v["value"] for k, v in traced["result"]["metrics"].items() if v["value"]
            },
        }
    record["roadmap_comparison"] = []
    for what, then, workload, kind, label in ROADMAP:
        if kind == "call":
            call = run.call_cli(label, "")
            if call.code != 0:
                raise RuntimeError(f"{what} exited {call.code}: {call.crash}")
            now, measured_as = call.seconds, "one in-process call"
        else:
            entry = record["workloads"][workload]
            now = (entry["raw"]["pass_s"]["median"] if kind == "pass_s"
                   else entry["slowest_items_median_ms"][label] / 1000)
            measured_as = f"{workload} {kind} {label or ''}".strip()
        record["roadmap_comparison"].append(
            {"what": what, "roadmap_s": then, "benchmark_s": now,
             "ratio": now / then, "measured_as": measured_as})
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record["workloads"].items():
        for metric, s in entry["metrics"].items():
            flag = "" if s["bound"] is None or s["spread"] <= s["bound"] / 3 else "  > bound/3"
            print(f"{name:14s} {metric:16s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" bound {s['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
