"""invmatch benchmark: fixed CLI workloads, timed end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload tf-analyze --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

One process runs one workload as a closed-loop client: it calls
``invmatch.cli.main(argv)`` in-process with stdin and stdout substituted,
each call starting after the previous one returns, with no threads.  A pass
runs the workload's items once; a run makes round(seconds / nominal pass
time) passes, at least one, so both sides of a comparison do the same work.
Timings are costs in reference loops: each call's time over the time of a
fixed pure-Python loop sampled around it (see ``RefClock``), because the
shared host's CPU speed wanders by up to half; raw seconds are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
passes untraced and half with spans around the calls into each module (see
``tracer.py``), prints the per-layer metrics and the tracing overhead, and
writes the spans to ``bench/out/``.  Every output is checked: witnesses are
re-verified, verdicts compared with the benchmark's own counts, and each
item's stdout must be byte-identical across passes, traced or not.

``--smoke`` runs all four workloads on small inputs, traced and untraced, in
a few seconds, to check the harness, the checkers and the tracer.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means a result was
printed; any error in the harness itself exits non-zero without one.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(SRC))
import invmatch  # noqa: E402

if Path(invmatch.__file__).resolve().parent != SRC / "invmatch":
    raise ImportError(f"invmatch imported from {invmatch.__file__}, not {SRC}")

from invmatch import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DOCUMENTED_EXITS = (0, 2, 3, 4, 5)
CAUSES = ("crash", "wrong", "budget", "exit")
SETUP_SAMPLES = 15

# BENCHMARK.json names every metric and its unit: the end-to-end ones printed
# with --trace 0, the per-layer ones ("<module>.<function>.<stat>", with
# "cli.<command>" for the report glue) printed with --trace 1.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
OVERHEAD = "trace_overhead_ratio"

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); from invmatch import cli; "
    "cli.build_parser(); sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


@dataclass
class Call:
    """Outcome of one CLI call."""

    code: int | None
    out: str
    err: str
    seconds: float
    crash: str | None = None
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end

    def key(self) -> tuple:
        return (self.code, self.crash, hashlib.sha256(self.out.encode()).hexdigest())


@dataclass
class Pass:
    seconds: float
    calls: list[Call]


def call_cli(argv: list[str], stdin: str) -> Call:
    """Run ``cli.main(argv)`` in-process with stdin, stdout and stderr
    substituted."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    code, crash = None, None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a measured outcome
        crash = f"{type(exc).__name__}: {exc}"[:200]
    finally:
        seconds = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return Call(code, out.getvalue(), err.getvalue(), seconds, crash)


# Reference work: a fixed pure-Python loop of the same kind as the
# program's hot loops (nested table lookups, comparisons, small tuples),
# independent of invmatch, so no change to the program can move it.
_REF_TABLE = [[(a * b + 7) % 61 for b in range(61)] for a in range(61)]
REF_EVERY_S = 0.1
REF_SIDE = 1


def reference_loop() -> int:
    t = _REF_TABLE
    acc = 0
    rows = {}
    for a in range(0, 61, 2):
        ta = t[a]
        for b in range(61):
            tab, tb = t[ta[b]], t[b]
            for c in range(0, 61, 4):
                if tab[c] != ta[tb[c]]:
                    acc += 1
        rows[a] = tuple(ta[:4])
    return acc + len(rows)


class RefClock:
    """Times ``reference_loop`` every ``REF_EVERY_S`` of wall time while the
    passes run, from a SIGALRM handler, so samples fall evenly in time
    whether or not a CLI call is running.

    The shared host's CPU speed wanders by up to half within a second and
    over minutes, and a run's raw timings wander with it.  :meth:`local` is
    the mean of the samples taken during a call and the ``REF_SIDE`` before
    and after it; call time over it is a cost in reference loops ("ref")
    that holds still when the host speeds up or slows down under both
    alike.  Time spent in the handler is subtracted from the call it
    interrupted (see ``run_pass``).
    """

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter when each sample ended
        self.samples: list[float] = []  # seconds per reference loop
        self.spent = 0.0  # seconds spent in the handler
        self._saved = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        try:
            reference_loop()
        except RecursionError:
            # the interrupted call is at the recursion limit; no sample,
            # and the program's own RecursionError is raised on its return
            pass
        else:
            self.times.append(time.perf_counter())
            self.samples.append(self.times[-1] - t0)
        finally:
            self.spent += time.perf_counter() - t0

    def __enter__(self) -> RefClock:
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def mean(self) -> float:
        if not self.samples:  # a run shorter than REF_EVERY_S
            self._on_alarm(None, None)
        return statistics.fmean(self.samples)

    def local(self, call: Call) -> float:
        """Mean reference time around ``call``: the samples taken while it
        ran and ``REF_SIDE`` before and after it."""
        self.mean()
        start, end = call.span
        lo = max(0, bisect.bisect_left(self.times, start) - REF_SIDE)
        hi = bisect.bisect_right(self.times, end) + REF_SIDE
        return statistics.fmean(self.samples[lo:hi])


def item_costs(items, passes: list[Pass], clock: RefClock) -> dict[str, float]:
    """Cost of each item in reference loops: its total call time over the
    total of the reference times around its calls."""
    sums = {}
    for p in passes:
        for item, call in zip(items, p.calls):
            s = sums.setdefault(item.label, [0.0, 0.0])
            s[0] += call.seconds
            s[1] += clock.local(call)
    return {label: t / r for label, (t, r) in sums.items()}


def run_pass(items, index: int, clock: RefClock, tracer=None) -> Pass:
    """Run each item once; the pass's time is the sum of its calls'."""
    calls = []
    for item in items:
        if tracer is not None:
            tracer.begin_call(index, item.label)
        spent, start = clock.spent, time.perf_counter()
        call = call_cli(item.argv, item.stdin)
        call.span = (start, time.perf_counter())
        call.seconds -= clock.spent - spent
        calls.append(call)
    return Pass(sum(c.seconds for c in calls), calls)


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    ``invmatch.cli`` and built its parser, i.e. can take its first call."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait()
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"set-up child exited {code} after {line!r}")
    return times


def classify(item, first: Call, call: Call, verified: str | None) -> str:
    """'ok' or the failure cause of ``call``; ``verified`` is the checker's
    verdict on ``first``, the item's first call in this run."""
    if call.crash is not None:
        return "crash"
    if call.code == 5 and item.expect_code != 5:
        return "budget"
    if call.code not in DOCUMENTED_EXITS:
        return "exit"
    if call.key() != first.key():
        return "wrong"  # output differs from the first pass
    return "ok" if verified is None else "wrong"


def check_first(items, first_pass: Pass) -> list[str | None]:
    """Run each item's checker once, on its first call; None means verified."""
    reasons = []
    for item, call in zip(items, first_pass.calls):
        if call.crash is not None or call.code != item.expect_code:
            reasons.append(f"exit {call.code}, crash {call.crash}")
            continue
        try:
            reasons.append(item.check(call.out, call.err))
        except Exception as exc:  # malformed output is a wrong answer
            reasons.append(f"checker raised {type(exc).__name__}: {exc}")
    return reasons


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it, never below the median; with fewer than 21
    samples no such percentile exists and the maximum is reported."""
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    pct = 100.0 * k / (len(xs) - 1) if len(xs) > 1 else 100.0
    return xs[k], pct, len(xs) - 1 - k


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def plan_passes(name: str, seconds: int, smoke: bool) -> int:
    if smoke:
        return 2
    return max(1, round(seconds / workloads.NOMINAL_PASS_S[name]))


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool):
    items = workloads.build(name, seed, smoke)
    setup = measure_setup(3 if smoke else SETUP_SAMPLES)
    total = plan_passes(name, seconds, smoke)
    n_plain = max(1, (total + 1) // 2) if trace else total
    n_traced = max(1, total // 2) if trace else 0

    with RefClock() as clock:
        plain = [run_pass(items, i, clock) for i in range(n_plain)]
    tracer = None
    traced = []
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with RefClock() as traced_clock:
                traced = [run_pass(items, n_plain + i, traced_clock, tracer)
                          for i in range(n_traced)]
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reasons = check_first(items, plain[0])
    causes = dict.fromkeys(CAUSES, 0)
    wrong_items = {}
    failed_labels = set()  # items with a failed untraced call
    for index, p in enumerate(plain + traced):
        for item, first, call, reason in zip(items, plain[0].calls, p.calls, reasons):
            outcome = classify(item, first, call, reason)
            if outcome != "ok":
                causes[outcome] += 1
                if index < len(plain):
                    failed_labels.add(item.label)
            if outcome == "wrong":
                why = reason if call.key() == first.key() else "stdout differs from the first pass"
                wrong_items[item.label, why] = None
    attempted = len(items) * (len(plain) + len(traced))
    failed = sum(causes.values())

    pass_s = [p.seconds for p in plain]
    item_ms = {}  # label -> ms of every untraced call of that item
    for p in plain:
        for item, call in zip(items, p.calls):
            item_ms.setdefault(item.label, []).append(call.seconds * 1000)
    # costs in reference loops (see RefClock); a pass costs its items' sum
    item_ref = item_costs(items, plain, clock)
    pass_ref = sum(item_ref[item.label] for item in items)
    # a failed item ranks above every success; if the tail lands on one, the
    # costliest item is reported
    tail_v, tail_pct, beyond = tail(
        [math.inf if label in failed_labels else r for label, r in item_ref.items()])
    if tail_v == math.inf:
        tail_v = max(item_ref.values())
    per_item = {label: statistics.median(ms) for label, ms in item_ms.items()}
    # the same percentile over the items' mean call times in milliseconds
    mean_ms = {label: statistics.fmean(ms) for label, ms in item_ms.items()}
    tail_ms = tail([math.inf if label in failed_labels else ms
                    for label, ms in mean_ms.items()])[0]
    if tail_ms == math.inf:
        tail_ms = max(mean_ms.values())
    report = {
        "workload": name,
        "seed": seed,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "causes": causes,
        "fail_ratio": failed / attempted,
        "wrong_items": list(wrong_items),
        "setup_samples_s": setup,
        "ref_ms": clock.mean() * 1000,
        "ref_samples": len(clock.samples),
        "pass_s_median": statistics.median(pass_s),
        "pass_s_quartiles": quartiles(pass_s),
        "item_p50_ms": statistics.median(
            c.seconds * 1000 for p in plain for c in p.calls),
        "item_samples": len(item_ref),
        "item_tail_percentile": tail_pct,
        "item_tail_beyond": beyond,
        "item_tail_ms": tail_ms,
        "item_median_ms": per_item,
    }
    if trace:
        metrics = tracer.layer_metrics(set(LAYER_UNITS) - {OVERHEAD})
        traced_ref = item_costs(items, traced, traced_clock)
        metrics[OVERHEAD] = sum(traced_ref[item.label] for item in items) / pass_ref
        units = LAYER_UNITS
        if not smoke:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{name}.tsv")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_ref": pass_ref,
            "item_p50_ref": statistics.median(item_ref.values()),
            "item_tail_ref": tail_v,
            "peak_rss_mb": peak_rss_mb,
            "verified_ratio": 1 - failed / attempted,
        }
        units = E2E_UNITS
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    result = {
        "correct": causes["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return report, result


def print_report(report: dict, result: dict) -> None:
    r = report
    print(f"workload {r['workload']} seed {r['seed']}: "
          f"{r['passes']['untraced']} untraced and {r['passes']['traced']} traced passes")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "pass_ref":
            q1, q3 = r["pass_s_quartiles"]
            extra = (f"  (mean of {r['passes']['untraced']} passes; pass_s median "
                     f"{r['pass_s_median']:.4f} s, quartiles {q1:.4f} / {q3:.4f})")
        elif name == "item_p50_ref":
            extra = (f"  (median of {r['item_samples']} items' mean cost; item_p50_ms "
                     f"{r['item_p50_ms']:.4g} ms over all calls)")
        elif name == "item_tail_ref":
            extra = (f"  (p{r['item_tail_percentile']:.1f} of {r['item_samples']} items, "
                     f"{r['item_tail_beyond']} beyond; item_tail_ms {r['item_tail_ms']:.4g} ms)")
        elif name == "setup_s":
            extra = f"  (median of {len(r['setup_samples_s'])} fresh interpreters)"
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  reference loop {r['ref_ms']:.4f} ms (mean of {r['ref_samples']} samples)")
    print(f"  fail_ratio {r['fail_ratio']:.6g} of {result['attempted']} calls; "
          + ", ".join(f"{c} {n}" for c, n in r["causes"].items()))
    slowest = sorted(r["item_median_ms"].items(), key=lambda kv: -kv[1])[:5]
    print("  slowest items (median ms over untraced passes): "
          + "; ".join(f"{label} {ms:.1f}" for label, ms in slowest))
    for label, reason in r["wrong_items"]:
        print(f"  WRONG: {label}: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", type=Path,
                    help="also write the full report as JSON to this file")
    ap.add_argument("--smoke", action="store_true",
                    help="all workloads on small inputs, traced and untraced")
    args = ap.parse_args(argv)
    if args.smoke:
        results = []
        for name in workloads.NAMES:
            for trace in (False, True):
                report, result = run_workload(name, args.seed, 0, trace, True)
                print_report(report, result)
                results.append(result)
        ok = all(r["correct"] and r["failed"] == 0 for r in results)
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }))
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), False)
    print_report(report, result)
    if args.report is not None:
        args.report.write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
