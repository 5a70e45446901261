"""saproute benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload corridor --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 50

A run repeats set-up and a whole pass, in turn, until ``--seconds`` have
passed (at least once); every figure comes from each solve's best time
over the passes (see ``measure``).  With ``--trace 0`` it prints
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics, measured by spans around each layer's public functions.  Every
solve is checked (see ``workloads.check_pass``); the last line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
if any solve raised or failed a check.  ``--all`` runs every workload of
BENCHMARK.json untraced and traced, each in its own process, and prints
every metric, the fail ratio and the tracing overhead.  ``sweep`` is not
among them and runs only when named with ``--workload``.

Records, spans and the sweep's input files go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
KEPT_RATIO = "dominance.simple_cull.kept_ratio"
T2_METRIC = "solve_s.1d-sap.fc.t2"


def _import_program():
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "saproute" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        sys.exit(f"error: no saproute sources under {SRC} or no {SPEC_FILE.name}; "
                 "run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import saproute
    if SRC not in Path(saproute.__file__).resolve().parents:
        sys.exit(f"error: imported saproute from {saproute.__file__}, not {SRC}")


_import_program()

from tracing import Tracer, write_spans  # noqa: E402
from workloads import FULL, WORKLOADS, Session, check_pass  # noqa: E402


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


# --- host context ------------------------------------------------------------

def steal_seconds() -> float | None:
    """Seconds this machine's CPUs waited while the hypervisor ran other
    guests, since boot (the steal column of /proc/stat)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - started


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_context() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit()}


# --- metrics -----------------------------------------------------------------

def form_metric(solve) -> str:
    name = ("solve_s.d-sap" if solve.variant == "d-sap"
            else f"solve_s.{solve.variant}.{solve.algorithm}")
    return name if solve.threads == 1 else f"{name}.t{solve.threads}"


def figures(solves, walls, calls) -> dict:
    """End-to-end figures from each solve's wall_time_s and the seconds of
    the call that produced it; a form's time is its summed wall_time_s."""
    out: dict = {}
    for s, wall in zip(solves, walls):
        name = form_metric(s)
        out[name] = out.get(name, 0.0) + wall
    latencies = [wall * 1000.0 for wall in walls]
    out["solves_per_s"] = len(walls) / sum(calls) if sum(calls) > 0 else 0.0
    out["solve_ms.p50"] = statistics.median(latencies)
    out["solve_ms.p90"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return out


def key_digest(solves) -> str:
    text = repr([s.solution.key() if s.solution is not None else s.error
                 for s in solves])
    return hashlib.sha256(text.encode()).hexdigest()


class Result:
    def __init__(self, trace):
        self.trace = trace
        self.metrics: dict = {}
        self.counts: dict = {}
        self.attempted = 0
        self.failures: list = []    # one message per failed solve
        self.problems: list = []    # failed checks on the run as a whole
        self.digest = ""
        self.setup_s: list = []
        self.pass_s: list = []
        self.calib_s: list = []     # calibration loop after each pass
        self.per_pass: list = []    # each pass's figures, for the record
        self.spans: list = []


def measure(workload, seed, seconds, trace, sizes=FULL, out_dir=OUT_DIR) -> Result:
    """Run set-up and a timed pass in turn for ``seconds`` (at least once),
    then check.

    Each pass gets freshly built inputs, so a cache kept on an input object
    starts cold in every pass, as it does for a user.  Every figure is built
    from each solve's best time over the passes, and ``setup_s`` is the
    fastest set-up.  A shared 2-vCPU VM can run at two speed levels about
    1.75x apart, switching every few seconds; a solve's best time is the one
    that no slow spell touched, where a median would follow how long the
    slow spells lasted.  The median set-up of a run moved with the host's
    level by up to 1.75x; the fastest moved as little as the solves did.
    """
    wl = WORKLOADS[workload]
    res = Result(trace)
    work_dir = out_dir / f"{workload}-seed{seed}"
    tracer = Tracer() if trace else None
    best_walls, best_calls, best_self = [], [], {}
    first = first_inp = first_keys = first_counts = None
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        # the last pass's inputs, answers and garbage are not this round's cost
        inp = solves = None
        gc.collect()
        started = time.perf_counter()
        inp = wl.setup(seed, sizes, work_dir)
        res.setup_s.append(time.perf_counter() - started)
        gc.collect()   # nor is set-up's garbage the pass's
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            session = stack.enter_context(Session())
            started = time.perf_counter()
            solves = wl.run_pass(session, inp)
            res.pass_s.append(time.perf_counter() - started)
        res.calib_s.append(calibration_s())
        self_s, counts, spans = tracer.take_pass() if tracer else ({}, {}, [])
        walls = [s.wall_s for s in solves]
        calls = [s.call_s for s in solves]
        res.per_pass.append(figures(solves, walls, calls))
        res.attempted += len(solves)
        if first is None:
            first, first_inp, first_counts, res.spans = solves, inp, counts, spans
            first_keys = [s.solution.key() if s.solution else None for s in solves]
            best_walls, best_calls = walls, calls
        else:
            # later passes keep only their times; their answers must repeat
            for i, s in enumerate(solves):
                if s.error is not None:
                    res.failures.append(s.error)
                elif s.solution.key() != first_keys[i]:
                    res.failures.append(f"solve {i}: Solution.key() changed between passes")
            if counts != first_counts:
                res.problems.append("work counts changed between traced passes")
            best_walls = list(map(min, best_walls, walls))
            best_calls = list(map(min, best_calls, calls))
        for key, t in self_s.items():
            best_self[key] = min(t, best_self.get(key, t))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = wl.oracle(first_inp) if wl.oracle else None
    res.failures[:0] = [f for f in check_pass(first, first_inp, oracle) if f is not None]
    res.digest = key_digest(first)
    if tracer is None:
        res.metrics = figures(first, best_walls, best_calls)
        res.metrics["setup_s"] = min(res.setup_s)
        res.metrics["peak_rss_mb"] = peak_mb
    else:
        res.counts = dict(first_counts)
        cull_in = res.counts.get("dominance.simple_cull.in", 0)
        res.counts[KEPT_RATIO] = (res.counts.get("dominance.simple_cull.kept", 0)
                                  / cull_in if cull_in else 0.0)
        for (_, name), t in best_self.items():
            metric = f"{name}.self_s"
            res.metrics[metric] = res.metrics.get(metric, 0.0) + t
        res.metrics.update(res.counts)
        res.metrics["trace.solve_s"] = sum(
            wall for s, wall in zip(first, best_walls) if s.threads == 1)
        # two-thread solves run on the corridor only, so their time is
        # reported with the layers rather than bounded on every workload
        res.metrics[T2_METRIC] = figures(first, best_walls, best_calls).get(T2_METRIC, 0.0)
    return res


def result_line(res: Result, spec: dict) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json names."""
    if res.trace:
        # a layer function that no solve called, or that the program no
        # longer has, reads 0
        metrics = {m["name"]: {"value": res.metrics.get(m["name"], 0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res.metrics[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": not res.failures and not res.problems,
            "attempted": res.attempted, "failed": len(res.failures),
            "metrics": metrics}


def run_one(args, sizes, out_dir, out) -> int:
    spec = load_spec()
    steal_before = steal_seconds()
    started = time.perf_counter()
    res = measure(args.workload, args.seed, args.seconds, args.trace, sizes, out_dir)
    steal_after = steal_seconds()
    host = host_context()
    host["steal_s"] = (None if steal_before is None or steal_after is None
                       else steal_after - steal_before)
    host["run_s"] = time.perf_counter() - started
    for key, values in (("setup_s", res.setup_s), ("pass_s", res.pass_s),
                        ("calib_s", res.calib_s)):
        host[key] = {"min": min(values), "median": statistics.median(values),
                     "max": max(values)}
    line = result_line(res, spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(res.pass_s), "host": host,
              "key_digest": res.digest, "failures": res.failures[:50],
              "problems": res.problems,
              "counts": res.counts, "per_pass": res.per_pass, "result": line}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if res.trace:
        write_spans(res.spans, f"{stem}.spans.jsonl")
    for failure in res.problems + res.failures[:20]:
        print(f"FAIL {failure}", file=out)
    print(f"host {json.dumps(host)} passes={len(res.pass_s)} "
          f"fail_ratio={line['failed'] / line['attempted']:.6g}", file=out)
    print(json.dumps(line), file=out)
    return 0 if line["correct"] else 1


def run_all(args, out) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    spec = load_spec()
    status = 0
    print(f"{'workload':<9} {'metric':<40} {'value':>14}  unit", file=out)
    for entry in spec["workloads"]:
        name = entry["name"]
        lines = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False, timeout=900)
            if proc.returncode != 0:
                status = 1
                print(f"{name} trace={trace} exited {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=out)
                continue
            lines[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, v in lines[trace]["metrics"].items():
                print(f"{name:<9} {metric:<40} {v['value']:>14.6g}  {v['unit']}", file=out)
            print(f"{name:<9} {'fail_ratio (trace=%d)' % trace:<40} "
                  f"{lines[trace]['failed'] / lines[trace]['attempted']:>14.6g}  ratio",
                  file=out)
        if len(lines) == 2:
            untraced = sum(v["value"] for m, v in lines[0]["metrics"].items()
                           if m.startswith("solve_s."))
            traced = lines[1]["metrics"]["trace.solve_s"]["value"]
            print(f"{name:<9} {'tracing overhead (traced - untraced)':<40} "
                  f"{traced - untraced:>14.6g}  s", file=out)
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload of BENCHMARK.json untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure whole passes for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None, sizes=FULL, out_dir=OUT_DIR, out=None) -> int:
    out = out or sys.stdout
    args = parse_args(argv)
    if args.all:
        return run_all(args, out)
    return run_one(args, sizes, out_dir, out)


if __name__ == "__main__":
    sys.exit(main())
