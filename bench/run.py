"""eiskit benchmark: one workload, closed loop, one op at a time.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Set-up (import plus input generation) runs in a child process, several
times, so that this process's caches stay empty; each child times its own
set-up, so interpreter start-up is not part of it.  For --seconds,
cold passes over the op list (the first one, then more with eiskit's
in-process caches emptied) alternate with warm passes.  With --trace 1 the
warm passes alternate instead between the unmodified program and one whose
public functions record layer spans.  The
last line of stdout is the JSON result; every op's outcome is checked
against its reference after the timed passes.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("gl3-eval", "cli-mix")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="generate the inputs into DIR and exit (the timed "
                        "set-up step)")
    args = p.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    return args


# --------------------------------- set-up -----------------------------------


def _setup_only(args) -> None:
    """Set up once; print the seconds it took as the last line."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import eiskit  # noqa: F401  (the import is part of the timed set-up)
    import workloads

    workdir = Path(args.setup_only)
    ops = workloads.generate(args.workload, args.seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "ops.json").write_text(json.dumps(ops))
    print(time.perf_counter() - start)


def _timed_setup(args, workdir: Path) -> tuple[float, list[dict]]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only",
            str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, check=True, timeout=CHILD_TIMEOUT_S,
                             cwd=ROOT, capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]))
    ops = json.loads((workdir / "ops.json").read_text())
    return statistics.median(times), ops


# ------------------------------ environment ---------------------------------


def _environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas,
            **{k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EISKIT_THREADS")},
            "commit": commit}


# --------------------------------- passes -----------------------------------


class Pass:
    def __init__(self, runner, traced: bool):
        self.traced = traced
        self.op_s: list[float] = []
        self.records: list[dict] = []
        clock = time.perf_counter
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = clock()
        for index in range(len(runner.ops)):
            t = clock()
            self.records.append(runner.run(index))
            self.op_s.append(clock() - t)
        self.wall_s = clock() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.minflt = after.ru_minflt - before.ru_minflt
        self.cpu_s = (after.ru_utime + after.ru_stime
                      - before.ru_utime - before.ru_stime)


def _clear_caches() -> None:
    """Empty eiskit's in-process caches, as a new process has them.

    A cache is a module-level `functools` cache or a module-level dict whose
    name holds "cache".
    """
    for name, module in list(sys.modules.items()):
        if name != "eiskit" and not name.startswith("eiskit."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif isinstance(value, dict) and "cache" in attr.lower():
                value.clear()


def _measure(runner, seconds: float, trace: bool, tracer):
    """Passes until `seconds` have passed: (cold, warm, spans).

    The first pass is cold.  Without tracing, cold passes (caches emptied
    first) alternate with warm passes, so host speed, which drifts on the
    scale of a run, weighs on both medians alike.  With tracing, untraced
    and traced warm passes alternate.
    """
    start = time.perf_counter()
    cold = [Pass(runner, traced=False)]
    warm, spans = [], []
    while True:
        warm.append(Pass(runner, traced=False))
        if trace:
            tracer.install()
            try:
                warm.append(Pass(runner, traced=True))
            finally:
                tracer.uninstall()
            spans.append(tracer.take())
        if time.perf_counter() - start >= seconds:
            return cold, warm, spans
        if not trace:
            _clear_caches()
            cold.append(Pass(runner, traced=False))


# -------------------------------- metrics -----------------------------------


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _end_to_end(setup_s, cold, warm, ok_ratio, rel_err_max, rss_mb) -> dict:
    op_s = [t for p in warm for t in p.op_s]
    return {"setup_s": (setup_s, "s"),
            "cold_pass_s": (statistics.median(p.wall_s for p in cold), "s"),
            "pass_s": (statistics.median(p.wall_s for p in warm), "s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "op_s.p90": (_p90(op_s), "s"),
            "ok_ratio": (ok_ratio, "ratio"),
            "rel_err.max": (rel_err_max, "ratio"),
            "peak_rss_mb": (rss_mb, "MB")}


def _per_layer(warm, spans) -> dict:
    from tracing import LAYERS, layer_table

    plain = [p for p in warm if not p.traced]
    traced = [p for p in warm if p.traced]
    tables = [layer_table(s) for s in spans]
    out = {}
    for layer in LAYERS:
        for key, unit in (("calls", "count"), ("self_s", "s"),
                          ("total_s", "s"), ("errors", "count")):
            out[f"{layer}.{key}"] = (
                statistics.median(t[layer][key] for t in tables), unit)
    out["proc.minflt"] = (statistics.median(p.minflt for p in plain), "count")
    out["proc.cpu_util"] = (sum(p.cpu_s for p in plain)
                            / sum(p.wall_s for p in plain), "ratio")
    out["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in plain), "s")
    out["trace.pass_s"] = (statistics.median(p.wall_s for p in traced), "s")
    return out


def _classify(ops, passes, checker):
    """Count failed executions; failures of a documented defect are expected.

    Returns (attempted, failed, unexpected, summary) where summary maps an
    op id to (failures, first reason).
    """
    from workloads import is_expected

    attempted = failed = unexpected = 0
    summary: dict[str, list] = {}
    for p in passes:
        for spec, record in zip(ops, p.records):
            attempted += 1
            bad, reason = checker.classify(spec, record)
            if not bad:
                continue
            failed += 1
            if not is_expected(spec, reason):
                unexpected += 1
                reason = "UNEXPECTED " + reason
            entry = summary.setdefault(spec["id"], [0, reason])
            entry[0] += 1
    return attempted, failed, unexpected, summary


# ---------------------------------- main ------------------------------------


def _run_workload(args) -> dict:
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_s, ops = _timed_setup(args, workdir)
        sys.path.insert(0, str(ROOT / "src"))
        from tracing import Tracer
        from workloads import DEFECTS, Checker, Runner

        runner = Runner(ops)
        tracer = Tracer()
        cold, warm, spans = _measure(runner, args.seconds, bool(args.trace),
                                     tracer)
        # before the references, which allocate more than some workloads
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checker = Checker()
        attempted, failed, unexpected, summary = _classify(
            ops, cold + warm, checker)
        # the whittaker layer's reference, checked where that layer runs
        oracle = (checker.whittaker_oracle() if args.workload == "cli-mix"
                  else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env: " + json.dumps(_environment(), sort_keys=True))
    plain = [p for p in warm if not p.traced]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per "
          f"pass, {len(cold)} cold + {len(plain)} warm passes"
          + (f" + {len(warm) - len(plain)} traced" if args.trace else "")
          + f", {sum(len(p.op_s) for p in plain)} warm op samples")
    for op_id, (count, reason) in summary.items():
        print(f"  failed {count}x {op_id}: {reason}")
    if oracle:
        print(f"  check failed: {oracle}")
    for note in sorted(set(checker.notes)):
        print(f"  note: {note}")
    for op_id, defect in sorted({(s["id"], s["defect"]) for s in ops
                                 if s.get("defect")}):
        print(f"  documented defect {defect} in {op_id}: "
              f"{DEFECTS[defect][1]}")

    if args.trace:
        metrics = _per_layer(warm, spans)
        _write_spans(out_dir, args, spans)
        _print_layer_table(metrics)
    else:
        metrics = _end_to_end(setup_s, cold, warm, 1.0 - failed / attempted,
                              checker.rel_err_max(), rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:>14.6g} {unit}")
    return {"correct": unexpected == 0 and not oracle, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _print_layer_table(metrics: dict) -> None:
    from tracing import LAYERS

    print(f"  {'layer':12s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s} "
          f"{'errors':>7s}")
    for layer in LAYERS:
        row = [metrics[f"{layer}.{k}"][0]
               for k in ("calls", "self_s", "total_s", "errors")]
        print(f"  {layer:12s} {row[0]:9.0f} {row[1]:10.4f} {row[2]:10.4f} "
              f"{row[3]:7.0f}")
    self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    print(f"  layer self time sum {self_sum:.4f} s of traced pass "
          f"{metrics['trace.pass_s'][0]:.4f} s")


def _write_spans(out_dir: Path, args, spans: list) -> None:
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(
        {"fields": ["name", "layer", "start", "end", "parent", "raised",
                    "outermost"],
         "passes": spans}))
    print(f"spans: {path.relative_to(ROOT)}")


def _run_all(args) -> dict:
    """Every registered workload, each in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {workload} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            result["metrics"][f"{workload}/{name}"] = metric
    return result


def main(argv=None) -> None:
    args = _parse_args(argv)
    if args.setup_only:
        _setup_only(args)
        return
    if args.workload == "all":
        result = _run_all(args)
    else:
        result = _run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
