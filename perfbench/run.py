"""cogbert benchmark: one workload per process, or every workload, or a comparison.

  python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all --seeds 1,2 --record runs.jsonl
  python3 perfbench/run.py --compare parent.jsonl change.jsonl

A single-workload run builds its inputs from --seed, warms up, then times
whole units for --seconds (default: BENCHMARK.json's run_seconds) and checks
every unit's output. An untraced run also measures set-up in fresh
processes, spread over its timed phase. Its last stdout line is one JSON
object with keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1. With --record FILE the full run record (environment, all six
end-to-end metrics, output digests, trace details) is appended to FILE as
one JSON line.

The program is imported from ./src of the checkout the command runs in.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy can load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
TAIL_MIN_BEYOND = 10   # samples a tail percentile must leave beyond itself
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"


def _import_program():
    """Import cogbert from ./src, refusing any other copy of it."""
    if not (SRC / "cogbert" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'cogbert'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import cogbert
    if Path(cogbert.__file__).resolve().parent != SRC / "cogbert":
        sys.exit(f"perfbench: imported cogbert from {cogbert.__file__}, not from {SRC}")


def _environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
    }


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def _tail(unit_ms: list[float], pct: float | None) -> float | None:
    """The workload's tail percentile, or None if too few samples lie beyond it."""
    if pct is None or len(unit_ms) * (100.0 - pct) / 100.0 < TAIL_MIN_BEYOND:
        return None
    return _percentile(sorted(unit_ms), pct)


def _make_workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS
    return WORKLOADS[name](workdir, seed)


def _setup_probe(name: str, seed: int) -> None:
    """Child process: set up the workload, say so on stdout, then exit."""
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT))
    try:
        _make_workload(name, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_setup(name: str, seed: int) -> float:
    """Seconds from process start to workload ready, in one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe for {name} failed")
    return ready - start


class _Loop:
    """Runs units, timing each call and checking each output untimed."""

    def __init__(self, workload):
        self.workload = workload
        self.unit_s: list[float] = []
        self.digests: list[str] = []
        self.failed = 0
        self.errors: list[str] = []

    def step(self, k: int) -> None:
        t0 = time.perf_counter()
        try:
            out = self.workload.run_unit(k)
            self.unit_s.append(time.perf_counter() - t0)
            self.digests.append(self.workload.check(k, out))
        except Exception as exc:  # a failing unit is counted and reported, not fatal
            if len(self.unit_s) == len(self.digests):
                self.unit_s.append(time.perf_counter() - t0)
            self.failed += 1
            self.digests.append("failed")
            self.errors.append(f"unit {k}: {type(exc).__name__}: {exc}")

    @property
    def units(self) -> int:
        return len(self.unit_s)


def _run_for(seconds: float, min_units: int, step, k: int = 0) -> int:
    """Call step(k), step(k + 1), ... until both limits are met; return the next k."""
    started = time.perf_counter()
    while k < min_units or time.perf_counter() - started < seconds:
        step(k)
        k += 1
    return k


def _combined_digest(digests: list[str]) -> str:
    from workloads import sha256
    return sha256("\n".join(digests).encode())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    started = time.perf_counter()
    from tracing import Tracer
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")

    setup_samples = []
    tracer = Tracer()
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        setup_start = time.perf_counter()
        if trace:
            with tracer.installed():
                workload = _make_workload(name, seed, workdir)
            setup_layers = tracer.setup_metrics()
            tracer.reset()
        else:
            workload = _make_workload(name, seed, workdir)
        setup_self_s = time.perf_counter() - setup_start
        warm, plain, timed = _Loop(workload), _Loop(workload), _Loop(workload)
        _run_for(0.0, workload.warmup_units, warm.step)
        if trace:
            # Alternate untraced and traced runs of each unit, so machine-speed
            # drift during the run falls on both sides of the overhead estimate.
            def both(k: int) -> None:
                plain.step(k)
                with tracer.installed():
                    timed.step(k)
            _run_for(seconds, workload.digest_units, both)
        else:
            # One set-up probe before each equal slice of the timed phase, so
            # that machine-speed drift over the run reaches setup_s as it
            # reaches the unit times, instead of all probes landing at once.
            k = 0
            for _ in range(SETUP_REPEATS):
                setup_samples.append(_measure_setup(name, seed))
                k = _run_for(seconds / SETUP_REPEATS, workload.digest_units, timed.step, k)
        inputs_digest = workload.inputs_digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    k = workload.digest_units
    digest = _combined_digest(timed.digests[:k])
    loops = [warm, timed, plain]
    # Unit k always has the same inputs, so every re-run of an index must agree.
    by_index: dict[int, set] = {}
    for loop in loops:
        for i, d in enumerate(loop.digests):
            by_index.setdefault(i, set()).add(d)
    repeat_ok = all(len(seen) == 1 for seen in by_index.values())
    attempted = timed.units + plain.units
    failed = timed.failed + plain.failed
    correct = failed == 0 and warm.failed == 0 and repeat_ok

    unit_ms = [1000.0 * s for s in timed.unit_s]
    e2e = {
        "setup_s": statistics.median(setup_samples) if setup_samples else None,
        "sentences_per_s": timed.units * workload.sentences_per_unit / sum(timed.unit_s),
        "unit_ms_p50": statistics.median(unit_ms),
        "unit_ms_tail": _tail(unit_ms, workload.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": timed.failed / timed.units,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": _environment(seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": (warm.errors + timed.errors + plain.errors)[:20],
        "units": timed.units,
        "unit_ms_tail_pct": workload.tail_pct,
        "setup_s_samples": setup_samples,
        "setup_in_process_s": setup_self_s,
        "wall_s": time.perf_counter() - started,
        "inputs_digest": inputs_digest,
        "digest": digest,
        "metrics": e2e,
    }
    if trace:
        per_layer = tracer.per_unit_metrics(timed.units)
        per_layer.update(setup_layers)
        plain_ms = statistics.median(plain.unit_s)
        per_layer["trace.overhead_pct"] = 100.0 * (statistics.median(timed.unit_s) / plain_ms - 1.0)
        record["per_layer"] = per_layer
        record["span_calls"] = tracer.call_counts()
        record["untraced_digest"] = _combined_digest(plain.digests[:k])
    return record


def _contract_line(record: dict) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads(SPEC_PATH.read_text())
    key = "per_layer" if record["trace"] else "end_to_end"
    source = record["per_layer"] if record["trace"] else record["metrics"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in spec[key]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _summary(record: dict) -> str:
    from compare import EXTRA_METRICS
    spec = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({name: m["unit"] for name, m in EXTRA_METRICS.items()})
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']} units={record['units']}"
    lines = [head]
    for name in units:
        value = record["metrics"][name]
        if name == "setup_s" and record["trace"]:
            continue
        if value is None:  # unit_ms_tail: no percentile fixed, or too few units beyond it
            pct = record["unit_ms_tail_pct"]
            lines.append(f"  {name:18s} omitted: " + (
                f"{record['units']} units leave fewer than {TAIL_MIN_BEYOND} beyond p{pct:g}"
                if pct else "too few units per run for any tail percentile"))
            continue
        label = f"  (p{record['unit_ms_tail_pct']:g})" if name == "unit_ms_tail" else ""
        lines.append(f"  {name:18s} {value:.6g} {units[name]}{label}")
    if record["trace"]:
        lines.append(f"  tracing overhead   {record['per_layer']['trace.overhead_pct']:.3g} % "
                     f"(traced vs untraced unit_ms_p50)")
        same = record["digest"] == record["untraced_digest"]
        lines.append(f"  traced digest {'equals' if same else 'DIFFERS FROM'} untraced digest")
    lines.append(f"  digest {record['digest'][:16]}  correct={record['correct']}")
    for err in record["errors"]:
        lines.append(f"  error: {err}")
    return "\n".join(lines)


def _single(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"env": record["env"]}, sort_keys=True))
    print(_summary(record))
    print(json.dumps(_contract_line(record)))
    return 0


def _all(args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    from workloads import WORKLOADS
    records = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        for name in WORKLOADS:
            for trace in (0, 1):
                path = WORK_ROOT / f"all-{os.getpid()}.jsonl"
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--record", str(path)]
                proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr)
                    return proc.returncode
                records.append(json.loads(path.read_text()))
                path.unlink()
                print(_summary(records[-1]), flush=True)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
    print(json.dumps({"env": records[0]["env"]}, sort_keys=True))
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC_PATH.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full run record to this JSONL file")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds for --all")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two JSONL files of run records")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare
        return compare(*args.compare, SPEC_PATH)
    _import_program()
    WORK_ROOT.mkdir(exist_ok=True)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.all:
        return _all(args)
    if not args.workload:
        parser.error("--workload, --all or --compare is required")
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
