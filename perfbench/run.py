"""kgeu benchmark: training and link-prediction throughput on generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
The line before it holds the full record (environment, input digests,
per-model figures, check failures). See perfbench/README.md.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workload_names, required=True)
    p.add_argument("--seed", type=int, required=True, help="workload seed; the inputs depend on it alone")
    p.add_argument("--seconds", type=float, required=True, help="time spent inside timed operations")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _pin_threads() -> int:
    """Keep BLAS within the cores this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            n = nproc
        os.environ[var] = str(max(1, min(n, nproc)))
    return nproc


def _import_program() -> None:
    """Put this checkout's kgeu sources first on the path, or stop."""
    if not (SRC / "kgeu" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kgeu sources at {SRC / 'kgeu'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import kgeu
    if Path(kgeu.__file__).resolve().parent != SRC / "kgeu":
        sys.exit(f"perfbench: kgeu was imported from {kgeu.__file__}, not from {SRC}")


def _blas_threads():
    import numpy as np
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(nproc: int) -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        # kgeu reads KGEU_THREADS only for its multi-seed process pool; the
        # library calls measured here always run in this one process.
        "kgeu_threads": {"env": os.environ.get("KGEU_THREADS"), "effective": 1},
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
    }


def _generate(workload: str, seed: int, out: Path) -> None:
    """Write the inputs in a child process, so this process's peak memory
    and set-up time belong to the program alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(out)],
                   env=env, check=True, timeout=150)


def _per_model(trained, ranked) -> dict:
    out = {}
    for kind, phase in (("train", trained), ("eval", ranked)):
        for model, times in phase.seconds.items():
            out.setdefault(model, {})[kind] = {
                "ops": len(times),
                "work_per_op": phase.work[model],
                "median_op_s": statistics.median(times),
                "min_op_s": min(times),
                "max_op_s": max(times),
            }
    return out


def run(args, nproc: int) -> tuple[dict, dict]:
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(nproc)}
    checker = checks.Checker()
    try:
        _generate(args.workload, args.seed, work)
        record["input_digests"] = workloads.digests(work)

        # A traced run splits its seconds between an untraced and a traced pass,
        # with fewer set-ups; the difference between the two is the tracing overhead.
        seconds = args.seconds / 2 if args.trace else args.seconds
        min_setups = 1 if args.trace else 3
        setups, trained, ranked = workloads.run(workload, work, seconds, args.seed, checker, min_setups)
        setup_times = setups.seconds["setup"]
        end_to_end = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_pairs_per_s": (trained.rate(), "1/s"),
            "eval_queries_per_s": (ranked.rate(), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["setup_s_each"] = setup_times
        record["per_model"] = _per_model(trained, ranked)
        metrics = end_to_end

        if args.trace:
            tracer = tracing.Tracer()
            checker.tracer = tracer
            tracer.install()
            try:
                traced = workloads.run(workload, work, seconds, args.seed, checker, min_setups, tracer)
            finally:
                tracer.uninstall()
            traced_end_to_end = {"setup_s": statistics.median(traced[0].seconds["setup"]),
                                 "train_pairs_per_s": traced[1].rate(),
                                 "eval_queries_per_s": traced[2].rate()}
            layers = tracing.layer_metrics(tracer)
            for name, value in traced_end_to_end.items():
                layers[f"trace.overhead.{name}"] = value - end_to_end[name][0]
            metrics = {name: (layers[name], unit) for name, unit in tracing.metric_units().items()}
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans)
            record["tracing"] = {"spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer.spans),
                                 "hooks_absent": tracer.absent, "counters_broken": sorted(tracer.broken),
                                 "traced_end_to_end": traced_end_to_end,
                                 "untraced_end_to_end": {k: v for k, (v, _) in end_to_end.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["error_rate"] = checker.failed / max(1, checker.attempted)
    record["problems"] = checker.problems
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    nproc = _pin_threads()
    _import_program()
    import workloads
    args = _parse_args(argv, sorted(workloads.WORKLOADS))
    record, result = run(args, nproc)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(record, result=result), indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
