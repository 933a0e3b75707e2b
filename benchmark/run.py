"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root:

    python3 benchmark/run.py --workload {train,serve,retrieve} --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the tree the script sits in. The
run sets up its inputs from the seed (several times, reporting the median
set-up time), repeats rounds of fixed work as often as fit into ``--seconds``
on the reference machine (a fixed count, so that the operations attempted
and failed depend only on the seed), checks the outputs, and prints every
metric by name with its unit and sample count. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. A full record of the run, and with tracing its spans, is
written under ``.bench_out/``. The exit code is 1 when a correctness check
fails and 2 when the program cannot be loaded.
"""

import os
import sys

# Pinned before numpy loads: each workload is one process with one caller.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Check, Metric, Recorder  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5  # at least; more until SETUP_MIN_S is used, so short set-ups get more samples
SETUP_MIN_S = 3.0
MIN_ROUNDS = 2  # val recall needs two rounds to compare
TRACED_ROUND_COST = 3  # a traced round runs the work twice, once with the wrappers
PROGRAM_MODULES = ("data", "training", "model", "evaluation", "retrieval")
LAYER_MODULES = ("autodiff", "kernels", "layers", "losses", "matching")


def load_program() -> dict:
    """Import the program from this tree's src/, never from an installed copy."""
    package = ROOT / "src" / "setcomplete"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no program at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import setcomplete

    if Path(setcomplete.__file__).resolve().parent != package.resolve():
        print(f"benchmark: imported setcomplete from {setcomplete.__file__}", file=sys.stderr)
        sys.exit(2)
    m = {"setcomplete": setcomplete}
    for name in PROGRAM_MODULES:
        m[name] = importlib.import_module(f"setcomplete.{name}")
    for name in LAYER_MODULES:  # layers may be merged away; their wrappers then report absent
        try:
            m[name] = importlib.import_module(f"setcomplete.{name}")
        except ModuleNotFoundError:
            pass
    return m


def git_commit() -> str | None:
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
    return None


def environment(m: dict) -> dict:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        blas = None
    get_backend = getattr(m.get("kernels"), "get_backend", None)
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "kernel_backend": get_backend() if get_backend else None,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def run(args, m: dict, workdir: Path) -> dict:
    workload = WORKLOADS[args.workload](m, args.seed, workdir)
    tracer = Tracer() if args.trace else None

    def traced(stage: str, fn):
        if tracer is None:
            return fn()
        tracer.install(m)
        tracer.stage = stage
        tracer.units[stage] += 1
        try:
            return fn()
        finally:
            tracer.uninstall()

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        t0 = perf_counter()
        state = traced("setup", workload.setup)
        setup_times.append(perf_counter() - t0)

    plain, in_trace = Recorder(), Recorder(tracer)
    walls = {"plain": [], "traced": []}
    rounds = int(args.seconds / (workload.round_s * (TRACED_ROUND_COST if tracer else 1)))
    rounds = max(MIN_ROUNDS, rounds)
    begin = perf_counter()
    for _ in range(rounds):
        t0 = perf_counter()
        workload.round(state, plain)
        walls["plain"].append(perf_counter() - t0)
        if tracer is not None:
            t1 = perf_counter()
            traced("round", lambda: workload.round(state, in_trace))
            walls["traced"].append(perf_counter() - t1)
    measured_s = perf_counter() - begin

    checks = workload.checks(state, plain)
    try:
        metrics, gated = workload.report(plain)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        checks.append(Check("metrics_computed", False, f"{type(exc).__name__}: {exc}"))
        metrics, gated = [], {}
    attempted = sum(p.attempted for p in plain.phases.values())
    failed = sum(p.failed for p in plain.phases.values())
    setup_s = float(np.median(setup_times))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics += [
        Metric("setup_s", setup_s, "s", len(setup_times)),
        Metric("peak_rss_mb", peak_rss_mb, "MB", 1),
        Metric("failed_share", failed / attempted if attempted else 0.0, "ratio", attempted),
    ]
    gated.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "measured_s": measured_s, "setup_times_s": setup_times,
        "env": environment(m),
        "phases": {
            name: {"attempted": p.attempted, "succeeded": p.succeeded, "failed": p.failed, "errors": p.errors}
            for name, p in plain.phases.items()
        },
        "metrics": [vars(x) for x in metrics],
        "gated": gated,
        "checks": [vars(c) for c in checks],
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        # the first untraced round runs cold, so it is left out of the comparison
        warm = slice(1, None) if rounds > 1 else slice(None)
        overhead = sum(walls["traced"][warm]) / sum(walls["plain"][warm]) - 1.0
        layers["trace.overhead_ratio"] = (overhead, "ratio")
        record["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in sorted(layers.items())}
        record["absent"] = sorted(set(tracer.absent))
        record["round_walls_s"] = walls
        record["self_time_table"] = [
            {"stage": stage, "name": name, **row} for (stage, name), row in sorted(tracer.self_times().items())
        ]
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    return record


def print_report(record: dict) -> None:
    print(f"benchmark workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"seconds={record['seconds']} rounds={record['rounds']} measured_s={record['measured_s']:.2f}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, p in record["phases"].items():
        print(f"phase {name}: attempted={p['attempted']} succeeded={p['succeeded']} failed={p['failed']}")
        for err, count in sorted(p["errors"].items(), key=lambda kv: -kv[1]):
            print(f"  failed x{count}: {err}")
    for x in record["metrics"]:
        print(f"metric {x['name']} = {x['value']:.6g} {x['unit']} (n={x['n']})")
    for c in record["checks"]:
        print(f"check {'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    if "layers" in record:
        rows = sorted(record["self_time_table"], key=lambda r: -r["self_s"])
        print("self time (stage, span, calls, self s, inclusive s), largest first:")
        for r in rows[:30]:
            print(f"  {r['stage']:5s} {r['name']:42s} {r['calls']:8d} {r['self_s']:10.4f} {r['incl_s']:10.4f}")
        for name, x in record["layers"].items():
            print(f"layer {name} = {x['value']:.6g} {x['unit']}")
        if record["absent"]:
            print("absent wrapper targets: " + ", ".join(record["absent"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        record = run(args, m, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(c["passed"] for c in record["checks"])
    if args.trace:
        wanted, values = spec["per_layer"], record["layers"]
        values = {k: v["value"] for k, v in values.items()}
    else:
        wanted, values = spec["end_to_end"], record["gated"]
    missing = [x["name"] for x in wanted if x["name"] not in values]
    record["missing"] = missing
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_report(record)
    if missing:
        print("reported as 0 (no value this run): " + ", ".join(missing))
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {x["name"]: {"value": float(values.get(x["name"], 0.0)), "unit": x["unit"]} for x in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
