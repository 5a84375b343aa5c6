"""seldkit scoring benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload tta60_oracle --seed 1 --seconds 15 --trace 0

Run from the repository root. The seldkit sources are imported from
``src/`` next to this directory; without them the command fails at once.
The workload's inputs are emulated from ``--seed`` into a scratch
directory under ``perfbench/_work/`` (removed at exit), then
``pipeline.run_pipeline`` is timed for ``--seconds`` seconds (at least
three calls). ``--trace 1`` instead makes a warm-up call, then alternates
untraced and traced calls and reports the per-layer metrics derived from
the spans, which it writes to ``perfbench/out/``. ``--workload all`` runs
every workload in turn, each in its own process.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when an output check fails.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3
MIN_CALLS = 3  # so the median rejects one disturbed call

# One BLAS thread: the serial workloads are the single-threaded baseline,
# and the pooled workload's parallelism is its workers alone. OpenBLAS
# threads on these small products only added noise on a 2-core machine.
# Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_args(workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, name)) for d, _, names in os.walk(path) for name in names
    )


def flush_inputs(path) -> None:
    """Make the written inputs durable, so their write-back does not land in a timed call."""
    for d, _, names in os.walk(path):
        for name in names:
            fd = os.open(os.path.join(d, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def scores_bytes(pipeline, doc) -> bytes:
    """The scores document exactly as the program writes it to disk."""
    pipeline.write_scores(doc, "scores.json")
    with open("scores.json", "rb") as f:
        return f.read()


def run_all(args, spec) -> int:
    """Every workload in its own process; metric names are prefixed by the workload."""
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for w in spec["workloads"]:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", w["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{w['name']}: no result line (exit {proc.returncode})", flush=True)
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{w['name']}.{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return code or (0 if correct else 1)


def timed_calls(pipeline, config, seconds):
    """Untraced calls until ``seconds`` have passed (at least MIN_CALLS)."""
    walls, docs = [], []
    start = time.perf_counter()
    while len(walls) < MIN_CALLS or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        doc = pipeline.run_pipeline(config)
        walls.append(time.perf_counter() - t)
        docs.append(doc)
    return walls, docs


def traced_calls(pipeline, config, seconds, tracer):
    """A warm-up call, then pairs of one untraced and one traced call until ``seconds`` have passed.

    The first call of a process runs several percent slower, more than
    tracing costs, so it is in no pair. The order within a pair alternates,
    so a drift in machine speed does not always favour the same side.
    """
    docs = [pipeline.run_pipeline(config)]
    walls, traced_walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        for traced in (False, True) if len(walls) % 2 == 0 else (True, False):
            t = time.perf_counter()
            if traced:
                with tracer:
                    tracer.phase = f"call{len(traced_walls)}"
                    docs.append(pipeline.run_pipeline(config))
                traced_walls.append(time.perf_counter() - t)
            else:
                docs.append(pipeline.run_pipeline(config))
                walls.append(time.perf_counter() - t)
    return walls, traced_walls, docs


def run_one(args, spec) -> int:
    sys.path.insert(0, SRC)
    from seldkit import pipeline

    import tracing
    import workloads

    import_s = time.perf_counter() - T0

    workload = workloads.WORKLOADS[args.workload]
    # through the environment, not the config, so the run survives a removed pool
    os.environ["SELDKIT_WORKERS"] = str(workload.workers)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-", dir=os.path.join(HERE, "_work"))
    tag = f"{workload.name}-s{args.seed}-trace{args.trace}"
    tracer = tracing.Tracer()
    setup_reps, traced_walls = [], []
    try:
        if args.trace:
            rep_dir = os.path.join(work, "rep0")
            os.makedirs(rep_dir)
            os.chdir(rep_dir)
            with tracer:
                config = workloads.build(workload, args.seed)
            flush_inputs(rep_dir)
            walls, traced_walls, docs = traced_calls(pipeline, config, args.seconds, tracer)
        else:
            for k in range(SETUP_REPS):
                rep_dir = os.path.join(work, f"rep{k}")
                os.makedirs(rep_dir)
                os.chdir(rep_dir)
                t = time.perf_counter()
                config = workloads.build(workload, args.seed)
                flush_inputs(rep_dir)
                setup_reps.append(time.perf_counter() - t)
                if k + 1 < SETUP_REPS:
                    os.chdir(work)
                    shutil.rmtree(rep_dir)
            walls, docs = timed_calls(pipeline, config, args.seconds)
        input_bytes = dir_bytes(os.getcwd())
        documents = [scores_bytes(pipeline, d) for d in docs]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for doc in docs:
        problems += [p for p in workloads.check_scores_doc(doc, workload) if p not in problems]
    if any(d != documents[0] for d in documents):
        what = "traced and untraced calls" if args.trace else "repeated calls"
        problems.append(f"scores document differs between {what}")
    attempted = sum(d["n_entries"] for d in docs)
    failed = sum(d["n_entries"] - d["n_scored"] for d in docs)
    scores = docs[0].get("scores") or {}

    # Reported beside the metrics, not as metrics: a failure fraction and
    # deterministic scores can read 0 or repeat exactly.
    report = {"failed_frac": (failed / attempted, "1")}
    if args.trace:
        spans_path = os.path.join(out_dir, f"spans-{tag}.jsonl")
        tracer.write(spans_path)
        names = [m["name"] for m in spec["per_layer"]]
        layer = tracing.layer_metrics(tracing.read_spans(spans_path), names)
        layer["trace.overhead_frac"] = statistics.median(
            (tw - w) / w for w, tw in zip(walls, traced_walls)
        )
        for name in ("er20", "f20", "le_cd", "lr_cd"):
            layer[name] = scores.get(name, 0.0)
        reported = spec["per_layer"]
        values = layer
    else:
        values = {
            "audio_s_per_s": statistics.median(workload.audio_s / w for w in walls),
            "setup_s": import_s + statistics.median(setup_reps),
            "peak_rss_mib": peak_rss_mib,
        }
        reported = spec["end_to_end"]
        report.update((k, (v, "deg" if k == "le_cd" else "1")) for k, v in scores.items())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}

    facts = machine_facts()
    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "input": {
            "n_scenes": workload.n_scenes,
            "scene_s": workload.scene_s,
            "audio_s": workload.audio_s,
            "bytes_on_disk": input_bytes,
            "predictor": workload.predictor,
            "tta": workload.tta,
            "augment": workload.augment,
            "workers": workload.workers,
        },
        "import_s": import_s,
        "setup_reps_s": setup_reps,
        "call_walls_s": walls,
        "traced_call_walls_s": traced_walls,
        "peak_rss_mib": peak_rss_mib,
        "report": {k: v for k, (v, _) in report.items()},
        "metrics": metrics,
        "problems": problems,
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"workload {workload.name}: {workload.n_scenes} x {workload.scene_s:g} s scenes, seed {args.seed}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in report.items():
        print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    spec = load_spec()
    args = parse_args([w["name"] for w in spec["workloads"]])
    if not os.path.isfile(os.path.join(SRC, "seldkit", "__init__.py")):
        print(f"error: no seldkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
