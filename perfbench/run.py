"""mcl benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train-mcl-hard --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (it needs `src/mcl` and `BENCHMARK.json`).
Each run generates the workload's pool from the seed, times set-up in a few
fresh processes, then runs whole tasks (a `train()` call, or one distance +
DBScan pass) in one process for about `--seconds`. It checks the outputs,
prints every metric by name and unit, and prints one JSON object last. With
`--trace 1` the work process wraps mcl's public functions and the metrics are
the per-layer ones. Results, span files and the ledger that compares runs of
one version of the code live in `perfbench/work/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
ROOT = Path.cwd()
SETUP_PROBES = 7
DEADLINE_S = 170.0

# Pairwise distance entries a task must evaluate: 2 n^2 per clustering pass
# (the cosine and the Jaccard matrix). Train pools keep 150 of 200 identities
# x 30 samples = 4500; mcl clusters half of them per epoch, "all" the whole.
EPOCHS = 30
EXPECTED_ENTRIES = {
    "train-mcl-hard": EPOCHS * 2 * 2250 ** 2,
    "train-all-easy": EPOCHS * 2 * 4500 ** 2,
    "cluster-10k": 2 * 10020 ** 2,
}
TRACE_COVERAGE = 0.05  # train() self time the trace may leave, as a share
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Start worker.py, wait for it, and return the JSON object it printed."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        fail("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"worker {args[0]} did not finish in time")
    if proc.returncode != 0:
        fail(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def source_hash() -> str:
    """Identifies the program and the benchmark that measured it."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pinned_map() -> tuple[float, float] | None:
    """FROZEN_MAP["mcl"] and PIN_TOL as the acceptance gate pins them."""
    path = ROOT / "tests" / "test_acceptance.py"
    try:
        tree = ast.parse(path.read_text())
    except (OSError, SyntaxError):
        return None
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FROZEN_MAP", "PIN_TOL"):
                found[name] = ast.literal_eval(node.value)
    if "FROZEN_MAP" not in found or "PIN_TOL" not in found:
        return None
    return found["FROZEN_MAP"]["mcl"], found["PIN_TOL"]


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def load_ledger(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def save_ledger(path: Path, ledger: dict) -> None:
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)


def check_tasks(workload: str, seed: int, tasks: list[dict], trace: bool,
                record: dict, count_names: tuple[str, ...]) -> list[list]:
    """Per-task checks; `record` is the ledger entry for this input and code.

    Returns one list of (check, ok, detail) per task and updates `record`
    with the first values seen, so later tasks and runs must repeat them.
    """
    pin = pinned_map() if workload == "train-mcl-hard" and seed == 1 else None
    results = []
    for task in tasks:
        checks = []
        if "error" in task:
            checks.append(("raised", False, task["error"]))
            results.append(checks)
            continue
        want = EXPECTED_ENTRIES[workload]
        checks.append(("geometry.entries", task["entries"] == want,
                       f"{task['entries']} evaluated, {want} expected"))
        finite = all(math.isfinite(task[k]) for k in ("quality", "label_correct"))
        checks.append(("finite quality", finite,
                       f"quality {task['quality']}, label_correct "
                       f"{task['label_correct']}"))
        if workload == "train-mcl-hard" and seed == 1:
            if pin is None:
                checks.append(("pinned final_map", False,
                               "FROZEN_MAP/PIN_TOL not found in the gate"))
            else:
                frozen, tol = pin
                checks.append(("pinned final_map",
                               abs(task["final_map"] - frozen) <= tol,
                               f"{task['final_map']:.6f} vs {frozen:.6f} "
                               f"+- {tol}"))
        output = [task["fingerprint"], task["quality"]]
        first = record.setdefault("output", output)
        checks.append(("output repeats", output == first,
                       f"fingerprint {output[0][:16]}, quality {output[1]}"))
        if trace:
            counts = {k: task["layers"][k] for k in count_names}
            seen = record.setdefault("counts", counts)
            drift = {k: (seen.get(k), v) for k, v in counts.items()
                     if seen.get(k) != v}
            checks.append(("counts repeat", not drift,
                           "exact" if not drift else f"drift {drift}"))
        results.append(checks)
    return results


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mcl" / "__init__.py").is_file():
        fail("run from the root of an mcl source tree (src/mcl is missing)")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace = bool(args.trace)

    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    pool = str(WORK / f"{stem}.mclf")
    spans_path = WORK / f"{stem}-spans.json"

    t = time.perf_counter()
    run_worker(["gen", args.workload, str(args.seed), pool], deadline)
    gen_s = time.perf_counter() - t
    setups = [run_worker(["setup", args.workload, str(args.seed), pool,
                          str(time.time_ns())], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    out = run_worker(["work", args.workload, str(args.seed), pool,
                      str(time.time_ns()), str(args.seconds), str(args.trace),
                      str(spans_path)], deadline)
    setups.append(out["setup_s"])
    tasks = out["tasks"]
    ok_tasks = [t for t in tasks if "error" not in t]

    src = source_hash()
    ledger_path = WORK / "ledger.json"
    ledger = load_ledger(ledger_path)
    record = ledger.setdefault(f"{args.workload}|{args.seed}|{src}", {})
    count_names = tuple(m["name"] for m in spec["per_layer"]
                        if m["unit"] in ("count", "B"))
    checks = check_tasks(args.workload, args.seed, tasks, trace, record,
                         count_names)
    failed = sum(1 for c in checks if not all(ok for _, ok, _ in c))

    task_s = [t["task_s"] for t in ok_tasks]
    if ok_tasks:
        record.setdefault("traced_task_s" if trace else "task_s", []).extend(task_s)
    save_ledger(ledger_path, ledger)

    env = out["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"source {src}  tasks {len(tasks)}")
    print(f"environment  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  blas {env['blas']}  nproc {env['nproc']}  "
          f"cpu {env['cpu_model']}  L3 {env['l3_bytes']} B  threads "
          + " ".join(f"{k}={v}" for k, v in sorted(env["blas_threads"].items())))
    print(f"gen_s {gen_s:.4f} s (the benchmark's own pool generation, "
          f"not part of setup_s)")
    for i, task_checks in enumerate(checks):
        for name, ok, detail in task_checks:
            print(f"check task {i}  {'ok  ' if ok else 'FAIL'}  {name}: {detail}")
    print(f"failed_share {failed}/{len(tasks)} = {failed / len(tasks):.4f}")
    if not ok_tasks:
        fail("every task failed; no metrics")

    if trace:
        layers = [t["layers"] for t in ok_tasks]
        values = {m["name"]: statistics.median(l[m["name"]] for l in layers)
                  for m in wanted if m["name"] != "data.load_s"}
        values["data.load_s"] = out["data.load_s"]
        traced = statistics.median(task_s)
        print(f"traced task_s {traced:.4f} s (median of {len(task_s)})")
        spans = statistics.median(l["spans"] for l in layers)
        cost = spans * out["span_cost_s"]
        print(f"tracing overhead {cost:.4f} s ({cost / traced:.2%}) as "
              f"{spans:.0f} spans x {out['span_cost_s'] * 1e6:.2f} us measured "
              f"on a traced no-op")
        untraced = record.get("task_s")
        if untraced:
            base = statistics.median(untraced)
            print(f"traced minus untraced task_s {traced - base:+.4f} s "
                  f"({(traced - base) / base:+.2%}) against the median of "
                  f"{len(untraced)} untraced tasks of this seed and source")
        else:
            print("traced minus untraced task_s: no untraced run of this seed and source "
                  "recorded in perfbench/work/ledger.json yet")
        if args.workload != "cluster-10k":
            share = values["trainer.self_s"] / traced
            print(f"trace coverage: trainer.self_s is {share:.2%} of traced "
                  f"train_s ({'within' if share <= TRACE_COVERAGE else 'ABOVE'}"
                  f" {TRACE_COVERAGE:.0%})")
    else:
        steps = [s for t in ok_tasks for s in t["steps_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "task_s": statistics.median(task_s),
            "step_s.p50": statistics.median(steps),
            "step_s.p66": nearest_rank(steps, 2 / 3),
            "peak_rss_mb": out["peak_rss_mb"],
            "quality": statistics.median(t["quality"] for t in ok_tasks),
        }
        print(f"samples  setup {len(setups)}  tasks {len(task_s)}  "
              f"steps {len(steps)}")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        shown = f"{values[m['name']]:.6f}".rstrip("0").rstrip(".")
        print(f"{m['name']:<26} {shown:>18} {m['unit']}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{stem}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "seconds": args.seconds,
                    "source": src, "environment": env, "gen_s": gen_s,
                    "setup_s": setups, "peak_rss_mb": out["peak_rss_mb"],
                    "tasks": tasks, "checks": checks, "failed": failed,
                    "metrics": metrics}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(tasks),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
