"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an aspeq checkout; the package is imported from
./src, nothing is installed. One run:

1. writes the workload's scenario files for the seed (perfbench/_out/...);
2. with --trace 0, times the set-up of fresh interpreters (imports plus
   loading every scenario file of the workload) several times;
   with --trace 1, times `import aspeq` under `python -X importtime`;
3. starts the client (worker.py), which runs whole rounds of the
   workload's operations in a closed loop for S seconds;
4. checks round one's outputs against mpmath and the method's identities
   (outside the timed region), and that every repetition of an operation
   produced byte-identical output;
5. prints a readable summary, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones. An operation fails
   when it exits non-zero, when its output fails a check, or when a
   repetition's output differs from its first; correct turns false only
   for what no operation carries: traced counts that differ between
   rounds.

Exits 2 without a result when the checkout has no aspeq source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_SAMPLES = 5  # timed set-up launches per run, plus the client's own
IMPORT_SAMPLES = 5
CHILD_TIMEOUT = 170.0
# mpmath reference values from earlier runs in this checkout
ORACLE_CACHE = os.path.join(HERE, "_out", "oracle-cache.json")
CURVE_KINDS = (
    "uniform", "linear", "triangular", "scaled_beta", "exponential_normalized",
    "truncated_gaussian", "log_wealth", "piecewise_linear",
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one string-hash layout for every process, so set and dict layouts
    # (and their costs) do not vary from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(root: str, plan_path: str, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a client; returns it and the seconds until it reported ready
    (imports done, scenarios loaded)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(root), cwd=root)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != b"ready":
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        raise RuntimeError(f"client did not get ready: {err.decode(errors='replace')[-2000:]}")
    return proc, ready


def setup_seconds(root: str, plan_path: str) -> list[float]:
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc, ready = launch(root, plan_path, ["--setup-only"])
        proc.communicate(timeout=CHILD_TIMEOUT)
        if k:  # the first launch warms the file cache and the bytecode cache
            samples.append(ready)
    return samples


def import_seconds(root: str) -> tuple[float, float]:
    """Median cumulative import time of aspeq and of scipy.special."""
    found: dict[str, list[float]] = {"aspeq": [], "scipy.special": []}
    for _ in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import aspeq, aspeq.cli"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(root), cwd=root, timeout=CHILD_TIMEOUT,
        )
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return statistics.median(found["aspeq"][1:]), statistics.median(found["scipy.special"][1:])


def check_outputs(plan: dict, result: dict) -> tuple[list[bool], list[str]]:
    """Per-operation verdicts for round one's outputs, and the problems
    found in outputs of operations that completed (wrong answers, as
    opposed to operations that exited with an error)."""
    from checks import Checker

    try:
        with open(ORACLE_CACHE, encoding="utf-8") as fh:
            cache = json.load(fh)
    except (OSError, ValueError):
        cache = {}
    checker = Checker(cache)
    verdicts, wrong = [], []
    for k, op in enumerate(plan["ops"]):
        if result["codes"][k][0] != 0:
            verdicts.append(False)
            err = result["errors"].get(str(k), "").strip()
            print(f"operation failed: {op['name']}: exit code {result['codes'][k][0]}: {err}", file=sys.stderr)
            continue
        with open(os.path.join(plan["outdir"], f"ref{k:03d}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = checker.check(op["name"], op["argv"], op["argv"][2], doc)
        verdicts.append(not problems)
        wrong.extend(f"{op['name']}: {m}" for m in problems[:5])
    tmp = f"{ORACLE_CACHE}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(checker.save(), fh)
    os.replace(tmp, ORACLE_CACHE)
    return verdicts, wrong


def tally(verdicts: list[bool], codes: list[list[int]], same: list[list[bool]]) -> tuple[int, int]:
    """Attempted and failed operations. An operation whose first output
    fails its checks fails in every round (each repeats that output);
    any run of it that exits non-zero or whose output differs from the
    first round's fails on its own."""
    attempted = failed = 0
    for ok, op_codes, op_same in zip(verdicts, codes, same):
        for rc, identical in zip(op_codes, op_same):
            attempted += 1
            failed += not (ok and rc == 0 and identical)
    return attempted, failed


def per_layer(plan: dict, result: dict, root: str) -> tuple[dict, dict]:
    """Per-layer metrics (per round) and the full per-function table."""
    from tracer import merge

    rounds = [r for r in result["rounds"] if r["traced"]]
    summaries = []
    span_count = 0
    for r in rounds:
        if "summary" in r:
            summaries.append(r["summary"])
        else:
            parts = []
            for path in r["summary_files"]:
                with open(path, encoding="utf-8") as fh:
                    child = json.load(fh)
                parts.append(child["summary"])
                span_count += child["span_count"]
            summaries.append(merge(parts))
    if not summaries:
        raise RuntimeError("no traced round")
    counts = [{**s["calls"], **s["counts"]} for s in summaries]
    repeat = all(c == counts[0] for c in counts)
    n = len(summaries)
    total = merge(summaries)
    self_s = {k: v / n for k, v in total["self_s"].items()}
    times = {k: v / n for k, v in total["times"].items()}
    calls, cnt = summaries[0]["calls"], summaries[0]["counts"]
    span_count = result.get("span_count", span_count)

    evals = cnt.get("numerics.integrate.evals", 0)
    n_int = calls.get("numerics.integrate", 0)
    computed = cnt.get("duality.integrals_computed", 0)
    untraced = [r["seconds"] for r in result["rounds"] if not r["traced"]]
    traced = [r["seconds"] for r in rounds]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    a_s, s_s = import_seconds(root)
    put("import.aspeq_s", a_s, "s")
    put("import.scipy_special_s", s_s, "s")
    for fn in ("scenarios.load_scenario", "cli.main", "duality.expected_utility", "duality.expected_disutility"):
        put(f"{fn}.self_s", self_s.get(fn, 0.0), "s")
    for fn in ("duality.expected_utility", "duality.expected_disutility", "duality.effective_gamma"):
        put(f"{fn}.calls", calls.get(fn, 0), "count")
    put("duality.effective_gamma.edu_calls", cnt.get("duality.effective_gamma.edu_calls", 0), "count")
    put("duality.integrals_useful_ratio", cnt.get("duality.integrals_distinct", 0) / computed if computed else 1.0, "ratio")
    put("numerics.integrate.calls", n_int, "count")
    put("numerics.integrate.evals", evals, "count")
    put("numerics.integrate.evals_per_call", evals / n_int if n_int else 0.0, "count")
    put("numerics.integrate.self_s", self_s.get("numerics.integrate", 0.0), "s")
    put("numerics.integrate.integrand_s", times.get("numerics.integrate.integrand_s", 0.0), "s")
    put("numerics.find_root.calls", calls.get("numerics.find_root", 0), "count")
    put("numerics.find_root.iterations", cnt.get("numerics.find_root.iterations", 0), "count")
    put("numerics.cumulants.calls", calls.get("numerics.cumulants", 0), "count")
    for kind in CURVE_KINDS:
        for method in ("value", "density", "quantile"):
            key = f"curves.{kind}.{method}.calls"
            put(key, cnt.get(key, 0), "count")
    put("curves.kernel_s", times.get("curves.kernel_s", 0.0), "s")
    for fn in ("selection.evaluate_matrix", "selection.saddle_allocate", "selection.find_pure_saddle",
               "dominance.first_order_dominates", "dominance.second_order_dominates", "dominance.exponential_chain",
               "delegation.update_target", "delegation.desiderata_report", "delegation.choose_by_aspiration",
               "approximations.ce_taylor2", "approximations.ae_taylor2", "approximations.ae_cumulant_series"):
        put(f"{fn}.calls", calls.get(fn, 0), "count")
    put("dominance.grid_value_calls", cnt.get("dominance.grid_value_calls", 0), "count")
    put("trace.spans_per_round", span_count / n if n else 0, "count")
    put("trace.overhead_ratio", statistics.median(traced) / statistics.median(untraced), "ratio")

    table = {
        "rounds_traced": n,
        "counts_repeat": repeat,
        "self_s_per_round": dict(sorted(self_s.items())),
        "calls_per_round": dict(sorted(calls.items())),
        "counts_per_round": dict(sorted(cnt.items())),
        "times_per_round": dict(sorted(times.items())),
        "untraced_round_s": untraced,
        "traced_round_s": traced,
    }
    return m, table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aspeq", "cli.py")):
        return fail(f"no aspeq source under {os.path.join(root, 'src')}; run from the root of a checkout")
    try:
        import mpmath  # noqa: F401
        import numpy  # noqa: F401
    except ImportError as exc:
        return fail(f"the output checks need mpmath and numpy: {exc}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")

    outdir = os.path.join(HERE, "_out", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, root, outdir)
    scenarios = sorted({op.scenario for op in ops})
    plan = {
        "workload": args.workload,
        "outdir": outdir,
        "scenarios": scenarios,
        "ops": [{"name": op.name, "argv": op.argv()} for op in ops],
    }
    plan_path = os.path.join(outdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)

    setup = [] if args.trace else setup_seconds(root, plan_path)
    results_path = os.path.join(outdir, "results.json")
    proc, ready = launch(
        root, plan_path, ["--seconds", str(args.seconds), "--trace", str(args.trace), "--results", results_path]
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        print(err.decode(errors="replace")[-3000:], file=sys.stderr)
        return fail(f"client exited with {proc.returncode}")
    setup.append(ready)
    with open(results_path, encoding="utf-8") as fh:
        result = json.load(fh)

    verdicts, messages = check_outputs(plan, result)
    attempted, failed = tally(verdicts, result["codes"], result["same"])
    for k in range(len(ops)):
        if not all(result["same"][k]):
            messages.append(f"{ops[k].name}: output differs between repetitions")
    for m in messages[:40]:
        print(f"check failed: {m}", file=sys.stderr)
    # every wrong or unrepeatable output is counted in failed; correct
    # speaks of the rest, and of what no operation carries
    correct = True

    durations = [t for per_op in result["times"] for t in per_op]
    if args.trace:
        metrics, table = per_layer(plan, result, root)
        if not table["counts_repeat"]:
            correct = False
            print("check failed: per-layer counts differ between traced rounds", file=sys.stderr)
        with open(os.path.join(HERE, "_out", f"layers-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, **table}, fh, indent=1)
        spans = result.get("spans_file")
        if spans:
            shutil.move(spans, os.path.join(HERE, "_out", f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(durations) / sum(durations), "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(durations), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    shutil.rmtree(outdir, ignore_errors=True)

    rounds = len(result["rounds"])
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of {len(ops)} operations, "
          f"one client, closed loop{', traced after round 1' if args.trace else ''}")
    print(f"attempted {attempted}, failed {failed}")
    for name, v in metrics.items():
        print(f"  {name}: {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
