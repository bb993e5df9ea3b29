"""The client process of one benchmark run.

Started by run.py in a fresh interpreter. It imports aspeq and aspeq.cli,
loads every scenario file of the workload (building all curves), prints
`ready`, and then drives the workload in a closed loop: one operation at a
time, the next only after the previous one finished.

In-process workloads call aspeq.cli.main directly. fixtures-cli starts a
fresh `python -m aspeq.cli` process per operation, as an analyst would.
Each operation also writes --csv and --json.

Whole rounds run until the requested seconds have passed and at least two
rounds are done (the second shows whether repeated runs of an operation
are byte-identical). With --trace 1 the first round runs untraced as the
reference, then the tracer is installed and traced rounds follow.

The plan file names the operations and the output directory; the results
file receives per-operation timings, exit codes and output digests, plus
per-round tracer summaries.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 2  # traced runs: the untraced reference round and at least one traced


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


class Runner:
    def __init__(self, plan: dict) -> None:
        self.ops = plan["ops"]
        self.outdir = plan["outdir"]
        self.subprocess = plan["workload"] == "fixtures-cli"
        self.tracer = None

    def paths(self, k: int) -> tuple[str, str]:
        base = os.path.join(self.outdir, f"op{k:03d}")
        return base + ".csv", base + ".json"

    def run_op(self, k: int, round_no: int, traced: bool) -> tuple[float, int, bytes, bytes, str | None]:
        """Run operation k once; returns (seconds, exit code, stdout,
        stderr, nothing or the traced child's summary path)."""
        csv_path, json_path = self.paths(k)
        argv = self.ops[k]["argv"] + ["--csv", csv_path, "--json", json_path]
        if self.subprocess:
            summary = None
            if traced:
                summary = os.path.join(self.outdir, f"trace-r{round_no}-op{k:03d}.json")
                cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), summary, *argv]
            else:
                cmd = [sys.executable, "-m", "aspeq.cli", *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
            dt = time.perf_counter() - t0
            return dt, proc.returncode, proc.stdout, proc.stderr, summary
        import aspeq.cli

        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.begin_op(k)
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            rc = aspeq.cli.main(argv, stdout=out)
        dt = time.perf_counter() - t0
        if traced:
            self.tracer.end_op()
        return dt, rc, out.getvalue().encode(), err.getvalue().encode(), None

    def run(self, seconds: float, trace: bool) -> dict:
        n = len(self.ops)
        times: list[list[float]] = [[] for _ in range(n)]
        codes: list[list[int]] = [[] for _ in range(n)]
        same: list[list[bool]] = [[] for _ in range(n)]
        digests: list[str | None] = [None] * n
        errors: dict[int, str] = {}
        rounds: list[dict] = []
        started = time.perf_counter()
        round_no = 0
        while True:
            traced = trace and round_no > 0
            if traced and self.tracer is None and not self.subprocess:
                from tracer import Tracer

                self.tracer = Tracer()
                self.tracer.install()
            if traced and self.tracer is not None:
                self.tracer.reset()
            summaries = []
            round_time = 0.0
            for k in range(n):
                dt, rc, stdout, stderr, summary = self.run_op(k, round_no, traced)
                round_time += dt
                csv_path, json_path = self.paths(k)
                blob = [stdout, _read(csv_path), _read(json_path)]
                digest = hashlib.sha256(b"\0".join(blob)).hexdigest()
                times[k].append(dt)
                codes[k].append(rc)
                if digests[k] is None:
                    digests[k] = digest
                    for suffix, data in zip((".stdout", ".csv", ".json"), blob):
                        with open(os.path.join(self.outdir, f"ref{k:03d}{suffix}"), "wb") as fh:
                            fh.write(data)
                same[k].append(digest == digests[k])
                if rc != 0 and k not in errors:
                    errors[k] = stderr.decode(errors="replace")[-2000:]
                if summary is not None:
                    summaries.append(summary)
            record = {"seconds": round_time, "traced": traced}
            if traced:
                if self.subprocess:
                    record["summary_files"] = summaries
                else:
                    record["summary"] = self.tracer.summary()
            rounds.append(record)
            round_no += 1
            if round_no >= MIN_ROUNDS and time.perf_counter() - started >= seconds:
                break
        who = resource.RUSAGE_CHILDREN if self.subprocess else resource.RUSAGE_SELF
        result = {
            "times": times,
            "codes": codes,
            "same": same,
            "errors": {str(k): v for k, v in errors.items()},
            "rounds": rounds,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        }
        if self.tracer is not None:
            path = os.path.join(self.outdir, "spans.json")
            self.tracer.write_spans(path)
            result["spans_file"] = path
            result["span_count"] = len(self.tracer.spans)
        return result


def setup(plan: dict) -> None:
    """What every run pays before its first operation: the imports and
    the workload's scenario files, parsed with all curves built."""
    import aspeq  # noqa: F401
    import aspeq.cli  # noqa: F401
    from aspeq.scenarios import load_scenario

    for path in plan["scenarios"]:
        load_scenario(path)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--results")
    args = ap.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    setup(plan)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = Runner(plan).run(args.seconds, bool(args.trace))
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
