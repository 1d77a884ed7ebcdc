"""climd benchmark: one workload, one seed, timed for a fixed number of seconds.

    python3 bench/run.py --workload pipeline-jsonl --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The run sets up several times; each
set-up generates the inputs, starts a fresh worker process (import) and
runs one warm-up op. The worker then runs measured ops, each one
in-process ``climd.cli.main`` call, until its share of ``--seconds`` is
spent. Every op's output is checked by the oracle, digested and deleted.
With ``--trace 1`` half of each share runs with span wrappers installed
and the per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is the JSON result; the full record
(environment, every op, digests) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import oracle
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")  # relative to the checkout root, the working directory
SESSIONS = 3  # set-ups per run; setup_s and peak_rss_mb are their medians

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "samples_per_s": "1/s",
                    "visits_per_s": "1/s", "peak_rss_mb": "MB"}
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError)


class Worker:
    """A worker.py child; every call waits for its one-line reply."""

    def __init__(self):
        env = dict(os.environ)
        env.pop("CLIMD_THREADS", None)  # serial: seeds run in this process
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reply()  # ready once climd is imported

    def call(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / workload.name
        self.ops: list[dict] = []
        self.setups: list[float] = []
        self.rss_mb: list[float] = []
        self.spans: list[list] = []
        self.input_bytes: dict[str, int] = {}

    def op(self, worker: Worker, phase: str) -> tuple[dict, float]:
        """Run one op in a fresh output directory, then check, digest and
        delete it. Returns the op record and the time its reply arrived."""
        op_id = len(self.ops)
        out = self.work / f"op{op_id}"
        reply = worker.call({"argv": self.wl.argv(out), "op": op_id,
                             "traced": phase == "traced"})
        done = time.perf_counter()
        rec = {"op": op_id, "phase": phase, "wall": reply["wall"],
               "code": reply["code"], "violations": [], "digests": {}}
        if reply["code"] != 0:
            rec["violations"].append(f"exit {reply['code']}: {reply['stderr'].strip()}")
        else:
            try:
                rec["violations"] += self.wl.check(out)
                rec["digests"] = oracle.digest_outputs(out)
            except CHECK_ERRORS as exc:
                rec["violations"].append(f"unreadable output: {exc!r}")
            if self.ops and rec["digests"] != self.ops[0]["digests"]:
                rec["violations"].append("output digests differ from op 0")
            sched = out / "schedule.csv"
            rec["schedule_bytes"] = sched.stat().st_size if sched.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(rec)
        return rec, done

    def session(self, k: int):
        """One set-up (inputs, worker start, warm-up op), then measured ops."""
        start = time.perf_counter()
        indir = self.work / "in"
        indir.mkdir(parents=True, exist_ok=True)
        self.wl.generate(self.seed, indir)
        self.input_bytes = {str(p): p.stat().st_size for p in self.wl.input_files()}
        worker = Worker()
        try:
            _, done = self.op(worker, "warmup")
            self.setups.append(done - start)
            share = self.seconds / SESSIONS
            phases = [("untraced", share / 2), ("traced", share / 2)] if self.trace \
                else [("untraced", share)]
            for phase, budget in phases:
                spent = 0.0
                while True:
                    rec = self.op(worker, phase)[0]
                    spent += rec["wall"]
                    if rec["violations"] or spent + rec["wall"] / 2 >= budget:
                        break  # a failing op is not timed again
            span_file = self.work / f"spans{k}.json"
            self.rss_mb.append(worker.call({"quit": str(span_file)})["peak_rss_kb"] / 1024)
            if span_file.exists():
                base = len(self.spans)  # parent links index into their own file
                for rec in json.loads(span_file.read_text()):
                    rec[3] = rec[3] + base if rec[3] >= 0 else -1
                    self.spans.append(rec)
        finally:
            worker.close()

    def metrics(self) -> dict:
        walls = {phase: [o["wall"] for o in self.ops if o["phase"] == phase]
                 for phase in ("untraced", "traced")}
        if not self.trace:
            op_s = median(walls["untraced"])
            values = {"setup_s": median(self.setups), "op_s_p50": op_s,
                      "samples_per_s": self.wl.samples / op_s,
                      "visits_per_s": self.wl.visits / op_s,
                      "peak_rss_mb": median(self.rss_mb)}
            units = END_TO_END_UNITS
        else:
            traced = [o for o in self.ops if o["phase"] == "traced"]
            values = spans.layer_metrics(self.spans, [o["op"] for o in traced])
            values["fileformats.write_schedule.bytes"] = median(
                o.get("schedule_bytes", 0) for o in traced)
            values["simlab.macro_f1_gain"] = getattr(self.wl, "gain", None) or 0.0
            values["trace.overhead_s"] = median(walls["traced"]) - median(walls["untraced"])
            units = spans.LAYER_UNITS
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()}

    def execute(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            for k in range(SESSIONS):
                self.session(k)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        failed = sum(1 for o in self.ops if o["violations"])
        for o in self.ops:
            for v in o["violations"][:5]:
                print(f"op {o['op']} ({o['phase']}): {v[-500:]}")
        if failed == len(self.ops):
            raise RuntimeError("every op failed")
        metrics = self.metrics()
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / f"{self.wl.name}-seed{self.seed}-trace{int(self.trace)}.json"
        path.write_text(json.dumps(self.record(metrics), indent=1) + "\n")
        print(f"record: {path}")
        return {"correct": failed == 0, "attempted": len(self.ops),
                "failed": failed, "metrics": metrics}

    def record(self, metrics: dict) -> dict:
        return {
            "workload": self.wl.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "environment": environment(),
            "inputs": self.input_bytes,
            "samples": self.wl.samples, "visits": self.wl.visits,
            "setup_s": self.setups, "peak_rss_mb": self.rss_mb,
            "ops": self.ops, "metrics": metrics,
        }


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "climd" / "cli.py").is_file():
        print(f"error: no climd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    run = Run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except RuntimeError as exc:  # no result: the worker died or nothing passed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
