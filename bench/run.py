"""The repository benchmark: end-to-end simulator workloads.

Runs each workload as a series of repeats, every repeat in a fresh
subprocess (``bench/harness.py``), one process at a time, interleaving
workloads (A B C D A B C D ...).  Prints every end-to-end metric by name
with its unit and, as the last line of stdout, one JSON object::

    {"correct": true, "attempted": 7, "failed": 0,
     "metrics": {"setup_s": {"value": 0.1042, "unit": "s"}, ...}}

Usage::

    python3 bench/run.py                          # all workloads, 3 repeats
    python3 bench/run.py --workload ai_mesh --seed 2 --seconds 30
    python3 bench/run.py --trace                  # per-layer metrics
    python3 bench/run.py --quick --json runs/a1.json

With ``--seconds`` each workload repeats until its next repeat would end
past that budget (at least once); otherwise it runs ``REPEATS`` times.
``--trace`` makes every repeat a pair: an untraced run and a traced run
of the same inputs, whose simulated outputs must agree; the metrics are
then the per-layer ones.  The workloads, and the metrics reported with
their units, are the lists of ``BENCHMARK.json``.  With
several workloads the metric names are prefixed with ``<workload>.``.

Exit status: 0 when every repeat passed its checks, 1 when some failed
(the result is still printed), 2 when the harness itself could not run
(no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HARNESS = os.path.join(BENCH_DIR, "harness.py")
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")

DEFAULT_SEED = 1

#: Repeats per workload when no ``--seconds`` budget is given.
REPEATS = 3

#: Set-up-only processes started after every untraced repeat.  One
#: process's set-up time varies by 7 % to 36 % on the reference host, so
#: ``setup_s`` is the median over these and the repeats.  They build the
#: ``--quick`` variant: the same system, with a tenth of the inputs to
#: generate, which set-up time excludes anyway.
SETUP_SAMPLES = 2

#: A repeat that runs longer than this is killed and counted as failed.
REPEAT_TIMEOUT_S = 150


with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCHMARK = json.load(_fh)

#: Workload names, and metric name -> unit, as BENCHMARK.json lists them.
WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}


class HarnessError(RuntimeError):
    """The harness subprocess produced no result (e.g. no simulator)."""


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one repeat in a fresh interpreter; return its record."""
    cmd = [sys.executable, HARNESS, "--workload", workload,
           "--seed", str(seed), *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed,
                "wall_s": time.monotonic() - t0,
                "failure": {"kind": "timeout",
                            "detail": f"killed after {REPEAT_TIMEOUT_S} s"}}
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"{workload}: harness exited {proc.returncode}\n"
            f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["wall_s"] = wall
    return record


def load_fingerprints() -> dict:
    try:
        with open(FINGERPRINTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def outputs(record: dict) -> dict:
    """The simulated outputs of a repeat: fingerprint plus sim_* values."""
    return dict(record["fingerprint"], **record["sim"])


def medians(records: List[dict]) -> Dict[str, float]:
    """Every per-repeat host metric, as its median over the repeats."""
    return {name: statistics.median(r["metrics"][name] for r in records)
            for name in records[0]["metrics"]}


class Series:
    """The repeats of one workload and their checks."""

    def __init__(self, workload: str, seed: int, quick: bool, trace: bool,
                 committed: Optional[dict]):
        self.workload = workload
        self.seed = seed
        self.flags = ("--quick",) if quick else ()
        self.trace = trace
        self.committed = committed
        self.records: List[dict] = []
        self.traced: List[dict] = []
        self.failures: List[dict] = []
        self.setups: List[float] = []
        self.spent = 0.0

    @property
    def attempted(self) -> int:
        return len(self.records) + len(self.failures)

    def want_more(self, seconds: Optional[float]) -> bool:
        n = self.attempted
        if seconds is None:
            return n < REPEATS
        return n == 0 or self.spent * (n + 1) / n <= seconds

    def run_once(self) -> None:
        record = spawn(self.workload, self.seed, *self.flags)
        self.spent += record["wall_s"]
        traced = None
        if self.trace and record["failure"] is None:
            traced = spawn(self.workload, self.seed, *self.flags, "--trace")
            self.spent += traced["wall_s"]
            if traced["failure"] is not None:
                record = traced
            elif outputs(traced) != outputs(record):
                record = dict(record, failure={
                    "kind": "trace-changed-outputs",
                    "detail": "the traced run simulated something else"})
        failure = record["failure"] or self.check(record)
        if failure is not None:
            self.fail(failure)
            return
        self.records.append(record)
        if traced is not None:
            self.traced.append(traced)
            return
        self.setups.append(record["metrics"]["setup_s"])
        for _ in range(SETUP_SAMPLES):
            setup = spawn(self.workload, self.seed, "--quick", "--setup-only")
            self.spent += setup["wall_s"]
            if setup["failure"] is not None:
                self.fail(setup["failure"])
            else:
                self.setups.append(setup["setup_s"])

    def fail(self, failure: dict) -> None:
        self.failures.append(dict(failure, workload=self.workload,
                                  seed=self.seed))

    def check(self, record: dict) -> Optional[dict]:
        """Cross-repeat determinism and the committed fingerprint."""
        got = outputs(record)
        if self.records and got != outputs(self.records[0]):
            return {"kind": "nondeterministic",
                    "detail": "outputs differ from the first repeat"}
        if self.committed is not None and got != self.committed:
            diff = sorted(k for k in set(got) | set(self.committed)
                          if got.get(k) != self.committed.get(k))
            return {"kind": "fingerprint",
                    "detail": f"differs from bench/fingerprints.json in "
                              f"{', '.join(diff)}"}
        return None

    def metrics(self) -> Dict[str, dict]:
        if not self.records:
            return {}
        if self.trace:
            # Host time in reference-kernel units, so a slow spell during
            # one half of a pair does not read as tracing cost.
            untraced = medians(self.records)["cycles_per_mref"]
            traced = medians(self.traced)["cycles_per_mref"]
            out = {}
            for name, unit in PER_LAYER.items():
                if name == "trace.overhead_ratio":
                    value = untraced / traced - 1.0
                else:
                    value = statistics.median(r["layers"][name]
                                              for r in self.traced)
                out[name] = {"value": value, "unit": unit}
            return out
        values = dict(medians(self.records), **self.records[0]["sim"],
                      setup_s=statistics.median(self.setups))
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()}

    def summary(self) -> dict:
        info = {}
        if self.records and not self.trace:
            info = {k: v for k, v in dict(medians(self.records),
                                          **self.records[0]["sim"]).items()
                    if k not in END_TO_END}
            info["setup_samples"] = len(self.setups)
        return {"correct": not self.failures and bool(self.records),
                "attempted": self.attempted, "failed": len(self.failures),
                "metrics": self.metrics(), "info": info,
                "failures": self.failures, "repeats": self.records,
                "traced": self.traced}


def print_table(summaries: Dict[str, dict], seed: int, quick: bool) -> None:
    for workload, s in summaries.items():
        ok = s["attempted"] - s["failed"]
        print(f"== {workload}  seed {seed}  {ok}/{s['attempted']} repeats ok"
              f"{'  (quick)' if quick else ''}")
        for failure in s["failures"]:
            print(f"   FAILED {failure['kind']}: {failure.get('detail', '')}")
        for name, m in s["metrics"].items():
            print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
        info = s["info"]
        if info:
            first = s["repeats"][0]
            print(f"   {info['window_samples']:.0f} window samples of "
                  f"{first['window']} cycles per repeat; {first['cycles']} "
                  f"simulated cycles; {first['latency_samples']} latency "
                  f"samples; {info['setup_samples']} set-up samples; "
                  f"1 kref = {info['kref_ms']:.4f} ms on this host")
            print("   not gated: " + ", ".join(
                f"{k} {v:.6g}" for k, v in info.items()
                if k not in ("window_samples", "kref_ms", "setup_samples")))
        if s["traced"]:
            print(f"   chrome trace: {s['traced'][-1]['chrome_trace']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload (default: "
                             f"{REPEATS} repeats)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="1/10-size workloads for smoke runs")
    parser.add_argument("--json", metavar="OUT",
                        help="write every repeat's record to this file")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help="record this run's outputs as the committed "
                             "fingerprints (default seed only)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit: subprocess.run then kills and reaps
    # the repeat in progress instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    workloads = args.workload or list(WORKLOADS)
    if args.write_fingerprints and args.seed != DEFAULT_SEED:
        parser.error("fingerprints are committed for the default seed only")

    size = "quick" if args.quick else "full"
    committed = load_fingerprints().get(size, {})
    check_committed = args.seed == DEFAULT_SEED and not args.write_fingerprints
    series = [Series(w, args.seed, args.quick, bool(args.trace),
                     committed.get(w) if check_committed else None)
              for w in workloads]
    try:
        while True:
            active = [s for s in series if s.want_more(args.seconds)]
            if not active:
                break
            for s in active:
                s.run_once()
                print(f"[{s.workload}] repeat {s.attempted} done, "
                      f"{s.spent:.1f} s", file=sys.stderr)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    summaries = {s.workload: s.summary() for s in series}
    print_table(summaries, args.seed, args.quick)
    if args.write_fingerprints:
        data = load_fingerprints()
        data["seed"] = DEFAULT_SEED
        for s in series:
            if s.records:
                data.setdefault(size, {})[s.workload] = outputs(s.records[0])
        with open(FINGERPRINTS, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "quick": args.quick,
                       "trace": bool(args.trace), "workloads": summaries},
                      fh, indent=1)
    if len(series) == 1:
        metrics = summaries[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, s in summaries.items()
                   for name, m in s["metrics"].items()}
    result = {"correct": all(s["correct"] for s in summaries.values()),
              "attempted": sum(s["attempted"] for s in summaries.values()),
              "failed": sum(s["failed"] for s in summaries.values()),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
