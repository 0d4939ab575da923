"""bnladder benchmark: fixed CLI workloads, each command in a fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload raw_direct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --summary .perfbench_run/results.jsonl
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

One run repeats passes over the workload's commands until ``--seconds`` is
spent (at least three passes; at least one traced round with ``--trace 1``),
checks every output of every pass, and reports medians.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Each run is also
appended, with its provenance and per-pass values, to ``--record``.
See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# What the console script ``bnladder`` runs.
CLI_BOOT = "import sys; from bnladder.cli import main; sys.exit(main())"
SETUP_BOOT = "import bnladder.cli"
SETUP_SAMPLES_PER_PASS = 3
MIN_PASSES = {0: 3, 1: 1}
COMMAND_TIMEOUT_S = 120.0


class Spawner:
    """Starts one child at a time with the library on PYTHONPATH and waits
    for it, returning its wall time and peak RSS."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))

    def run(self, args: list[str], stdout: str | None, stderr: str) -> tuple[float, float, float, int]:
        """Returns (start, seconds, peak_rss_mb, exit_code); the start is a
        perf_counter reading taken just before the process is created."""
        lock, state = threading.Lock(), {"reaped": False}
        with open(stdout or os.devnull, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                args, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )

            def kill():
                with lock:
                    if not state["reaped"]:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
            timer.start()
            try:
                # Wait without reaping, so the timer never signals a reused pid.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            except BaseException:
                kill()
                raise
            finally:
                with lock:
                    state["reaped"] = True
                timer.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            seconds = time.perf_counter() - start
        return start, seconds, usage.ru_maxrss / 1024.0, proc.returncode


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class WorkloadRun:
    """State of one run: the commands, their outputs and the failures."""

    def __init__(self, name: str, seed: int, out: str):
        self.out = out
        self.commands = workloads.commands(name, seed, out, workloads.load_reference())
        self.spawner = Spawner()
        self.first_hashes: dict[str, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _stderr(self, label: str) -> str:
        return os.path.join(self.out, label + ".stderr")

    def _verify(self, cmd: workloads.Command, rc: int, tag: str) -> None:
        """Count one command; record a failure if it exited nonzero, its
        outputs fail their check, or they differ from the first pass."""
        self.attempted += 1
        reason = None
        if rc != 0:
            reason = f"exit code {rc}"
        else:
            try:
                cmd.check()
            except (workloads.CheckFailed, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        if reason is None:
            for path in cmd.outputs:
                digest = _sha256(path)
                if self.first_hashes.setdefault(path, digest) != digest:
                    reason = f"{os.path.basename(path)} not byte-identical to the first pass"
        if reason is not None:
            self.failures.append(f"{tag} {cmd.label}: {reason}")

    def setup_sample(self) -> float:
        return self.spawner.run([sys.executable, "-c", SETUP_BOOT], None, self._stderr("setup"))[1]

    def plain_pass(self) -> dict:
        """Each command in a fresh process, one after another."""
        self.clear()
        secs, peak, codes = [], 0.0, []
        for cmd in self.commands:
            _, seconds, rss, rc = self.spawner.run(
                [sys.executable, "-c", CLI_BOOT, *cmd.argv], cmd.stdout, self._stderr(cmd.label)
            )
            secs.append(seconds)
            peak = max(peak, rss)
            codes.append(rc)
        for cmd, rc in zip(self.commands, codes):
            self._verify(cmd, rc, "plain")
        return {"wall_s": sum(secs), "peak_rss_mb": peak, "command_s": secs}

    def clear(self) -> None:
        """Delete the previous pass's outputs, untimed, so that every pass
        writes new files as a single command does; replacing a large file
        costs the filesystem more than creating one."""
        for cmd in self.commands:
            for path in cmd.outputs:
                if os.path.exists(path):
                    os.remove(path)

    def _traced(self, trace_id: int, tail: list[str], stdout: str | None, label: str):
        """One cold traced process; returns (start, exit_code, span dump or None)."""
        spans = os.path.join(self.out, f"spans-{trace_id}.json")
        if os.path.exists(spans):
            os.remove(spans)
        script = os.path.join(HERE, "tracing.py")
        args = [sys.executable, script, "--spans", spans, "--trace-id", str(trace_id), *tail]
        start, _, _, rc = self.spawner.run(args, stdout, self._stderr(label))
        if not os.path.exists(spans):
            return start, rc, None
        with open(spans) as fh:
            return start, rc, json.load(fh)

    def traced_pass(self) -> dict:
        """Each command in a fresh traced process, then the probe block."""
        self.clear()
        wall, dumps, codes = 0.0, [], []
        for i, cmd in enumerate(self.commands):
            start, rc, dump = self._traced(i, ["--", *cmd.argv], cmd.stdout, cmd.label)
            codes.append(rc)
            if dump is not None:
                dumps.append(dump)
                wall += dump["finished"] - start
        for cmd, rc in zip(self.commands, codes):
            self._verify(cmd, rc, "traced")
        _, rc, dump = self._traced(len(self.commands), ["--probe", self.out], None, "probe")
        self.attempted += 1
        if rc != 0 or dump is None:
            self.failures.append(f"traced probe: exit code {rc}")
        else:
            dumps.append(dump)
        return {"wall_s": wall, "dumps": dumps}


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    out = os.path.join(RUN_DIR, "out-" + name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    run = WorkloadRun(name, seed, out)
    setups, plain, traced, rounds = [], [], [], []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            t0 = time.perf_counter()
            setups += [run.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
            plain.append(run.plain_pass())
            if trace:
                traced.append(run.traced_pass())
            rounds.append(time.perf_counter() - t0)
            enough = len(rounds) >= MIN_PASSES[trace]
            if enough and time.perf_counter() + _median(rounds) > deadline:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "passes": {
            "wall_s": [p["wall_s"] for p in plain],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
            "setup_s": setups,
            "command_s": [p["command_s"] for p in plain],
        },
        "metrics": {
            "wall_s": _median([p["wall_s"] for p in plain]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        },
    }
    if trace:
        per_round = [tracing.layer_metrics(t["dumps"]) for t in traced]
        keys = sorted({key for m in per_round for key in m})
        layers = {key: _median([m.get(key, 0.0) for m in per_round]) for key in keys}
        layers["trace.wall_s"] = _median([t["wall_s"] for t in traced])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - record["metrics"]["wall_s"]
        record["passes"]["traced_wall_s"] = [t["wall_s"] for t in traced]
        record["layers"] = layers
        record["spans"] = [d for t in traced for d in t["dumps"]]
    return record


# -- provenance -----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        loaded = [ctypes.CDLL(path) for path in sorted(libs)]
    except OSError:
        return None
    for lib in loaded:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "load": "one sequential harness process; each command in a fresh process, "
                "one at a time (closed loop, one client)",
    }


# -- reporting --------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def result_line(record: dict, bench: dict) -> dict:
    """The object printed as the last line of a run."""
    if record["trace"]:
        specs, values = bench["per_layer"], record["layers"]
    else:
        specs, values = bench["end_to_end"], record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in specs
        },
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_run(record: dict, bench: dict) -> None:
    prov = record["provenance"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {len(record['passes']['wall_s'])}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    frac = record["failed"] / max(record["attempted"], 1)
    print(f"  failed_frac {frac:.4f} ({record['failed']} of {record['attempted']} commands)")
    for reason in record["failures"][:10]:
        print("  FAILED " + reason)
    for m in bench["end_to_end"]:
        vals = record["passes"][m["name"]]
        q1, _, q3 = _quartiles(vals)
        print(f"  {m['name']:<14} {record['metrics'][m['name']]:.6g} {m['unit']}  "
              f"[q1 {q1:.6g}, q3 {q3:.6g}, n {len(vals)}]")
    if record["trace"]:
        for m in bench["per_layer"]:
            print(f"  {m['name']:<26} {record['layers'].get(m['name'], 0.0):.6g} {m['unit']}")


def _read_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _grouped(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if not r["trace"]:
            out.setdefault(r["workload"], []).append(r)
    return out


def _stats(runs: list[dict], metric: str) -> tuple[float, float, float, int]:
    q1, med, q3 = _quartiles([r["metrics"][metric] for r in runs])
    return med, q1, q3, len(runs)


def summarize(path: str, bench: dict) -> None:
    """Median, quartiles and spread over runs of every end-to-end metric."""
    for name, runs in sorted(_grouped(_read_records(path)).items()):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{name}: {len(runs)} runs, failed_frac {failed / max(attempted, 1):.4f} "
              f"({failed} of {attempted})")
        for m in bench["end_to_end"]:
            med, q1, q3, n = _stats(runs, m["name"])
            spread = (q3 - q1) / med
            note = "  ABOVE BOUND" if spread > m["bound"] else ""
            print(f"  {m['name']:<12} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"n {n}  spread {spread:.4f} (bound {m['bound']}){note}")


def compare(old_path: str, new_path: str, bench: dict) -> int:
    """Every end-to-end metric per workload, old against new; flags a
    median that got worse by more than the metric's bound."""
    old, new = _grouped(_read_records(old_path)), _grouped(_read_records(new_path))
    worse = 0
    for name in sorted(set(old) | set(new)):
        print(name)
        if name not in old or name not in new:
            print("  only in " + (old_path if name in old else new_path))
            continue
        for m in bench["end_to_end"]:
            a, b = _stats(old[name], m["name"]), _stats(new[name], m["name"])
            change = (b[0] - a[0]) / a[0]
            worse_by = change if m["better"] == "lower" else -change
            flag = ""
            if worse_by > m["bound"]:
                flag, worse = "  WORSE BEYOND BOUND", worse + 1
            print(f"  {m['name']:<12} old {a[0]:.6g} [{a[1]:.6g}, {a[2]:.6g}] n {a[3]}   "
                  f"new {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}] n {b[3]}   "
                  f"{change:+.2%} (bound {m['bound']:.0%}){flag}")
    return 1 if worse else 0


# -- entry point ------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=os.path.join(RUN_DIR, "results.jsonl"),
                        help="append each run's full record here")
    parser.add_argument("--summary", metavar="RESULTS", help="summarize a record file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two record files")
    args = parser.parse_args()

    if not os.path.exists(BENCHMARK_JSON) or not os.path.exists(os.path.join(SRC, "bnladder", "cli.py")):
        print("perfbench: run from a repository checkout: BENCHMARK.json and "
              "src/bnladder are required", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.summary:
        summarize(args.summary, bench)
        return 0
    if args.compare:
        return compare(*args.compare, bench)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
    lines = {}
    for name in names:
        trace = 0 if args.workload == "all" else args.trace
        record = run_workload(name, args.seed, seconds, trace)
        spans = record.pop("spans", None)
        if spans is not None:
            with open(os.path.join(RUN_DIR, f"spans-{name}-seed{args.seed}.json"), "w") as fh:
                json.dump(spans, fh)
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print_run(record, bench)
        lines[name] = result_line(record, bench)
    if len(lines) == 1:
        result = lines[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}.{k}": v for w, r in lines.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
