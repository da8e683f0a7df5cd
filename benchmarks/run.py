"""Benchmark of `eitlsm simulate` then `eitlsm reconstruct`, run as users run them.

Usage, from the repository root:

    python3 benchmarks/run.py --workload ref --seed 1 --seconds 60 --trace 0

A round runs `python3 -m eitlsm simulate` one or more times (the workload's
`simulates`, since a simulate is short and its time noisy) and then `python3
-m eitlsm reconstruct` once, each in a fresh process, on the workload's fixed
scenario and run configuration, and checks the written files against the
independent oracles in `oracle.py`. With `--trace 0` a timed bare `import
eitlsm.cli` start-up precedes each simulate. Rounds repeat while one more
still ends within `--seconds`, with at least two, so that every run also
checks that reruns are byte-identical. Before the rounds the run checks the
oracle itself and runs `eitlsm verify`.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics (medians over every process of the run). With `--trace 1` a round
is one untraced and one traced simulate/reconstruct pair (`traced.py`), at
least one round is run, and the metrics are the per-layer self times and
counts from the traced processes plus the tracing overhead; the memory
peaks come from one more traced pair with tracemalloc on, run after the
rounds. The seed picks the grid points
the oracle recomputes; the program's inputs are fixed by the workload.
Outputs go to `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(ROOT, "benchmarks", "traced.py")
PYTHON = sys.executable

DISK = {"shape": "disk", "center": [0.3, 0.0], "radius": 0.25, "h": [[2.0, 0.0], [0.0, 2.0]]}
ELLIPSE = {"shape": "ellipse", "center": [0.2, 0.1], "semi_axes": [0.3, 0.2], "tilt": 0.4,
           "h": [[[1.0, -0.5], [0.3, -0.1]], [[0.3, -0.1], [2.0, -0.3]]]}


def _config(inclusion: dict, h_target: float, spacing: float) -> dict:
    return {"scenario": {"inclusions": [inclusion]}, "h_target": h_target, "N": 16,
            "grid": {"spacing": spacing, "r_max": 0.9}, "delta_rule": {"epsilon": 0.01}}


# Oracle tolerances: indicator as relative difference, alpha as |log ratio|,
# each (median, max) over the sampled points; they sit above the differences
# measured over every grid point, which come from the FEM traces and shrink
# with the mesh size. The mask may differ from the true inclusion by
# symdiff_share |D| points.
WORKLOADS = {
    "ref": {
        "config": _config(DISK, 0.03, 0.05), "threads": 1, "simulates": 2,
        "tolerance": {"sample": 64, "indicator": (1e-2, 0.1), "alpha": (1.5e-2, 0.25),
                      "symdiff_share": 0.0, "cutoff_window": (49.0, 105.0)},
    },
    "mesh-heavy": {
        "config": _config(DISK, 0.015, 0.05), "threads": 1, "simulates": 2,
        "tolerance": {"sample": 64, "indicator": (3e-3, 3e-2), "alpha": (5e-3, 0.1),
                      "symdiff_share": 0.0},
    },
    "sweep-heavy": {
        "config": _config(ELLIPSE, 0.05, 0.025), "threads": 2, "simulates": 4,
        "tolerance": {"sample": 64, "indicator": (3e-2, 0.3), "alpha": (5e-2, 1.0),
                      "symdiff_share": 0.30},
    },
}

OUTPUTS = ("measured.nd", "background.nd", "indicator.csv", "mask.csv")
BYTES_PER_MB = 1 << 20

# the per_layer metrics of BENCHMARK.json, with their units
LAYER_METRICS = {
    "geometry.mesh_s": "s", "geometry.fourier_s": "s", "geometry.vertices": "count",
    "media.parse_s": "s", "media.coercivity_s": "s", "media.coercivity_calls": "count",
    "forward.assemble_s": "s", "forward.factorize_s": "s", "forward.assemble_calls": "count",
    "forward.lu_fill_nnz": "count", "forward.nd_columns_s": "s", "forward.nd_io_s": "s",
    "dipole.traces_s": "s", "dipole.traces_peak_MB": "MB", "dipole.rhs": "count",
    "sampling.svd_s": "s", "sampling.sweep_s": "s", "sampling.sweep_peak_MB": "MB",
    "sampling.points": "count", "sampling.support_s": "s", "sampling.write_s": "s",
    "sampling.output_bytes": "bytes", "cli.self_s": "s", "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    # at most two threads on a two-core machine: the sweep's own, not BLAS's
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], log_path: str) -> dict:
    """Run one process to its end; wall time from spawn to exit, peak RSS from wait4."""
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss * 1024 / BYTES_PER_MB,
            "code": proc.returncode}


def setup_time() -> float:
    """Fresh interpreter until `import eitlsm.cli` returns."""
    start = time.monotonic()
    done = subprocess.run(
        [PYTHON, "-c", "import time, eitlsm.cli; print(repr(time.monotonic()))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def digest(out_dir: str, names: tuple[str, ...]) -> dict:
    hashes = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class Operations:
    """Runs rounds of simulate/reconstruct and keeps the operation counts of one invocation.

    A round runs `simulate` one or more times into one directory and then
    `reconstruct` once on what it wrote. An operation fails when its process
    exits non-zero or a check of its outputs fails; a failed check also makes
    the invocation incorrect. After a failure the rest of the round is not
    run and counts as failed, so every round attempts the same operations.
    Every output must be byte-identical to the first one written.
    """

    def __init__(self, spec: dict, work_dir: str, seed: int):
        self.spec = spec
        self.work_dir = work_dir
        self.config_path = os.path.join(work_dir, "run.json")
        self.rng = np.random.default_rng(seed)
        self.attempted = self.failed = 0
        self.correct = True
        self.reference = {}

    @staticmethod
    def _check(check, *args) -> list[str]:
        try:
            return check(*args)
        except (OSError, ValueError) as exc:  # missing or malformed output files
            return [f"unreadable output: {exc}"]

    def _same_bytes(self, out_dir: str, names: tuple[str, ...]) -> list[str]:
        hashes = digest(out_dir, names)
        for name, value in hashes.items():
            self.reference.setdefault(name, value)
        return [f"{name} differs from the first one written"
                for name in names if hashes[name] != self.reference[name]]

    def round(self, label: str, mode: str, simulates: int = 1,
              setup: list | None = None) -> dict | None:
        """`simulates` simulate runs then one reconstruct, in mode untraced, traced or memory.

        Returns the runs of each command, or None if an operation failed.
        With `setup`, one start-up probe runs before each simulate and its
        time is appended there.
        """
        out_dir = os.path.join(self.work_dir, label)
        os.makedirs(out_dir)
        sample_seed = int(self.rng.integers(2**31))
        commands = ["simulate"] * simulates + ["reconstruct"]
        runs = {"simulate": [], "reconstruct": []}
        for k, command in enumerate(commands):
            if setup is not None and command == "simulate":
                setup.append(setup_time())
            self.attempted += 1
            args = [command, "--config", self.config_path, "--out", out_dir,
                    "--threads", str(self.spec["threads"])]
            spans = os.path.join(out_dir, f"{command}{k}_spans.json")
            if mode == "untraced":
                argv = [PYTHON, "-m", "eitlsm"] + args
            else:
                argv = [PYTHON, TRACER] + (["--memory"] if mode == "memory" else []) + [spans] + args
            run = run_child(argv, os.path.join(out_dir, f"{command}{k}.log"))
            run["spans"] = spans
            if run["code"] != 0:
                errors = [f"exited with {run['code']}"]
            elif command == "simulate":
                errors = self._check(oracle.check_simulate, os.path.join(out_dir, "measured.nd"),
                                     os.path.join(out_dir, "background.nd"),
                                     self.spec["config"]["N"])
                errors = errors or self._same_bytes(out_dir, OUTPUTS[:2])
            else:
                errors = self._check(oracle.check_reconstruct, out_dir, self.spec, sample_seed)
                errors = errors or self._same_bytes(out_dir, OUTPUTS)
            if errors:
                self.failed += 1
                self.correct &= run["code"] != 0
                print(f"{label} {command}: " + "; ".join(errors), file=sys.stderr)
                # the rest of the round, which needed these outputs
                rest = len(commands) - k - 1
                self.attempted += rest
                self.failed += rest
                return None
            print(f"{label} {command}: {run['wall']:.3f} s", file=sys.stderr)
            runs[command].append(run)
        return runs


def layer_metrics(traced: dict, memory: dict) -> tuple[dict, dict]:
    """Per-layer self times and counts of one traced round, summed over its two processes.

    Peaks come from the memory pair. Also returns, per command, the layer
    with the largest self time.
    """
    totals = dict.fromkeys(LAYER_METRICS, 0.0)
    largest = {}
    for command, (run,) in traced.items():
        with open(run["spans"]) as fh:
            record = json.load(fh)
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        own = {}
        for k, (name, start, end, parent) in enumerate(spans):
            own[name] = own.get(name, 0.0) + (end - start) - child_time[k]
        largest[command] = max((v, k) for k, v in own.items())
        covered = sum(end - start for _, start, end, parent in spans if parent is None)
        own["cli.self"] = run["wall"] - covered
        for name, seconds in own.items():
            totals[name + "_s"] += seconds
        values = record["values"]
        for name in ("geometry.vertices", "forward.lu_fill_nnz"):
            totals[name] = max(values.get(name, []) + [totals[name]])
        for name in ("dipole.rhs", "sampling.points", "sampling.output_bytes"):
            totals[name] += sum(values.get(name, []))
        for name in ("media.coercivity", "forward.assemble"):
            totals[name + "_calls"] += sum(span[0] == name for span in spans)
    with open(memory["reconstruct"][0]["spans"]) as fh:
        values = json.load(fh)["values"]
    for name in ("dipole.traces", "sampling.sweep"):
        totals[name + "_peak_MB"] = max(values.get(name + "_peak_bytes", [0])) / BYTES_PER_MB
    return totals, largest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "eitlsm", "cli.py")):
        print(f"no eitlsm sources under {SRC}", file=sys.stderr)
        return 2
    failures = oracle.self_test()
    if failures:
        print("oracle self-test failed: " + "; ".join(failures), file=sys.stderr)
        return 1

    spec = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    ops = Operations(spec, work_dir, args.seed)
    with open(ops.config_path, "w") as fh:
        json.dump(spec["config"], fh, indent=1)

    verify = run_child([PYTHON, "-m", "eitlsm", "verify"], os.path.join(work_dir, "verify.log"))
    if verify["code"] != 0:
        print(f"eitlsm verify exited with {verify['code']}; see {work_dir}/verify.log",
              file=sys.stderr)
        return 1

    setup = []
    if args.trace:
        plan, min_rounds = {"untraced": {}, "traced": {}}, 1
    else:
        plan, min_rounds = {"untraced": {"simulates": spec["simulates"], "setup": setup}}, 2
    # Whole rounds only: a round starts only if one as long as the longest so
    # far still ends within --seconds.
    rounds = []
    start = time.monotonic()
    longest = 0.0
    while len(rounds) < min_rounds or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        rounds.append({v: ops.round(f"{v}{len(rounds)}", v, **kw) for v, kw in plan.items()})
        longest = max(longest, time.monotonic() - began)
    if args.trace:
        memory = ops.round("memory", "memory")
    complete = [r for r in rounds if all(r.values())]
    if not complete or (args.trace and memory is None):
        print("no round completed", file=sys.stderr)
        return 1

    if args.trace:
        per_round = []
        for r in complete:
            totals, largest = layer_metrics(r["traced"], memory)
            totals["trace.overhead_s"] = sum(
                run["wall"] for runs in r["traced"].values() for run in runs) - sum(
                run["wall"] for runs in r["untraced"].values() for run in runs)
            per_round.append(totals)
        metrics = {name: {"value": statistics.median(t[name] for t in per_round), "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        for command, (seconds, name) in largest.items():
            print(f"{args.workload} {command}: largest layer self time {name} {seconds:.3f} s",
                  file=sys.stderr)
    else:
        def median(command: str, key: str) -> float:
            return statistics.median(
                run[key] for r in complete for run in r["untraced"][command])

        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "simulate_s": {"value": median("simulate", "wall"), "unit": "s"},
            "reconstruct_s": {"value": median("reconstruct", "wall"), "unit": "s"},
            "simulate_peak_rss_MB": {"value": median("simulate", "rss_mb"), "unit": "MB"},
            "reconstruct_peak_rss_MB": {"value": median("reconstruct", "rss_mb"), "unit": "MB"},
        }
    print(f"{args.workload}: {len(rounds)} rounds in {time.monotonic() - start:.1f} s, "
          f"medians over {len(complete)}", file=sys.stderr)
    print(json.dumps({"correct": ops.correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
