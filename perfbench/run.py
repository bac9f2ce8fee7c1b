"""flowcl benchmark: closed-loop runs of the `flowcl` CLI on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 60 --trace 0

One client runs the workload's commands one after another, each in its own
child process (a closed loop: a command starts when the previous one exits),
and repeats the whole pass while another pass should end within `--seconds`,
judged by the longest pass so far. Every pass's outputs are checked. With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` passes alternate between untraced and traced commands and the
last line carries the per-layer metrics. Earlier lines give the machine, the
end-to-end metrics with the workload's other throughputs and quality
figures, and each failed check; the full result also goes to
perfbench/.work/results/.

The program is run from `src/` of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3  # set-ups per run; setup_s is their median


def machine_info(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "machine": platform.machine(), "seed": seed}


class Child:
    """Runs one command in a child process; records wall time and peak RSS."""

    def __init__(self, cwd: str, env: dict, log_path: str):
        self.cwd, self.env, self.log_path = cwd, env, log_path

    def run(self, argv: list[str]) -> tuple[float, float, int, float]:
        """Return wall seconds, peak RSS in MB, exit code and CPU seconds."""
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                usage.ru_utime + usage.ru_stime)

    def log_tail(self, lines: int = 20) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class Run:
    """One benchmark run: set-ups, then closed-loop passes until time is up."""

    def __init__(self, workload, work: str, seed: int, flowcl, child: Child):
        self.workload, self.work, self.seed = workload, work, seed
        self.flowcl, self.child = flowcl, child
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.quality: dict = {}
        self.setup_times: list[float] = []
        self.walls: list[float] = []
        self.rates: list[dict[str, float]] = []
        self.peak_rss = 0.0
        self.log: list[dict] = []

    def setup(self) -> bool:
        for _ in range(SETUPS):
            start = time.perf_counter()
            warmup = self.workload.setup(self.work, self.seed, self.flowcl)
            _, _, code, _ = self.child.run(
                [sys.executable, os.path.join(HERE, "warmup.py")] + warmup)
            if code != 0:
                print(f"set-up failed (exit {code}):\n{self.child.log_tail()}",
                      file=sys.stderr)
                return False
            self.setup_times.append(time.perf_counter() - start)
        return True

    def one_pass(self, trace) -> None:
        """Run every command once; with `trace`, traced and fed to it."""
        prefix = ([sys.executable, os.path.join(HERE, "traced_cli.py")] if trace
                  else [sys.executable, "-m", "flowcl.cli"])
        n = len(self.log)
        walls, commands, spans = {}, [], []
        start = time.perf_counter()
        for k, (label, cli_args) in enumerate(self.workload.commands()):
            self.attempted += 1
            spans_path = os.path.join(self.work, f"spans-{n}-{k}.npz")
            wall, rss, code, cpu = self.child.run(
                prefix + ([spans_path] if trace else []) + cli_args)
            commands.append((label, wall, rss, code, cpu))
            if code != 0:
                self.failed += 1
                self.failures.append(f"{cli_args[0]} exited {code}:\n{self.child.log_tail()}")
                break
            walls.setdefault(label, []).append(wall)
            spans.append((label, wall, spans_path))
        pass_wall = time.perf_counter() - start
        self.log.append({"traced": bool(trace), "wall_s": pass_wall, "commands": commands})
        if commands[-1][3] != 0:
            return
        try:
            checks, self.quality = self.workload.check(self.work, self.flowcl)
        except (OSError, ValueError, KeyError, self.flowcl.FlowclError) as err:
            checks = [(f"outputs readable ({type(err).__name__}: {err})", False)]
        self.attempted += len(checks)
        for name, passed in checks:
            if not passed:
                self.failed += 1
                self.failures.append(f"check failed: {name}")
        if trace:
            trace.traced_walls.append(pass_wall)
            for label, wall, spans_path in spans:
                trace.add_command(label, wall, spans_path)
        else:
            self.walls.append(pass_wall)
            self.rates.append(self.workload.rates(walls))
            self.peak_rss = max([self.peak_rss] + [c[2] for c in commands])

    def rate(self, name: str) -> float:
        return median([r[name] for r in self.rates])

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (median(self.setup_times), "s"),
            "wall_s": (median(self.walls), "s"),
            "pretrain_samples_per_s": (self.rate("pretrain_samples_per_s"), "1/s"),
            "peak_rss_mb": (self.peak_rss, "MB"),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "flowcl", "cli.py")):
        print(f"no flowcl sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import flowcl
    from layers import LayerTrace, metric_table
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work = os.path.join(HERE, ".work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = Run(workload, work, args.seed, flowcl,
              Child(work, env, os.path.join(work, "commands.log")))
    if not run.setup():
        return 1

    # With tracing, passes alternate untraced/traced, at least one of each.
    # A pass starts only if it should end within --seconds, going by the
    # longest pass so far, so that a run does not overrun by most of a pass.
    trace = LayerTrace()
    start = time.perf_counter()
    while True:
        run.one_pass(trace if args.trace and len(run.log) % 2 == 1 else None)
        longest = max(p["wall_s"] for p in run.log)
        if ((not args.trace or len(run.log) >= 2)
                and time.perf_counter() - start + longest > args.seconds):
            break
    trace.untraced_walls = run.walls

    end_to_end = run.end_to_end()
    if args.trace:
        units = {name: unit for name, unit, _ in metric_table()}
        reported = {k: (v, units[k]) for k, v in trace.metrics().items()}
    else:
        reported = end_to_end
    spec_path = os.path.join(root, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if expected != set(reported):
            print(f"metrics differ from BENCHMARK.json: {sorted(expected ^ set(reported))}",
                  file=sys.stderr)
            return 3

    info = machine_info(args.seed)
    rates = {k: (run.rate(k), "1/s") for k in (run.rates[0] if run.rates else {})}
    named = {**rates, **end_to_end,
             "failed_ratio": (run.failed / run.attempted, "ratio"), **run.quality}
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {workload.name}: {len(run.log)} passes "
          f"({len(run.walls)} untraced, {len(trace.traced_walls)} traced), "
          f"{run.attempted} commands and checks attempted, {run.failed} failed")
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    for failure in run.failures:
        print("  " + failure)

    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}
    detail = dict(result, machine=info, workload=workload.name, trace=args.trace,
                  seconds=args.seconds, setup_times=run.setup_times, passes=run.log,
                  named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                  failures=run.failures)
    results_dir = os.path.join(HERE, ".work", "results")
    os.makedirs(results_dir, exist_ok=True)
    out_path = os.path.join(results_dir,
                            f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
