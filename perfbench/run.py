"""nlss benchmark: end-to-end and per-layer metrics of the nlss CLI.

    python3 perfbench/run.py --workload resonant-1d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each operation runs `nlss solve` or `nlss sweep` through nlss.cli.main in a
fresh process (op.py) on a config generated from the workload seed, then
checks the artifacts (workloads.py).  Each client of a closed loop starts
operations until --seconds have passed and completes at least one; report
workloads run one client per core, a sweep one.  With --trace 0 the run
reports the end-to-end metrics, each the median over the operations that
ended while every client was still busy; with --trace 1 every round runs
the operation untraced and then traced (tracer.py) on the same seed and
reports the per-layer metrics of the traced runs plus the tracing
overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import metric_value  # noqa: E402
from workloads import WORKLOADS, Checker  # noqa: E402

DEFAULT_SEED = 1
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
RUN_LIMIT = 170.0  # seconds; an operation still running then is killed and failed


def metric_lists():
    """(end-to-end, per-layer) lists of (name, unit) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def _env(threads: int) -> dict:
    """The program's environment: one BLAS thread per process and a fixed
    sweep pool, so that pool workers times BLAS threads never exceed nproc."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["NLSS_THREADS"] = str(threads)
    env.pop("PYTHONPATH", None)
    return env


def pool_size() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def run_op(wl, seed, op_dir, trace, threads, deadline):
    """One operation in a fresh process; returns (measurements or None, stderr).

    The process and its pool workers are killed at the monotonic deadline."""
    os.makedirs(op_dir, exist_ok=True)
    cfg_path = os.path.join(op_dir, "config.json")
    result = os.path.join(op_dir, "result.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(wl.config(seed, op_dir), fh)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "op.py"), ROOT, cfg_path, result,
         repr(t0), str(trace), *wl.argv(cfg_path)],
        env=_env(threads), cwd=op_dir, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return None, f"killed at the {RUN_LIMIT} s run limit\n{err}"
    finally:
        # pool workers of a crashed operation must not outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not os.path.exists(result):
        return None, err
    with open(result, encoding="utf-8") as fh:
        return json.load(fh), err


def _median(values):
    return float(statistics.median(values))


def run(workload: str, seed: int, seconds: float, trace: bool, log=print) -> dict:
    deadline = time.monotonic() + RUN_LIMIT
    wl = WORKLOADS[workload]
    checker = Checker(wl)
    end_to_end, per_layer = metric_lists()
    run_dir = os.path.join(OUT_DIR, f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    threads = 1 if trace else pool_size()
    # Untraced reports run as a closed loop of one client per core (a sweep's
    # pool fills the cores by itself): the speed of one core changed by a
    # factor of up to 1.7 with the load on the other.
    clients = 1 if trace or wl.sweep else pool_size()
    modes = (0, 1) if trace else (0,)
    done = []  # (client, index, mode, seed, measurements or None, outcome, stderr, end)
    stop = time.monotonic() + seconds  # no client starts an operation after this

    def client(c):
        i = 0
        while i == 0 or time.monotonic() < stop:
            op_seed = (seed * 1000 + clients * i + c) % 2**64
            for mode in modes:
                op_dir = os.path.join(run_dir, f"op{c}-{i}-{mode}")
                m, err = run_op(wl, op_seed, op_dir, mode, threads, deadline)
                out = None if m is None else checker.check(m["rc"], op_dir)
                shutil.rmtree(op_dir, ignore_errors=True)
                done.append((c, i, mode, op_seed, m, out, err, time.monotonic()))
            i += 1

    try:
        with concurrent.futures.ThreadPoolExecutor(clients) as pool:
            for fut in [pool.submit(client, c) for c in range(clients)]:
                fut.result()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_DIR)
        except OSError:
            pass

    # Timings come only from operations that ended before any client
    # stopped, so that every one ran with all clients busy; the tail of the
    # client that finishes last ran partly alone.
    timed_until = min(max(d[7] for d in done if d[0] == c) for c in range(clients))
    rows, layers = [], []
    attempted = failed = 0
    walls = {}
    for c, i, mode, op_seed, m, out, err, end in sorted(done, key=lambda d: d[:3]):
        tag = f"client {c} op {i} seed={op_seed} trace={mode}"
        if m is None:
            attempted += wl.points
            failed += wl.points
            log(f"{tag}: crashed: {err.strip()[-400:]}")
            continue
        attempted += out.attempted
        failed += out.failed
        for j, f in enumerate(out.failures):
            if f:
                log(f"{tag} point {j}: FAILED {'; '.join(f)}")
        timed = end <= timed_until
        if mode == 1:
            layers.append(m["trace"])
        elif timed:
            rows.append(m)
        walls[(c, i, mode)] = m["wall_s"]
        log(f"{tag}: setup_s={m['setup_s']:.4f} s wall_s={m['wall_s']:.4f} s "
            f"cpu_s={m['cpu_s']:.4f} s peak_rss_mb={m['peak_rss_mb']:.1f} MB "
            f"attempted={out.attempted} failed={out.failed}{'' if timed else ' (not timed)'}")
    overheads = [walls[(c, i, 1)] - walls[(c, i, 0)]
                 for (c, i, mode) in walls if mode == 1 and (c, i, 0) in walls]

    metrics = {}
    if trace:
        if layers:
            for name, unit in per_layer:
                if name == "trace.overhead_s":
                    vals = overheads
                else:
                    vals = [metric_value(snap, name) for snap in layers]
                if vals:
                    metrics[name] = {"value": _median(vals), "unit": unit}
    elif rows:
        for name, unit in end_to_end:
            metrics[name] = {"value": _median([r[name] for r in rows]), "unit": unit}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nlss", "__init__.py")):
        print(f"error: no nlss sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run(name, args.seed, args.seconds, bool(args.trace))
        for metric, mv in res["metrics"].items():
            print(f"{name}: {metric} = {mv['value']:.6g} {mv['unit']}")
        print(f"{name}: attempted = {res['attempted']}, failed = {res['failed']}, "
              f"correct = {res['correct']}", flush=True)
        results[name] = res
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
