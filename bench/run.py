"""Benchmark of rcbounds: four closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload rademacher --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --self-check            # all workloads, seeds 0 and 1
    python3 bench/run.py --self-check --smoke    # the same at tiny sizes

Workloads: rademacher, coverage, theta, cli (see workloads.py).  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run (see spans.py).  Details and
a human-readable report go to stderr.  Every run checks the outputs of
every operation; at seed 0 it also compares them with reference.json,
recorded on the seed commit with --record-reference.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("rademacher", "coverage", "theta", "cli")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
OUT_DIR = ".bench_out"
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED, SECOND_SEED = 0, 1
SETUP_RUNS = 3          # set-up is timed in this many fresh interpreters
TIME_LIMIT_S = 170.0    # a run must end within 180 s


class BenchError(RuntimeError):
    """A run that could not produce a result."""


def _env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # one BLAS thread: the workloads are single-client and the host is shared
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, deadline):
    """Run worker.py in its own process group; return (spawn time, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--out-dir", OUT_DIR] + args
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran out of time") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"{proc.returncode}:\n{err[-3000:]}")
    return t0, json.loads(out.strip().splitlines()[-1])


def run_once(workload, seed, seconds, trace, smoke, deadline):
    """One benchmark run; returns the result object printed last."""
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    if seed == DEFAULT_SEED and not smoke:
        common += ["--reference", REFERENCE]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            t0, probe = _worker(common + ["--setup-only"], deadline)
            setups.append(probe["ready"] - t0)
    t0, res = _worker(common + ["--trace", str(int(trace))], deadline)
    setups.append(res["ready"] - t0)
    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END}
    for line in res["failures"]:
        print(f"FAILED {workload} seed {seed}: {line}", file=sys.stderr)
    return {"correct": res["failed"] == 0 and res["attempted"] >= 1,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}, res


def _report(workload, seed, result, detail, traced):
    err = result["failed"] / result["attempted"]
    if not traced:
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in result["metrics"].items())
        extra = (f" request_p50_s={detail['request_p50_s']:.4g} s"
                 f" over {detail['requests']} requests"
                 if "requests" in detail else f" passes={detail['passes']}")
        print(f"{workload:10s} seed={seed} {shown}  error_rate={err:.3g}"
              f" ({result['failed']}/{result['attempted']}){extra}",
              file=sys.stderr)
        return
    m = {k: v["value"] for k, v in result["metrics"].items()}
    shares = "  ".join(f"{layer}={m[layer + '.share_pct']:.1f}%"
                       for layer in spans.LAYERS)
    print(f"{workload:10s} seed={seed} traced passes={detail['passes']} "
          f"overhead={m['trace.overhead_s']:.4g} s per pass  shares: {shares}",
          file=sys.stderr)
    for name, unit in spans.PER_LAYER:
        if m[name] and not name.endswith("share_pct"):
            print(f"    {name} = {m[name]:.6g} {unit}", file=sys.stderr)


def self_check(seconds, smoke, deadline_per_run):
    """Every workload at the default and a second seed, untraced and traced."""
    total = {"attempted": 0, "failed": 0}
    metrics = {}
    for seed in (DEFAULT_SEED, SECOND_SEED):
        for workload in WORKLOADS:
            for trace in (False, True):
                deadline = time.monotonic() + deadline_per_run
                result, detail = run_once(workload, seed, seconds, trace,
                                          smoke, deadline)
                _report(workload, seed, result, detail, trace)
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                if not trace:
                    for name, v in result["metrics"].items():
                        metrics[f"{workload}.seed{seed}.{name}"] = v
    return {"correct": total["failed"] == 0, **total, "metrics": metrics}


def record_reference(seconds, deadline_per_run):
    """Store the default seed's checked outputs as the reference values."""
    ref = {}
    for workload in WORKLOADS:
        cmd = ["--workload", workload, "--seed", str(DEFAULT_SEED),
               "--seconds", str(seconds)]
        _, res = _worker(cmd, time.monotonic() + deadline_per_run)
        if res["failed"]:
            raise BenchError(f"{workload} failed its checks: {res['failures']}")
        ref[workload] = res["summaries"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"correct": True, "attempted": len(ref), "failed": 0, "metrics": {}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for a check that finishes in seconds")
    ap.add_argument("--self-check", action="store_true",
                    help="all workloads at seeds 0 and 1, untraced and traced")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the default seed")
    args = ap.parse_args()
    if not (args.workload or args.self_check or args.record_reference):
        ap.error("give --workload, --self-check or --record-reference")

    if not os.path.isfile(os.path.join("src", "rcbounds", "__init__.py")):
        print("error: run from the root of an rcbounds checkout "
              "(src/rcbounds not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    seconds = 0.0 if args.smoke else args.seconds
    try:
        if args.self_check:
            result = self_check(seconds, args.smoke, TIME_LIMIT_S)
        elif args.record_reference:
            result = record_reference(args.seconds, TIME_LIMIT_S)
        else:
            result, detail = run_once(args.workload, args.seed, seconds,
                                      bool(args.trace), args.smoke,
                                      time.monotonic() + TIME_LIMIT_S)
            _report(args.workload, args.seed, result, detail, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
