"""One benchmark process: set up a workload, run it closed-loop, check it.

Started by run.py from the repository root with ``src`` on PYTHONPATH.
Prints one JSON object on its last stdout line.  With --setup-only it stops
once set-up is done and reports only the time at which it was ready.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def timed(fn):
    """Run fn; return (seconds, result, error text or None)."""
    t0 = time.perf_counter()
    try:
        result, err = fn(), None
    except Exception as exc:  # noqa: BLE001  - a failed operation is counted
        result, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, err


def _stop(elapsed, unit_times, seconds):
    """End the timed phase where it lands closest to the requested length."""
    return elapsed + statistics.median(unit_times) / 2.0 > seconds


def _pass_metrics(ops, results):
    """wall_s: one pass, as the sum over its operations of each one's
    fastest time in the run; work_per_s: the work of a pass over wall_s.

    Every pass repeats the same inputs, so the times of one operation
    differ only by how much the shared host disturbed them; the fastest is
    the least disturbed, and it is steadier from run to run than a median.
    """
    times = {}
    for label, _, _, _, dt in results:
        times.setdefault(label, []).append(dt)
    wall = sum(min(times[label]) for label, _, _ in ops)
    return {"wall_s": wall, "work_per_s": sum(w for _, _, w in ops) / wall}


def run_in_process(wl, seconds, traced):
    """Repeat passes until the time is spent.  When traced, passes alternate
    between untraced and traced, so one run also yields the overhead."""
    ops = wl.ops()
    tracer = spans.Tracer() if traced else None
    results, pass_times, traced_flags = [], [], []
    start = time.perf_counter()
    while True:
        on = traced and len(pass_times) % 2 == 1
        if on:
            tracer.pass_id = len(pass_times)
            tracer.install()
        t0 = time.perf_counter()
        for label, fn, work in ops:
            dt, res, err = timed(fn)
            results.append((label, res, err, work, dt))
        pass_times.append(time.perf_counter() - t0)
        traced_flags.append(on)
        if on:
            tracer.uninstall()
        if _stop(time.perf_counter() - start, pass_times, seconds) and \
                (not traced or len(pass_times) >= 2):
            break
    out = {"results": results, "passes": len(pass_times)}
    if not traced:
        out.update(_pass_metrics(ops, results))
        return out
    on = [t for t, f in zip(pass_times, traced_flags) if f]
    off = [t for t, f in zip(pass_times, traced_flags) if not f]
    out["layers"] = spans.layer_metrics(
        tracer.spans, len(on), len(on) * len(ops), sum(on),
        statistics.median(on) - statistics.median(off))
    out["spans"] = tracer.spans
    return out


def run_cli(wl, seconds, traced):
    """Untraced: requests cycle through the mix one at a time.  Traced: each
    request kind runs untraced then traced, for whole cycles of the mix."""
    results = []
    start = time.perf_counter()
    if not traced:
        ops = wl.ops()
        while True:
            label, fn, work = ops[len(results) % len(ops)]
            dt, res, err = timed(fn)
            results.append((label, res, err, work, dt))
            if len(results) >= len(ops) and _stop(
                    time.perf_counter() - start, [r[4] for r in results],
                    seconds):
                break
        out = {"results": results, "requests": len(results),
               "request_p50_s": statistics.median(r[4] for r in results)}
        out.update(_pass_metrics(ops, results))
        return out

    pairs = list(zip(wl.ops(traced=False), wl.ops(traced=True)))
    merged, on, off, imports = [], [], [], []
    cycles = 0
    while True:
        t0 = time.perf_counter()
        for plain, with_trace in pairs:
            for (label, fn, work), bucket in ((plain, off), (with_trace, on)):
                dt, res, err = timed(fn)
                bucket.append(dt)
                trace = res.pop("trace", None) if res else None
                if trace is not None:
                    offset = len(merged)
                    for s in trace["spans"]:
                        s["parent"] += offset if s["parent"] >= 0 else 0
                        merged.append(s)
                    imports.append(trace["import_s"])
                results.append((label, res, err, work, dt))
        cycles += 1
        if _stop(time.perf_counter() - start,
                 [time.perf_counter() - t0], seconds):
            break
    layers = spans.layer_metrics(
        merged, cycles, len(on), sum(on), (sum(on) - sum(off)) / cycles,
        import_s=statistics.median(imports) if imports else 0.0)
    return {"results": results, "layers": layers, "passes": cycles,
            "spans": merged}


def check_all(wl, results, reference):
    """Output checks on every operation; returns (attempted, failures)."""
    failures = []
    for label, res, err, _, _ in results:
        if err is not None:
            failures.append(f"{label}: raised {err}")
            continue
        try:
            bad = wl.check(label, res, reference.get(label)
                           if reference else None)
        except Exception as exc:  # noqa: BLE001  - a broken output is a failure
            bad = [f"{label}: check raised {type(exc).__name__}: {exc}"]
        failures.extend(bad)
    return len(results), failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", default=None,
                    help="JSON of reference summaries to compare against")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        wl = cls(args.seed, args.smoke,
                 os.path.join(args.out_dir, f"cli-{args.seed}"),
                 trace_child=os.path.join(HERE, "cli_child.py"))
    else:
        wl = cls(args.seed, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    runner = run_cli if cls is workloads.Cli else run_in_process
    out = runner(wl, args.seconds, bool(args.trace))
    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh).get(args.workload)
    results = out.pop("results")
    if args.trace:
        path = os.path.join(args.out_dir,
                            f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out.pop("spans"), fh)
    summaries = {}
    for label, res, err, _, _ in results:
        if err is None and label not in summaries:
            summaries[label] = wl.summary(label, res)
    attempted, failures = check_all(wl, results, reference)
    # for cli the process doing the work is the largest request process
    who = resource.RUSAGE_CHILDREN if cls is workloads.Cli else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out.update(ready=ready, attempted=attempted, failed=len(failures),
               failures=failures[:20], summaries=summaries)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
