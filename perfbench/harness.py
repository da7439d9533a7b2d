"""Runs one workload and reports its metrics; see README.md for the method.

A run sets up the workload, runs one untimed warm-up pass, then timed passes
for the requested seconds, then one untimed pass under ``tracemalloc``.
``pass_rel`` divides each call's wall time by that of a fixed numpy kernel
run just before it, takes the median per call and sums over the pass: the
shared machine this was tuned on slows every kernel by 1.5-2x for spells of
up to minutes, and the ratio moves far less with them than any time does.
``setup_s`` is the median of several set-ups: this process's own and,
spread between the timed passes, more in fresh interpreters.  Every output
of every pass is checked.  With ``--trace 1`` the timed part alternates
untraced and traced passes instead (plus, on ``matfun_rot2``, a pass through
the ``mf_eba`` baseline) and the per-layer metrics are reported.  The last line
of standard output is the JSON result.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_ROUNDS = 2
ACCOUNTING_TOL = 0.05

# The reference kernel: tall-skinny products and small dense solves, the kind
# of work ebhess does, on inputs fixed here.  23 ms at its fastest on the
# machine of the README's figures.
REF_SHAPE = (2500, 100, 5)
REF_REPEATS = 60

END_TO_END = (
    ("setup_s", "s"),
    ("pass_rel", "ref"),
    ("peak_mb", "MB"),
    ("accuracy_digits", "digits"),
)
PER_LAYER = (
    ("dense.pivot_block_solve.calls", "count"),
    ("dense.pivot_block_solve.s", "s"),
    ("dense.plu_factor.calls", "count"),
    ("dense.plu_factor.s", "s"),
    ("ebh.ebha_run.calls", "count"),
    ("ebh.ebha_run.self_s", "s"),
    ("ebh.build_T.s", "s"),
    ("matfun.funm.calls", "count"),
    ("matfun.funm.s", "s"),
    ("matfun.expm.s", "s"),
    ("approx.mf_ebh.self_s", "s"),
    ("operators.apply.calls", "count"),
    ("operators.apply.s", "s"),
    ("operators.solve.calls", "count"),
    ("operators.solve.s", "s"),
    ("shifted.solve_shifted.self_s", "s"),
    ("shifted.cycles", "count"),
    ("shifted.reduced_solves", "count"),
    ("eba.mf_eba.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.remainder_s", "s"),
)
COUNTERS = ("shifted.cycles", "shifted.reduced_solves")


def setup_once(name, seed, tiny):
    """Import ebhess, build the workload's operators and inputs; time it all."""
    t0 = time.perf_counter()
    import ebhess

    wl = workloads.make(name, tiny)
    wl.setup(ebhess, seed)
    return time.perf_counter() - t0, ebhess, wl


def setup_in_child(name, seed, tiny):
    cmd = [sys.executable, RUN_PY, "--workload", name, "--seed", str(seed), "--setup-only"]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _openblas_libraries():
    """Each OpenBLAS loaded in this process: its build string and thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment():
    """Versions, BLAS build and thread count, and processor count of this run."""
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "openblas": _openblas_libraries(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def run_pass(calls, tracer=None, reference=None):
    """Run each call once; return the pass time, per-call times, outputs and
    the times of the reference kernel, which runs before each call if given
    and is left out of the pass time.

    An exception is the output of a failed operation, not the end of the run.
    """
    outs, times, refs = [], [], []
    start = time.perf_counter()
    for call in calls:
        if reference is not None:
            refs.append(reference())
        fn = call.run if tracer is None else tracer.wrap(call.layer, call.run)
        t = time.perf_counter()
        try:
            outs.append(fn())
        except Exception as exc:
            outs.append(exc)
        times.append(time.perf_counter() - t)
    return time.perf_counter() - start - sum(refs), times, outs, refs


def memory_pass(calls):
    """Largest allocation peak of one call, in bytes, with each call's outputs."""
    peaks, outs = [], []
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                outs.append(call.run())
            except Exception as exc:
                outs.append(exc)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peaks, outs


class Book:
    """Counts operations, checks their outputs and keeps what went wrong."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.raised = {}
        self.problems = dict.fromkeys(wl.setup_problems)
        self.errors = {}

    def add(self, calls, outs, count=True):
        """Check one pass; returns the summed counters of its outputs."""
        errors, counters = {}, dict.fromkeys(COUNTERS, 0)
        for call, out in zip(calls, outs):
            self.attempted += count
            if isinstance(out, Exception):
                self.failed += count
                self.raised[f"{call.label}: {type(out).__name__}: {out}"] = None
                continue
            err, problems = self.wl.check(call, out)
            if problems:
                self.failed += count
                self.problems.update(dict.fromkeys(problems))
                continue
            errors[call.key] = err
            for k, v in self.wl.counters(out).items():
                counters[k] += v
        if count:
            self.problems.update(dict.fromkeys(self.wl.check_pass(errors)))
            for key, err in errors.items():
                self.errors[key] = max(err, self.errors.get(key, 0.0))
        return counters

    def accuracy_digits(self):
        if not self.errors:
            self.problems["no operation succeeded"] = None
            return 0.0
        return -math.log10(max(max(self.errors.values()), np.finfo(float).tiny))


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def reference_kernel():
    """A timer of the reference kernel: it returns one run's wall time."""
    n, k, p = REF_SHAPE
    rng = np.random.default_rng(0)
    W, y = rng.random((n, k)), rng.random((k, p))
    M = rng.random((k, k)) + k * np.eye(k)

    def run():
        t = time.perf_counter()
        for _ in range(REF_REPEATS):
            W @ y
            np.linalg.solve(M, y)
        return time.perf_counter() - t

    return run


def timed_run(calls, book, seconds, record, setup_sample):
    """Timed passes, with the reference kernel before each call and the
    extra set-ups spread evenly between the passes.

    Taking every set-up sample at one moment would catch a single spell of
    the machine's load; spread out, they see the same mix as the passes.
    """
    pass_times, ref_times, call_times, setups = [], [], [], record["setup_samples_s"]
    reference = reference_kernel()
    start = time.perf_counter()
    gap = seconds / SETUP_SAMPLES
    while len(pass_times) < MIN_PASSES or time.perf_counter() < start + seconds:
        t, times, outs, refs = run_pass(calls, reference=reference)
        pass_times.append(t)
        ref_times.append(refs)
        call_times.append(times)
        book.add(calls, outs)
        del outs
        if len(setups) < SETUP_SAMPLES and time.perf_counter() >= start + gap * len(setups):
            setups.append(setup_sample())
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    peaks, outs = memory_pass(calls)
    book.add(calls, outs)
    del outs
    # Each call over the reference run just before it, the median per call,
    # summed over the pass.
    call_rel = {
        c.label: statistics.median(t / r for t, r in zip(ts, rs))
        for c, ts, rs in zip(calls, zip(*call_times), zip(*ref_times))
    }
    record["passes"] = pass_times
    record["reference_s"] = ref_times
    record["call_rel"] = call_rel
    record["pass_quartiles_s"] = _quartiles(pass_times)
    if len(pass_times) >= 40:
        q = 1.0 - 10.0 / len(pass_times)
        record[f"pass_p{int(100 * q)}_s"] = float(np.quantile(pass_times, q))
    record["call_median_s"] = {c.label: statistics.median(ts) for c, ts in zip(calls, zip(*call_times))}
    record["call_s"] = call_times
    record["call_peak_mb"] = {c.label: b / 1e6 for c, b in zip(calls, peaks)}
    return {
        "setup_s": statistics.median(setups),
        "pass_rel": sum(call_rel.values()),
        "peak_mb": max(peaks) / 1e6,
    }


def traced_run(eb, wl, calls, book, seconds, record):
    baseline = wl.baseline_calls() if hasattr(wl, "baseline_calls") else []
    plain, traced, remainders, stats, counts, eba = [], [], [], [], [], []
    passes, call_times, eba_call_times = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        t, times, outs, _ = run_pass(calls)
        plain.append(t)
        call_times.append(times)
        book.add(calls, outs)
        del outs

        tracer = tracing.Tracer()
        with tracer.installed(eb):
            t, _, outs, _ = run_pass(calls, tracer)
        traced.append(t)
        counters = book.add(calls, outs)
        del outs
        st, remainder = tracing.summarize(tracer.spans, t)
        accounted = sum(s["self_s"] for s in st.values()) + remainder
        if abs(accounted - t) > ACCOUNTING_TOL * t:
            book.problems[f"spans account for {accounted:.4f} s of a {t:.4f} s traced pass"] = None
        stats.append(st)
        remainders.append(remainder)
        counts.append(({k: v["calls"] for k, v in st.items()}, counters))
        passes.append((t, tracer.spans, st, remainder))

        if baseline:
            t, times, outs, _ = run_pass(baseline)
            eba.append(t)
            eba_call_times.append(times)
            book.add(baseline, outs, count=False)
            del outs
    if any(c != counts[0] for c in counts):
        book.problems["span and solver counts differ between traced passes"] = None

    metrics = {}
    for name, _ in PER_LAYER:
        if name in COUNTERS:
            value = counts[0][1][name]
        elif name == "eba.mf_eba.s":
            value = statistics.median(eba) if eba else 0.0
        elif name == "trace.overhead_s":
            # Paired within a round, so that both passes see the same spell.
            value = statistics.median(t - u for t, u in zip(traced, plain))
        elif name == "trace.remainder_s":
            value = statistics.median(remainders)
        elif name.endswith(".calls"):
            value = stats[0].get(name[: -len(".calls")], {}).get("calls", 0)
        else:
            span, field = name.rsplit(".", 1)
            value = statistics.median(s.get(span, {}).get(field, 0.0) for s in stats)
        metrics[name] = value
    record["call_median_s"] = {c.label: statistics.median(ts) for c, ts in zip(calls, zip(*call_times))}
    record["untraced_passes"] = plain
    record["traced_passes"] = traced
    record["eba_passes"] = eba
    record["self_s"] = {
        span: statistics.median(s.get(span, {}).get("self_s", 0.0) for s in stats)
        for span in sorted({k for s in stats for k in s})
    }
    if baseline:
        record["eba_call_median_s"] = {
            c.label: statistics.median(ts) for c, ts in zip(baseline, zip(*eba_call_times))
        }
    return metrics, passes


def write_trace(path, header, passes):
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for k, (pass_s, spans, st, remainder) in enumerate(passes):
            t0 = spans[0][1] if spans else 0.0
            fh.write(json.dumps({"pass": k, "pass_s": pass_s, "remainder_s": remainder,
                                 "calls": {n: s["calls"] for n, s in st.items()}}) + "\n")
            for name, start, end, parent in spans:
                fh.write(json.dumps({"pass": k, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def run(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns the result object printed as the last line."""
    setup_s, eb, wl = setup_once(name, seed, tiny)
    env = environment()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "env": env}
    print("# env " + json.dumps(env), flush=True)
    wl.prepare_checks()
    book = Book(wl)
    for lib in env["openblas"]:
        if lib.get("threads") != 1:
            book.problems[f"{lib['library']} runs {lib.get('threads')} threads, not 1"] = None
    calls = wl.calls()
    _, _, outs, _ = run_pass(calls)   # warm-up
    book.add(calls, outs)
    del outs

    if trace:
        metrics, passes = traced_run(eb, wl, calls, book, seconds, record)
        units = dict(PER_LAYER)
    else:
        record["setup_samples_s"] = [setup_s]
        metrics = timed_run(calls, book, seconds, record, lambda: setup_in_child(name, seed, tiny))
        metrics["accuracy_digits"] = book.accuracy_digits()
        units = dict(END_TO_END)
        metrics = {k: metrics[k] for k in units}

    record["call_relative_error"] = {c.label: book.errors[c.key] for c in calls if c.key in book.errors}
    record["raised"] = list(book.raised)
    record["problems"] = list(book.problems)
    result = {
        "correct": not book.problems,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        write_trace(stem + ".spans.jsonl", {"workload": name, "seed": seed, "env": env}, passes)
    for text in list(book.raised) + list(book.problems):
        print(f"# {name}: {text}", flush=True)
    for k, v in metrics.items():
        print(f"{name} {k} {v:.6g} {units[k]}", flush=True)
    return result


def run_all(args):
    """Run every workload, each in its own process; merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, RUN_PY, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        res = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(setup_once(args.workload, args.seed, args.tiny)[0])
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace, args.tiny)))
    return 0
