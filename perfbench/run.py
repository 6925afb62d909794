#!/usr/bin/env python3
"""eocount benchmark.

    python3 perfbench/run.py --workload series|estimate|cli|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src``.  Inputs come from ``--seed``; ``--seconds`` fixes how many
passes a run makes (see ``workloads.reps_for``).  A pass of series or estimate
is a fresh interpreter, so the module-global memos of ``powersums`` start cold
in every pass; a pass of cli starts one eocount process per op.

With ``--trace 0`` the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics,
measured with tracing off.  With ``--trace 1`` the run makes its passes
untraced and then traced, and reports the per-layer metrics per pass plus the
tracing overhead (traced minus untraced ``wall_s``).  The lines before the
last one name every figure with its unit, the failed fraction, the
environment fingerprint and why the workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
# The shared host's speed flips between a fast and a slow state, and the
# share of time it spends slow drifts over minutes.  Before every op the
# benchmark times reference_work.  An op's time at the nominal speed is its
# time times REF_NOMINAL_S over the median reference time of its pass, and a
# set-up's over that of the run: one reference sample alone is too noisy.
REF_NOMINAL_S = 0.035
OP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),          # process start to inputs built, median of set-ups
    ("pass_s", "s"),           # one pass, each op at its median over the passes
    ("op_p50_ms", "ms"),       # median over the ops of each op's median
    ("peak_rss_mib", "MiB"),   # ru_maxrss; over the CLI child processes for cli
)
CLI_COMMANDS = ("exact", "expand", "estimate", "bounds", "taillab", "graphinfo")
PER_LAYER = (
    ("powersums.mu_moment_dict_s", "s"),
    ("powersums.mu_moment_dict_calls", "count"),
    ("powersums.distinct_monomials", "count"),
    ("powersums.memo_entries", "count"),
    ("expansion.self_s", "s"),
    ("expansion.f_as_mu_polynomial_s", "s"),
    ("expansion.evaluate_expansion_s", "s"),
    ("cumulants.moments_to_cumulants_s", "s"),
    ("estimator.kappa2_f_s", "s"),
    ("estimator.kappa2_edge_pairs", "count"),
    ("estimator.covariance_sigma_s", "s"),
    ("estimator.kappa1_f_s", "s"),
    ("estimator.eo_hat_log_s", "s"),
    ("estimator.self_s", "s"),
    ("graphs.cheeger_constant_s", "s"),
    ("graphs.cheeger_subsets", "count"),
    ("graphs.spanning_tree_count_s", "s"),
    ("graphs.spanning_tree_count_calls", "count"),
    ("exact.rt_count_s", "s"),
    ("exact.eo_count_bruteforce_s", "s"),
    ("exact.balanced_scan_s", "s"),
    ("taillab.check_tail_bound_s", "s"),
    ("taillab.alpha_s", "s"),
    ("taillab.exact_cumulants_discrete_s", "s"),
    ("taillab.points", "count"),
    ("cli.import_ms", "ms"),
    ("cli.main_self_ms", "ms"),
    *((f"cli.{c}_ms", "ms") for c in CLI_COMMANDS),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.spans", "count"),
)
# per-layer metric -> span name whose summed duration it reports
SPAN_TOTALS = {
    "powersums.mu_moment_dict_s": "powersums.mu_moment_dict",
    "expansion.f_as_mu_polynomial_s": "expansion.f_as_mu_polynomial",
    "expansion.evaluate_expansion_s": "expansion.evaluate_expansion",
    "cumulants.moments_to_cumulants_s": "cumulants.moments_to_cumulants",
    "estimator.kappa2_f_s": "estimator.kappa2_f",
    "estimator.covariance_sigma_s": "estimator.covariance_sigma",
    "estimator.kappa1_f_s": "estimator.kappa1_f",
    "estimator.eo_hat_log_s": "estimator.eo_hat_log",
    "graphs.cheeger_constant_s": "graphs.cheeger_constant",
    "graphs.spanning_tree_count_s": "graphs.spanning_tree_count",
    "exact.rt_count_s": "exact.rt_count",
    "exact.eo_count_bruteforce_s": "exact.eo_count_bruteforce",
    "exact.balanced_scan_s": "exact.balanced_scan",
    "taillab.check_tail_bound_s": "taillab.check_tail_bound",
    "taillab.alpha_s": "taillab.alpha",
    "taillab.exact_cumulants_discrete_s": "taillab.exact_cumulants_discrete",
}
SPAN_SELF = {"expansion.self_s": "expansion.expansion_series",
             "estimator.self_s": "estimator.eo_estimate"}
SPAN_CALLS = {"powersums.mu_moment_dict_calls": "powersums.mu_moment_dict",
              "graphs.spanning_tree_count_calls": "graphs.spanning_tree_count"}


class Outcome:
    """Op samples and check results of one or more passes."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}   # op label -> seconds per pass
        self.scaled: dict[str, list[float]] = {}    # the same at the nominal speed
        self.peak_rss_mib = 0.0
        self.attempted = 0
        self.failed = 0
        self.dumps: list[dict] = []        # span dumps of the traced processes
        self.commands: list = []           # CLI command of each dump, None in-process
        self.setup_s: list[float] = []     # fresh set-up processes
        self.ref_s: list[float] = []       # timings of reference_work

    def timed(self, label: str, fn, *args, **kwargs):
        """Time the reference work, then call fn and record its latency under
        label; an exception returns None, and the op's check then fails it."""
        ref = time_reference()
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # an op boundary: record it and keep measuring
            traceback.print_exc()
            return None
        finally:
            self.record(label, time.perf_counter() - t, ref)

    def record(self, label: str, seconds: float, ref: float) -> None:
        """One sample of an op, with the reference time taken just before it."""
        self.samples.setdefault(label, []).append(seconds)
        self.ref_s.append(ref)

    def close_pass(self) -> None:
        """Scale the samples of this one pass to the nominal host speed by
        the pass's median reference time."""
        if self.ref_s:
            scale = REF_NOMINAL_S / statistics.median(self.ref_s)
            self.scaled = {label: [t * scale for t in ts]
                           for label, ts in self.samples.items()}

    def judge(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {label}: {p}", file=sys.stderr)

    def all_samples(self) -> list[float]:
        return [t for ts in self.samples.values() for t in ts]

    @property
    def wall_s(self) -> float:
        """Time spent in timed ops, summed over every pass."""
        return sum(self.all_samples())

    def to_json(self) -> dict:
        return {"samples": self.samples, "scaled": self.scaled, "ref_s": self.ref_s,
                "peak_rss_mib": self.peak_rss_mib,
                "attempted": self.attempted, "failed": self.failed,
                "dumps": self.dumps, "commands": self.commands}

    def merge(self, other: dict) -> None:
        for label, ts in other["samples"].items():
            self.samples.setdefault(label, []).extend(ts)
        for label, ts in other["scaled"].items():
            self.scaled.setdefault(label, []).extend(ts)
        self.ref_s += other["ref_s"]
        self.peak_rss_mib = max(self.peak_rss_mib, other["peak_rss_mib"])
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.dumps += other["dumps"]
        self.commands += other["commands"]


def _self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _traced(out: Outcome, tracer) -> None:
    """Wrap the boundaries of every eocount module imported so far."""
    if tracer is not None:
        tracer.install()
        out.commands.append(None)


# ---------------------------------------------------------------------------
# series: one pass is one fresh interpreter


def setup_series(seed, workdir):
    from eocount import expansion
    return expansion


def pass_series(seed, golden, refs, out: Outcome, tracer=None) -> None:
    from eocount import expansion
    _traced(out, tracer)
    results = {fam: out.timed(f"{fam} series", expansion.expansion_series,
                              fam, W.SERIES_ORDER)
               for fam in W.SERIES_FAMILIES}
    evaluated = None
    if results["RT"] is not None:
        evaluated = out.timed(f"RT({W.SERIES_EVAL_N})", expansion.evaluate_expansion,
                              results["RT"], W.SERIES_EVAL_N)

    import checks
    for fam, res in results.items():
        out.judge(f"{fam} series", ["raised"] if res is None else
                  checks.check_series(res.coeffs, fam, W.SERIES_ORDER, golden))
    out.judge(f"RT at n={W.SERIES_EVAL_N}", ["not evaluated"] if evaluated is None else
              checks.check_rt_eval(evaluated[1], W.SERIES_ORDER, W.SERIES_EVAL_N, golden))


# ---------------------------------------------------------------------------
# estimate: one pass is one fresh interpreter


def setup_estimate(seed, workdir):
    from eocount.graphs import Graph
    return [(job, Graph.from_edges(job.spec.n, job.spec.edges))
            for job in W.estimate_inputs(seed)]


def pass_estimate(seed, golden, refs, out: Outcome, tracer=None) -> None:
    from eocount import estimator
    jobs = setup_estimate(seed, None)
    _traced(out, tracer)
    reports = [out.timed(job.key, estimator.eo_estimate, g, M=job.M,
                         K=W.ESTIMATE_K, bits=W.ESTIMATE_BITS, graph_id=job.spec.key)
               for job, g in jobs]

    import checks
    for (job, _g), rep in zip(jobs, reports):
        out.judge(job.key, ["raised"] if rep is None else
                  checks.check_estimate(job.spec, rep.log_corrected[job.M], refs,
                                        key=job.key))


# ---------------------------------------------------------------------------
# cli: every op is one fresh eocount process, run from here


def setup_cli(seed, workdir):
    ops = W.cli_inputs(seed)
    for op in ops:
        for name, text in op.files.items():
            (workdir / name).write_text(text)
    return ops


def pass_cli(ops, workdir: Path, golden, refs, traced=False) -> Outcome:
    """Run every op once, one process after another.  Each pass gets a fresh
    home and cache directory, so nothing one pass leaves there can speed up
    the next."""
    out = Outcome()
    home = Path(tempfile.mkdtemp(prefix="home-", dir=workdir))
    env = {k: v for k, v in os.environ.items()
           if k not in ("EOCOUNT_BITS", "PYTHONPATH")}
    env.update(HOME=str(home), XDG_CACHE_HOME=str(home / ".cache"))
    done = []
    for i, op in enumerate(ops):
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        trace_file = home / f"trace-{i}.json"
        if traced:
            cmd += ["--trace-out", str(trace_file)]
        ref = time_reference()
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd + op.argv, cwd=workdir, env=env,
                                  capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        out.record(f"op{i} " + " ".join(op.argv), time.perf_counter() - t, ref)
        done.append(proc)

    import checks
    for i, (op, proc) in enumerate(zip(ops, done)):
        label = " ".join(op.argv)
        if proc is None:
            out.judge(label, [f"timed out after {OP_TIMEOUT_S} s"])
            continue
        out.judge(label, checks.check_cli_op(op, proc.returncode, proc.stdout,
                                             proc.stderr, golden, refs))
        trace_file = home / f"trace-{i}.json"
        if traced and trace_file.is_file():
            out.dumps.append(json.loads(trace_file.read_text()))
            out.commands.append(op.argv[0])
    shutil.rmtree(home, ignore_errors=True)
    out.close_pass()
    return out


def tail_percentile(samples: list[float]) -> dict:
    """p90 in ms when at least ten samples lie beyond it; otherwise the
    highest percentile that has ten beyond it, or nothing."""
    n = len(samples)
    ordered = sorted(samples)
    if n >= 100:
        return {"op_p90_ms": 1000 * ordered[math.ceil(0.9 * n) - 1]}
    if n > 10:
        return {f"op_p{100 * (n - 10) // n}_ms": 1000 * ordered[n - 11]}
    return {}


WORKLOADS = {"series": setup_series, "estimate": setup_estimate, "cli": setup_cli}
IN_CHILD = {"series": pass_series, "estimate": pass_estimate}


# ---------------------------------------------------------------------------
# metrics


def pass_s(samples: dict[str, list[float]]) -> float:
    """One pass with every op at its median over the passes."""
    return sum(statistics.median(ts) for ts in samples.values())


def op_p50_s(samples: dict[str, list[float]]) -> float:
    """The median op: median over the ops of each op's median over the
    passes.  A median over all samples would sit in the gap between two
    ops' clusters and jump with small shifts."""
    return statistics.median(statistics.median(ts) for ts in samples.values())


def end_to_end(out: Outcome) -> dict:
    values = {
        "setup_s": (statistics.median(out.setup_s)
                    * REF_NOMINAL_S / statistics.median(out.ref_s)),
        "pass_s": pass_s(out.scaled),
        "op_p50_ms": 1000 * op_p50_s(out.scaled),
        "peak_rss_mib": out.peak_rss_mib,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(traced: Outcome, untraced: Outcome, reps: int) -> dict:
    """Fold the span dumps of a traced run into the per-layer metrics.

    Times and counts are per pass: summed over the run's processes, then
    divided by the number of passes.  cli.* are medians per op.
    """
    from tracing import summarize
    dumps, commands = traced.dumps, traced.commands
    summaries = [summarize(d["spans"]) for d in dumps]
    zero = {"total": 0.0, "self": 0.0, "calls": 0}
    totals = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = totals.setdefault(name, dict(zero))
            for k in acc:
                acc[k] += row[k]
    memos = [d["memo_entries"] for d in dumps]
    values = {m: totals.get(span, zero)["total"] for m, span in SPAN_TOTALS.items()}
    values.update({m: totals.get(span, zero)["self"] for m, span in SPAN_SELF.items()})
    values.update({m: totals.get(span, zero)["calls"] for m, span in SPAN_CALLS.items()})
    values["powersums.distinct_monomials"] = sum(d["distinct_monomials"] for d in dumps)
    values["powersums.memo_entries"] = None if None in memos else sum(memos)
    for k in ("estimator.kappa2_edge_pairs", "graphs.cheeger_subsets", "taillab.points"):
        values[k] = sum(d["counters"].get(k, 0) for d in dumps)
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    values["trace.unaccounted_s"] = traced.wall_s - sum(r["self"] for r in totals.values())
    values["trace.spans"] = sum(len(d["spans"]) for d in dumps)
    values = {k: _per_pass(v, reps) for k, v in values.items()}

    ops = [(cmd, s) for cmd, s in zip(commands, summaries) if "cli.main" in s]
    values["cli.import_ms"] = _median0([1000 * s["cli.import"]["total"] for _c, s in ops])
    values["cli.main_self_ms"] = _median0([1000 * s["cli.main"]["self"] for _c, s in ops])
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}_ms"] = _median0(
            [1000 * s["cli.main"]["total"] for c, s in ops if c == cmd])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _per_pass(value, reps: int):
    """value / reps; a count that splits evenly stays a whole number."""
    if value is None:
        return None
    if isinstance(value, int) and value % reps == 0:
        return value // reps
    return value / reps


def _median0(values) -> float:
    """Median, or 0.0 when the workload ran no such op."""
    return statistics.median(values) if values else 0.0


def fingerprint(nproc: int) -> dict:
    import mpmath
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "eocount").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": importlib.metadata.version("numpy"),
            "nproc": nproc}


# ---------------------------------------------------------------------------
# entry point


def _self_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def reference_work():
    """Fixed work in the program's own mix: mpmath floats at 256 bits,
    Fractions with growing denominators and tuple-keyed dicts.  It never
    touches eocount, so no change to the program can change its cost."""
    import mpmath
    with mpmath.workprec(256):
        x = mpmath.mpf(1) / 3
        acc = mpmath.mpf(0)
        for i in range(2500):
            acc += x * x + i
    frac = Fraction(0)
    for i in range(1, 700):
        frac += Fraction(1, i)
    table = {}
    for i in range(25000):
        key = (i % 97, i % 13, i % 7)
        table[key] = table.get(key, 0) + i
    return acc, frac, len(table)


def time_reference() -> float:
    """Seconds one call of reference_work takes."""
    import mpmath  # noqa: F401  (imported before the clock starts)
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


def time_setup(args) -> float:
    """Seconds from the start of a fresh process until it has imported and
    built its inputs.  The process prints its perf_counter at that point;
    on Linux that clock is CLOCK_MONOTONIC, shared by all processes."""
    t = time.perf_counter()
    proc = subprocess.run(_self_cmd(args, "--setup-only"), stdout=subprocess.PIPE,
                          text=True, check=True, timeout=PASS_TIMEOUT_S)
    return float(proc.stdout.splitlines()[-1]) - t


def run_passes(args, golden, refs, traced: bool) -> Outcome:
    """The run's passes, one after another.  A pass of series or estimate is a
    fresh interpreter (this script with --pass); a cli pass runs here and
    starts one process per op.  Untraced runs also time SETUP_RUNS set-ups,
    spread evenly over the passes so that they meet the same spells of the
    host as the passes."""
    out = Outcome()
    reps = W.reps_for(args.workload, args.seconds)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        cli_ops = setup_cli(args.seed, workdir) if args.workload == "cli" else None
        for r in range(reps):
            if not traced:
                out.setup_s += [time_setup(args) for i in range(SETUP_RUNS)
                                if i * reps // SETUP_RUNS == r]
            if cli_ops is not None:
                out.merge(pass_cli(cli_ops, workdir, golden, refs, traced).to_json())
            else:
                run_pass_process(args, r, traced, out)
        if cli_ops is not None:
            out.peak_rss_mib = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                                / 1024)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def run_pass_process(args, r: int, traced: bool, out: Outcome) -> None:
    """Pass r of series or estimate in a fresh interpreter, merged into out;
    a pass that fails or prints no result counts as one failed op."""
    try:
        proc = subprocess.run(_self_cmd(args, "--pass", "--trace", str(int(traced))),
                              stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 \
            else None
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        out.judge(f"pass {r}", ["the pass process failed"])
    else:
        out.merge(result)


def run_one(args) -> int:
    if args.setup_only:
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
        try:
            WORKLOADS[args.workload](args.seed, workdir)
            print(time.perf_counter())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    import checks
    golden = checks.load_golden(ROOT)
    refs = (checks.load_refs(HERE / "refs.json")
            if args.seed == W.DEFAULT_SEED else None)
    if args.run_pass:
        out = Outcome()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        IN_CHILD[args.workload](args.seed, golden, refs, out, tracer)
        out.close_pass()
        out.peak_rss_mib = _self_rss_mib()
        if tracer is not None:
            out.dumps.append(tracer.dump())
        print(json.dumps(out.to_json()))
        return 0

    try:
        reps = W.reps_for(args.workload, args.seconds)
        if args.trace:
            untraced = run_passes(args, golden, refs, traced=False)
            out = run_passes(args, golden, refs, traced=True)
            out.attempted += untraced.attempted
            out.failed += untraced.failed
            metrics = per_layer(out, untraced, reps)
            missing = sorted({m for d in out.dumps for m in d["missing"]})
            if missing:
                print(f"boundaries not found: {missing}")
        else:
            out = run_passes(args, golden, refs, traced=False)
            metrics = end_to_end(out)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass   # another run is using it
    report(args, out, reps, metrics)
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


def report(args, out: Outcome, reps: int, metrics: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  passes {reps}")
    print(f"  why: {W.WHY[args.workload]}")
    print(f"  fingerprint: {json.dumps(fingerprint(args.nproc), sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:38s} {_fmt(m['value']):>14s} {m['unit']}")
    samples = out.all_samples()
    notes = {"raw_setup_s": statistics.median(out.setup_s) if out.setup_s else None,
             "wall_s": out.wall_s, "raw_pass_s": pass_s(out.samples),
             "raw_op_p50_ms": 1000 * op_p50_s(out.samples) if samples else None,
             "reference_ms": 1000 * statistics.median(out.ref_s),
             "op_samples": len(samples), **tail_percentile(samples)}
    if samples:
        notes["op_max_ms"] = 1000 * max(samples)
    if args.workload == "series" and "RT series" in out.samples:
        notes["rt_s"] = statistics.median(out.samples["RT series"])
    if args.workload == "estimate" and samples:
        notes["graph_p50_s"] = statistics.median(samples)
    for name, value in notes.items():
        unit = "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else "count"
        print(f"  {name:38s} {_fmt(value):>14s} {unit}")
    print(f"  {'failed_frac':38s} {out.failed}/{out.attempted} = "
          f"{out.failed / max(out.attempted, 1):.4f}")


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.4f}" if isinstance(v, float) else str(v)


def run_all(args) -> int:
    """Every workload, each in its own fresh interpreter."""
    results = {}
    for name in WORKLOADS:
        args.workload = name
        proc = subprocess.run(_self_cmd(args, "--trace", str(args.trace)),
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs and exit (used to time set-up)")
    p.add_argument("--pass", dest="run_pass", action="store_true",
                   help="run one pass in this process and print it as JSON")
    args = p.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and waits for its child,
    # and the finally blocks remove the work directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "eocount" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "golden.py").is_file():
        print(f"perfbench: {ROOT} is not an eocount checkout "
              "(src/eocount and tests/golden.py are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    # One core for this process and every process it starts, so that the
    # reference work and the ops it scales run on the same core: on a shared
    # host the two cores can run at different speeds at the same moment.
    args.nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
