"""Rewrite refs.json: the log estimate of every graph that the default seed
gives the estimate and cli workloads, keyed as ``"<graph> M=<M>"``.

    python3 perfbench/freeze_refs.py

Run it only when the estimator's numbers are meant to change; the benchmark
compares every default-seed estimate with these values.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

import workloads as W  # noqa: E402
from eocount.estimator import eo_estimate  # noqa: E402
from eocount.graphs import Graph  # noqa: E402

DIGITS = 40
CLI_M = 2        # the CLI's default


def default_seed_jobs() -> dict:
    """reference key -> (graph spec, M)."""
    jobs = {job.key: (job.spec, job.M) for job in W.estimate_inputs(W.DEFAULT_SEED)}
    for op in W.cli_inputs(W.DEFAULT_SEED):
        if op.kind == "estimate":
            g = op.params["graph"]
            jobs[f"{g.key} M={CLI_M}"] = (g, CLI_M)
    return jobs


def main() -> None:
    refs = {}
    for key, (spec, M) in sorted(default_seed_jobs().items()):
        rep = eo_estimate(Graph.from_edges(spec.n, spec.edges), M=M,
                          K=W.ESTIMATE_K, bits=W.ESTIMATE_BITS)
        refs[key] = mpmath.nstr(rep.log_corrected[M], DIGITS)
        print(key, refs[key], flush=True)
    (HERE / "refs.json").write_text(
        json.dumps({"log_estimate": refs}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
