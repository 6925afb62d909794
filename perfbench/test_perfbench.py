"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench

They cover the seeded generators, the self-time arithmetic, the boundary
wrappers and the output checkers; they run no timed workload.
"""

import json
import sys
from collections import deque
from fractions import Fraction
from math import prod
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import BOUNDARIES, Tracer, self_times, summarize  # noqa: E402

GOLDEN = checks.load_golden(HERE.parent)


def connected(g: W.GraphSpec) -> bool:
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, todo = {0}, deque([0])
    while todo:
        for w in adj[todo.popleft()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("seed", [1, 2, 97])
def test_generators_are_deterministic(seed):
    assert W.estimate_inputs(seed) == W.estimate_inputs(seed)
    assert W.cli_inputs(seed) == W.cli_inputs(seed)
    assert W.cli_inputs(seed) != W.cli_inputs(seed + 1)


@pytest.mark.parametrize("seed", range(1, 9))
def test_estimate_graphs_are_connected_regular_and_sized(seed):
    jobs = W.estimate_inputs(seed)
    assert len(jobs) == len(W.ESTIMATE_SLOTS)
    for job, (label, n, degree, M) in zip(jobs, W.ESTIMATE_SLOTS):
        spec = job.spec
        assert (job.label, spec.n, job.M) == (label, n, M)
        assert set(spec.degrees) == {degree} and degree % 2 == 0
        assert len(set(spec.edges)) == len(spec.edges) == n * degree // 2
        assert connected(spec)


@pytest.mark.parametrize("seed", range(1, 9))
def test_cli_stream_inputs_are_valid(seed):
    ops = W.cli_inputs(seed)
    assert len(ops) == 20
    assert sum(op.expect_code != 0 for op in ops) == 1
    for op in ops:
        g = op.params.get("graph")
        if g is not None:
            assert connected(g) and all(d % 2 == 0 for d in g.degrees)
            assert all(0 <= u < v < g.n for u, v in g.edges)
        if op.kind == "eo":
            assert len(g.edges) <= 36
        if op.kind == "rt":
            assert op.params["n"] % 2 == 1 and op.params["n"] <= 15
        if op.kind == "expand":
            assert op.params["order"] <= 6
        if op.kind == "taillab":
            inst = json.loads(next(iter(op.files.values())))
            sizes = [len(a) for a in inst["alphabets"]]
            assert len(inst["f"]) == prod(sizes)
            assert all(sum(Fraction(w) for w in ws) == 1 for ws in inst["weights"])


def test_tail_instances_have_alpha_below_the_theorem_threshold():
    import random
    from eocount.taillab import alpha, instance_from_json
    rng = random.Random(5)
    for n, threes in ((8, 8), (8, 4), (6, 2), (3, 1)):
        space, table = instance_from_json(W.tail_instance(rng, n, threes))
        assert alpha(space, table, 3) < Fraction(1, 200)


# ---------------------------------------------------------------------------
# tracing


def test_self_time_on_a_synthetic_span_tree():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("b", 5.0, 6.0, 0),
             ("c", 2.0, 3.0, 1),
             ("d", 2.5, 3.5, 1)]      # overlaps c: the union 2..3.5 is covered
    assert self_times(spans) == [6.0, 1.5, 1.0, 1.0, 1.0]
    s = summarize(spans + [("b", 7.0, 8.5, 0)])
    assert s["b"] == {"total": 2.5, "self": 2.5, "calls": 2}
    assert s["root"]["self"] == 4.5


def test_wrappers_record_nested_spans_and_counters():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1,
                        lambda args, kwargs, result: {"work": result})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(2) == 6
    spans = tracer.spans()
    assert [(name, parent) for name, _s, _e, parent in spans] == [("outer", -1), ("inner", 0)]
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]
    assert tracer.counters == {"work": 3}


def test_wrapped_exception_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    (name, start, end, parent), = tracer.spans()
    assert end >= start and parent == -1 and tracer._open == []


def test_install_wraps_the_names_callers_look_up():
    import eocount.cli
    import eocount.expansion
    originals = {(m, a): getattr(sys.modules[m], a)
                 for m, a, _s, _c in BOUNDARIES}
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        res = eocount.expansion.expansion_series("RT", 3)
        names = {name for name, *_ in tracer.spans()}
        assert {"expansion.expansion_series", "expansion.f_as_mu_polynomial",
                "powersums.mu_moment_dict",
                "cumulants.moments_to_cumulants"} <= names
        assert checks.check_series(res.coeffs, "RT", 3, GOLDEN) == []
        assert tracer.dump()["distinct_monomials"] > 0
    finally:
        for (m, a), fn in originals.items():
            setattr(sys.modules[m], a, fn)
    assert eocount.cli.eo_estimate is originals[("eocount.cli", "eo_estimate")]


# ---------------------------------------------------------------------------
# checkers


def test_series_checker_rejects_a_coefficient_off_by_a_thousandth():
    good = {p: c for p, c in enumerate(GOLDEN.ED_SERIES[:10])}
    assert checks.check_series(good, "ED", 10, GOLDEN) == []
    bad = dict(good)
    bad[7] += Fraction(1, 1000)
    assert checks.check_series(bad, "ED", 10, GOLDEN)
    assert checks.check_series({**good, 10: Fraction(1)}, "ED", 10, GOLDEN)


@pytest.mark.parametrize("order", [W.SERIES_ORDER, 10])
def test_rt_eval_checker_accepts_the_golden_value_and_rejects_a_shift(order):
    good = checks.expected_log_value("RT", order, 37, GOLDEN)
    assert checks.check_rt_eval(good, order, 37, GOLDEN) == []
    assert checks.check_rt_eval(good * (1 + 1e-20), order, 37, GOLDEN)


def test_estimate_checker_uses_bounds_and_references():
    g = W.complete(9)
    lower, B = checks.sandwich(g)
    assert lower == Fraction(70**9, 2**36) and B == 70**9
    assert checks.check_estimate(g, "15.2", None) == []
    assert checks.check_estimate(g, "25", None)          # above log sqrt(B)
    assert checks.check_estimate(g, "15.2", {"K9 M=2": "15.2"}) == []
    assert checks.check_estimate(g, "15.2", {"K9 M=2": "15.2000000000000000000000000001"})
    assert checks.check_estimate(g, "15.2", {"K9 M=1": "15.2"})   # default seed, no reference
    assert checks.check_estimate(g, "15.2", {"K9 M=1": "15.2"}, key="K9 M=1") == []


def test_graph_recomputations_match_known_values():
    assert checks.spanning_trees(W.complete(5)) == 125
    assert checks.cheeger(W.complete(6)) == 3
    assert checks.cheeger(W.circulant(8, [1])) == Fraction(1, 2)


def _envelope(result):
    return json.dumps({"command": "x", "inputs": {}, "result": result,
                       "timing_ms": 1.0, "precision": {"bits": None}})


def test_cli_checker_needs_the_exit_code_and_exactly_one_json_line():
    op = W.CliOp("rt", ["exact", "rt", "--n", "7"], params={"n": 7})
    good = _envelope({"value": "2640", "method": "dp"})
    assert checks.check_cli_op(op, 0, good + "\n", "", GOLDEN, None) == []
    assert checks.check_cli_op(op, 2, good, "", GOLDEN, None)
    assert checks.check_cli_op(op, 0, good + "\n" + good, "", GOLDEN, None)
    assert checks.check_cli_op(op, 0, "{not json", "", GOLDEN, None)
    assert checks.check_cli_op(op, 0, _envelope({"value": "2641"}), "", GOLDEN, None)
    assert checks.check_cli_op(op, 0, _envelope({}), "", GOLDEN, None)

    reject = W.CliOp("reject", ["exact", "rt", "--n", "23"], 3)
    err = json.dumps({"error": "cap", "kind": "size-limit", "code": 3})
    assert checks.check_cli_op(reject, 3, "", err, GOLDEN, None) == []
    assert checks.check_cli_op(reject, 2, "", err, GOLDEN, None)
    assert checks.check_cli_op(reject, 3, "", "Traceback ...\n" + err, GOLDEN, None)


def test_cli_checker_rejects_a_failed_tail_report():
    op = W.CliOp("taillab", [], params={"n": 3, "m": 2})
    res = {"holds": True, "n": 3, "m": 2, "kappas": ["0", "0"]}
    assert checks.check_cli_op(op, 0, _envelope(res), "", GOLDEN, None) == []
    res["holds"] = False
    assert checks.check_cli_op(op, 0, _envelope(res), "", GOLDEN, None)


def test_cli_expand_checker_compares_with_its_own_evaluation():
    op = W.CliOp("expand", [], params={"family": "EOG", "order": 4, "n": 11})
    value = checks.expected_log_value("EOG", 4, 11, GOLDEN)
    res = {"family": "EOG", "order": 4,
           "coeffs": {str(p): str(c) for p, c in enumerate(GOLDEN.EOG_SERIES[:4])},
           "eval": {"n": 11, "log_value": mpmath.nstr(value, 40)}}
    assert checks.check_cli_op(op, 0, _envelope(res), "", GOLDEN, None) == []
    res["eval"]["log_value"] = mpmath.nstr(value + mpmath.mpf("1e-25"), 40)
    assert checks.check_cli_op(op, 0, _envelope(res), "", GOLDEN, None)


# ---------------------------------------------------------------------------
# the contract file


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run.SPAN_TOTALS) | set(run.SPAN_SELF) | set(run.SPAN_CALLS) <= \
        {name for name, _unit in run.PER_LAYER}


def test_refs_cover_every_default_seed_estimate():
    from freeze_refs import default_seed_jobs
    refs = checks.load_refs(HERE / "refs.json")
    assert set(default_seed_jobs()) <= set(refs)


# ---------------------------------------------------------------------------
# aggregation


def test_passes_are_fixed_by_seconds_not_by_the_clock():
    assert W.reps_for("cli", 1) == W.MIN_REPS
    assert W.reps_for("series", 30) == round(30 / W.PASS_S["series"])
    assert W.reps_for("estimate", 60) > W.reps_for("estimate", 30)


def test_pass_time_sums_per_op_medians_at_the_nominal_speed():
    nominal = run.REF_NOMINAL_S
    out = run.Outcome()
    for a, b, ref in ((1.0, 0.5, nominal), (3.0, 1.4, 2 * nominal), (2.0, 0.6, nominal)):
        one = run.Outcome()                          # one pass of ops a and b
        one.record("a", a, ref)
        one.record("b", b, ref)
        one.close_pass()
        out.merge(one.to_json())
    out.judge("b", ["wrong"])
    out.setup_s = [0.25, 0.2, 9.0]
    out.peak_rss_mib = 3.0
    m = run.end_to_end(out)
    # the second pass ran twice as slow: a = [1, 1.5, 2], b = [0.5, 0.7, 0.6]
    assert m["pass_s"]["value"] == pytest.approx(1.5 + 0.6)
    assert m["op_p50_ms"]["value"] == pytest.approx(1000 * (1.5 + 0.6) / 2)
    assert m["setup_s"]["value"] == pytest.approx(0.25)   # median reference: nominal
    assert m["peak_rss_mib"]["value"] == 3.0
    assert run.pass_s(out.samples) == 2.0 + 0.6             # raw
    assert (out.attempted, out.failed) == (1, 1)
    assert out.wall_s == pytest.approx(1 + 3 + 2 + .5 + 1.4 + .6)


def test_reference_work_is_fixed():
    assert run.reference_work() == run.reference_work()
    assert run.time_reference() > 0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([0.1] * 10) == {}
    assert set(run.tail_percentile([0.1] * 40)) == {"op_p75_ms"}
    samples = [i / 1000 for i in range(1, 201)]
    assert run.tail_percentile(samples) == {"op_p90_ms": 180.0}
