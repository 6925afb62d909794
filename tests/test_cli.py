import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eocount
from eocount.cli import build_parser, main
from eocount.estimator import KAPPA2_MAX_EDGE_PAIRS
from eocount.expansion import require_eval_point
from eocount.graphs import DENSE_MAX_N, circulant_graph, complete_graph, cycle_graph
from eocount.numeric import DEFAULT_BITS
from eocount.taillab import (TAIL_MAX_M, DiscreteProductSpace, alpha,
                             exact_cumulants_discrete)

from helpers import graph_to_json, instance_to_json, tabulate, uniform_bits


def write_edges(path, g):
    lines = [str(g.n)] + [f"{u + 1} {v + 1}" for u, v in sorted(g.edges)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_quad5(directory):
    """quad5.json: five fair bits, f = the sum of x_i x_j over i < j, / 400."""
    space = uniform_bits(5)
    tab = tabulate(space, lambda *xs: Fraction(1, 400) * sum(
        xs[i] * xs[j] for i in range(5) for j in range(i + 1, 5)))
    path = directory / "quad5.json"
    path.write_text(json.dumps(instance_to_json(space, tab)))
    return path


@pytest.fixture
def k5_file(tmp_path):
    return write_edges(tmp_path / "k5.edges", complete_graph(5))


@pytest.fixture
def c5_json_file(tmp_path):
    p = tmp_path / "c5.json"
    p.write_text(json.dumps(graph_to_json(cycle_graph(5))))
    return str(p)


def fail_if_called(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} reached before the precondition check")
    return fail


def assert_one_error_line(captured, kind):
    assert not captured.out.strip()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["kind"] == kind
    assert err["code"] == {"usage": 2, "domain": 2, "size-limit": 3}[kind]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def fresh_python(args, cwd=None, **env):
    """Run the interpreter on args in a new process that imports this
    checkout's package."""
    src = os.path.dirname(os.path.dirname(eocount.__file__))
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, timeout=60, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src, **env))


def test_exact_rt(capsys):
    code, env = run_json(capsys, ["exact", "rt", "--n", "7"])
    assert code == 0
    assert env["result"]["value"] == "2640"
    assert env["command"] == "exact"
    assert env["inputs"] == {"subject": "rt", "n": 7}


def test_exact_eo_from_file(capsys, k5_file):
    code, env = run_json(capsys, ["exact", "eo", "--graph", k5_file])
    assert code == 0
    assert env["result"]["value"] == "24"


def test_exact_method_labels(capsys, k5_file):
    methods = {}
    for subject, flag, arg in (("rt", "--n", "5"), ("eo", "--graph", k5_file),
                               ("ed", "--n", "3"), ("eog", "--n", "3")):
        code, env = run_json(capsys, ["exact", subject, flag, arg])
        assert code == 0
        methods[subject] = env["result"]["method"]
    assert methods == {"rt": "dp", "eo": "transfer", "ed": "dp", "eog": "dp"}


def test_parity_error_exit_code(capsys):
    code = main(["exact", "rt", "--n", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["kind"] == "domain"


def test_size_cap_exit_code(capsys):
    code = main(["exact", "rt", "--n", "25"])
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err)["kind"] == "size-limit"


def test_missing_file_exit_code(capsys):
    code = main(["graphinfo", "--graph", "/nonexistent/file.edges"])
    err = capsys.readouterr().err
    assert code == 4
    assert json.loads(err)["kind"] == "io"


def test_graphinfo(capsys, c5_json_file):
    code, env = run_json(capsys, ["graphinfo", "--graph", c5_json_file])
    assert code == 0
    res = env["result"]
    assert res["tau"] == "5" and res["tau_skipped"] is None
    assert res["all_degrees_even"] is True
    assert Fraction(res["cheeger"]) == Fraction(2, 2)
    assert res["cheeger_skipped"] is None


def test_bounds(capsys, k5_file):
    code, env = run_json(capsys, ["bounds", "--graph", k5_file])
    assert code == 0
    res = env["result"]
    assert Fraction(res["lower"]) <= 24
    assert 24 * 24 <= int(res["upper_squared"])
    assert Fraction(res["pauling"]) == Fraction(res["lower"])
    assert env["inputs"] == {"graph": k5_file}
    assert env["precision"]["bits"] == DEFAULT_BITS


def test_bounds_compute_b_once(capsys, k5_file, monkeypatch):
    # B = prod C(d_i, d_i/2) feeds the digit check and then the lower
    # bound; on C_10^6(1,2) it takes about a tenth of the command
    calls = []

    def counted(g, inner=eocount.estimator.schrijver_upper_squared):
        calls.append(g)
        return inner(g)

    for module in ("cli", "estimator"):
        monkeypatch.setattr(f"eocount.{module}.schrijver_upper_squared", counted)
    code, env = run_json(capsys, ["bounds", "--graph", k5_file])
    assert code == 0 and env["result"]["upper_squared"] == str(6**5)
    assert len(calls) == 1


def test_expand_with_eval(capsys):
    code, env = run_json(capsys, ["expand", "rt", "--order", "3",
                                  "--eval", "21"])
    assert code == 0
    res = env["result"]
    assert res["coeffs"] == {"0": "-1/2", "1": "1/4", "2": "1/4"}
    assert env["inputs"] == {"family": "rt", "order": 3, "eval": 21}
    assert env["precision"]["bits"] == DEFAULT_BITS == 256
    assert "log_ratio_to_exact" in res["eval"]
    assert abs(float(res["eval"]["log_ratio_to_exact"])) < 1e-3


def test_estimate(capsys, k5_file):
    code, env = run_json(capsys, ["estimate", "--graph", k5_file,
                                  "--M", "1", "--K", "2"])
    assert code == 0
    assert env["inputs"] == {"graph": k5_file, "M": 1, "K": 2, "w": None}
    assert env["precision"]["bits"] == DEFAULT_BITS
    res = env["result"]
    assert res["in_hypothesis"] is True
    assert "1" in res["log_corrected"]


def test_taillab_command(capsys, tmp_path):
    inst = write_quad5(tmp_path)
    code, env = run_json(capsys, ["taillab", "--instance", str(inst), "--m", "2"])
    assert code == 0
    assert env["result"]["holds"] is True
    assert env["result"]["delta_holds"] is True


def test_taillab_large_entries_stay_exact(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps(instance_to_json(
        uniform_bits(2),
        [2**62, -2**62, -2**62, 2**62])))
    # alpha = 2^64 is exact, and delta_bound = e^((100 alpha)^3) - 1, whose
    # decimal exponent has 64 digits, is refused before the cumulants
    assert alpha(uniform_bits(2), (2**62, -2**62, -2**62, 2**62), 2) == 2**64
    assert main(["taillab", "--instance", str(big), "--m", "2"]) == 3
    assert_one_error_line(capsys.readouterr(), "size-limit")
    near = tmp_path / "near.json"
    near.write_text(json.dumps(instance_to_json(
        uniform_bits(2), [2**62, 2**62 + 1, 2**62 + 1, 2**62])))
    code, env = run_json(capsys, ["taillab", "--instance", str(near), "--m", "2"])
    assert code == 0 and env["result"]["kappas"] == [str(2**62 + Fraction(1, 2)), "1/4"]
    three = uniform_bits(3)
    table = [Fraction(1, p) for p in (999983, 999979, 999961, 999959,
                                      999953, 999931, 999917, 999907)]
    inv = tmp_path / "inverse_primes.json"
    inv.write_text(json.dumps(instance_to_json(three, table)))
    code, env = run_json(capsys, ["taillab", "--instance", str(inv), "--m", "2"])
    assert code == 0
    assert env["result"]["kappas"] == [str(k) for k in
                                       exact_cumulants_discrete(three, table, 2)]


def test_taillab_huge_values_one_apart(capsys, tmp_path):
    # two 3001-digit values 1 apart: alpha = 1, so delta_bound = e^(100^101)
    # - 1 has a 202-digit decimal exponent and is refused at once
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(instance_to_json(
        uniform_bits(1), [10**3000, 10**3000 + 1])))
    t0 = time.perf_counter()
    assert main(["taillab", "--instance", str(huge), "--m", "100"]) == 3
    assert time.perf_counter() - t0 < 2.0
    assert_one_error_line(capsys.readouterr(), "size-limit")
    # 1/100 apart, alpha = 1/100: the moments and exps are taken of the table
    # minus its smallest value, so nothing 3001 digits long is raised to the
    # 100th power or exponentiated
    huge.write_text(json.dumps(instance_to_json(
        uniform_bits(1), [10**3000, 10**3000 + Fraction(1, 100)])))
    t0 = time.perf_counter()
    code, env = run_json(capsys, ["taillab", "--instance", str(huge), "--m", "100"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    res = env["result"]
    assert res["kappas"][:2] == [str(10**3000 + Fraction(1, 200)), "1/40000"]
    assert res["kappa_holds"][0] is False and res["holds"] is False


MALFORMED_GRAPHS = {
    "count.edges": "abc\n1 2\n",
    "label.edges": "3\n1 x\n",
    "repeated.edges": "3\n1 2\n1 2\n2 3\n1 3\n",
    "reversed.edges": "3\n1 2\n2 1\n2 3\n1 3\n",
    "no_edges.json": '{"n": 3}',
    "no_n.json": '{"edges": [[1, 2]]}',
    "label.json": '{"n": 3, "edges": [[1, "x"]]}',
    "float_label.json": '{"n": 3, "edges": [[1, 2.5]]}',
    "string_label.json": '{"n": "3", "edges": [["1", "2"]]}',
    "repeated.json": '{"n": 3, "edges": [[1, 2], [2, 3], [3, 1], [2, 1]]}',
    "triple.json": '{"n": 3, "edges": [[1, 2, 3]]}',
    "truncated.json": '{"n": 3, "edges": [[1,',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_file_is_one_json_line(capsys, tmp_path, name):
    p = tmp_path / name
    p.write_text(MALFORMED_GRAPHS[name])
    for argv in (["exact", "eo"], ["graphinfo"]):
        assert main(argv + ["--graph", str(p)]) == 2
        assert_one_error_line(capsys.readouterr(), "domain")


def test_huge_vertex_count_is_rejected_before_any_graph(capsys, tmp_path,
                                                       monkeypatch):
    # files build their Graph directly, and read no edge before the cap: the
    # edge [1, "x"] would be a domain error
    monkeypatch.setattr("eocount.graphs.Graph", fail_if_called("the graph"))
    files = {"huge.edges": "10000000000\n1 x\n",
             "huge.json": '{"n": 10000000000, "edges": [[1, "x"]]}'}
    for name, text in files.items():
        p = tmp_path / name
        p.write_text(text)
        for argv in (["graphinfo"], ["bounds"], ["exact", "eo"]):
            assert main(argv + ["--graph", str(p)]) == 3
            assert_one_error_line(capsys.readouterr(), "size-limit")


def test_exact_eo_stops_reading_at_the_first_edge_past_the_cap(
        capsys, tmp_path, monkeypatch):
    # C_41 has one edge more than exact.EO_MAX_EDGES = 40; the garbled line
    # after it would be a domain error if it were read
    over = cycle_graph(41)
    plain = write_edges(tmp_path / "c41.edges", over)
    code, env = run_json(capsys, ["graphinfo", "--graph", plain])
    assert code == 0 and env["result"]["edges"] == 41
    garbled = tmp_path / "garbled.edges"
    garbled.write_text((tmp_path / "c41.edges").read_text() + "1 x\n")
    as_json = tmp_path / "garbled.json"
    as_json.write_text(json.dumps(
        {"n": 41, "edges": graph_to_json(over)["edges"] + [[1, "x"]]}))
    from eocount.graphs import Graph

    def refused(*args):
        # Graph reads and checks the pairs, so it is called; it must refuse
        Graph(*args)
        raise AssertionError("a graph was built past the edge cap")

    monkeypatch.setattr("eocount.graphs.Graph", refused)
    for path in (garbled, as_json):
        assert main(["exact", "eo", "--graph", str(path)]) == 3
        assert_one_error_line(capsys.readouterr(), "size-limit")


def test_estimate_stops_reading_at_the_first_edge_past_the_caps(
        capsys, tmp_path, monkeypatch):
    # C_10^6 is past every cap; the whole file was read (1.6 s, 210 MiB)
    # before its refusal.  No graph of more edges is estimated at M = 2, nor
    # one of more than DENSE_MAX_N vertices at any M.
    from eocount import graphs
    n = 10**6
    p = tmp_path / "c1000000.edges"
    p.write_text(f"{n}\n" + "".join(f"{i} {i % n + 1}\n" for i in range(1, n + 1)))
    ints, drawn = graphs._ints, []

    def counting(tokens):
        drawn.append(len(tokens))
        return ints(tokens)

    monkeypatch.setattr(graphs, "_ints", counting)
    for M, cap in ((2, isqrt(KAPPA2_MAX_EDGE_PAIRS)), (1, comb(DENSE_MAX_N, 2)),
                   (0, comb(DENSE_MAX_N, 2))):
        drawn.clear()
        assert main(["estimate", "--graph", str(p), "--M", str(M)]) == 3
        assert_one_error_line(capsys.readouterr(), "size-limit")
        # the vertex count's line, then exactly cap + 1 pairs
        assert drawn == [1] + [2] * (cap + 1), (M, len(drawn))


def test_undecodable_file_is_one_json_line(capsys, tmp_path):
    p = tmp_path / "binary.edges"
    p.write_bytes(b"\xff\xfe\x00")
    assert main(["graphinfo", "--graph", str(p)]) == 2
    assert_one_error_line(capsys.readouterr(), "domain")


def test_malformed_instance_is_one_json_line(capsys, tmp_path):
    good = instance_to_json(uniform_bits(1), [0, 1])
    bad = [{k: v for k, v in good.items() if k != key}
           for key in ("alphabets", "weights", "f")]
    bad += [dict(good, f=["0", "x"]), dict(good, weights=[["1/2", "1/0"]]),
            dict(good, f=[False, True]),
            dict(good, alphabets=[[0]], weights=[[True]], f=[0])]
    for text in [json.dumps(obj) for obj in bad] + ['{"alphabets": [']:
        p = tmp_path / "inst.json"
        p.write_text(text)
        assert main(["taillab", "--instance", str(p), "--m", "1"]) == 2
        assert_one_error_line(capsys.readouterr(), "domain")


def test_taillab_instance_without_coordinates_is_refused(capsys, tmp_path):
    # it printed "delta": "+inf" and "holds": false, and exited 0
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"alphabets": [], "weights": [], "f": [5]}))
    assert main(["taillab", "--instance", str(p), "--m", "1"]) == 2
    assert_one_error_line(capsys.readouterr(), "domain")


def test_taillab_work_cap_is_checked_before_the_table(capsys, tmp_path):
    # 19 fair bits fit the space cap, but alpha at m = 3 would read about
    # 1.8e8 table entries; the table's "x" would be a domain error if it
    # were parsed
    inst = tmp_path / "bits19.json"
    inst.write_text(json.dumps(instance_to_json(
        uniform_bits(19), ["x"] + [0] * (2**19 - 1))))
    assert main(["taillab", "--instance", str(inst), "--m", "3"]) == 3
    assert_one_error_line(capsys.readouterr(), "size-limit")


def test_taillab_m_cap_is_checked_before_the_table(capsys, tmp_path):
    space = DiscreteProductSpace([[0, 1]], [["1/3", "2/3"]])
    poisoned = tmp_path / "poisoned.json"  # "x" is a domain error if parsed
    poisoned.write_text(json.dumps(instance_to_json(space, ["0", "x"])))
    for m in (TAIL_MAX_M + 1, 1000):
        assert main(["taillab", "--instance", str(poisoned), "--m", str(m)]) == 3
        assert_one_error_line(capsys.readouterr(), "size-limit")
    inst = tmp_path / "one.json"
    inst.write_text(json.dumps(instance_to_json(space, ["0", "1/1000"])))
    code, env = run_json(capsys, ["taillab", "--instance", str(inst),
                                  "--m", str(TAIL_MAX_M)])
    assert code == 0 and len(env["result"]["kappas"]) == TAIL_MAX_M


def test_taillab_report_digit_cap(capsys, tmp_path):
    # alpha = 10^-60: (80 alpha)^100 has about 5900 digits in its denominator
    inst = tmp_path / "tiny.json"
    inst.write_text(json.dumps(instance_to_json(
        uniform_bits(1), ["0", f"1/{10**60}"])))
    assert main(["taillab", "--instance", str(inst), "--m", "100"]) == 3
    assert_one_error_line(capsys.readouterr(), "size-limit")
    code, env = run_json(capsys, ["taillab", "--instance", str(inst),
                                  "--m", "20"])
    assert code == 0 and len(env["result"]["kappa_bounds"]) == 20


def test_taillab_digit_cap_comes_before_the_cumulants(capsys, tmp_path,
                                                      monkeypatch):
    # alpha = 10^3000 prints, but the kappa bound at r = 2 has about 6000
    # digits: refused there, before the cumulants and the interval exps,
    # which took 78 s on this instance
    inst = tmp_path / "huge.json"
    inst.write_text(json.dumps(instance_to_json(
        uniform_bits(1), ["0", "1e3000"])))
    for name in ("exact_cumulants_discrete", "_distribution"):
        monkeypatch.setattr(f"eocount.taillab.{name}",
                            fail_if_called("the cumulants"))
    t0 = time.perf_counter()
    assert main(["taillab", "--instance", str(inst), "--m", "100"]) == 3
    assert time.perf_counter() - t0 < 2
    assert_one_error_line(capsys.readouterr(), "size-limit")


def test_printed_numbers_are_checked_before_conversion(capsys, tmp_path):
    c3 = write_edges(tmp_path / "c3.edges", cycle_graph(3))
    # delta_bound = e^(10^504) - 1 has a 504-digit decimal exponent
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(instance_to_json(
        uniform_bits(1), ["0", "1e250"])))
    # a label is never printed, but Fraction would build 10^4001 from it
    label = tmp_path / "label.json"
    label.write_text(json.dumps({"alphabets": [["1e4001", "1"]],
                                 "weights": [["1/2", "1/2"]], "f": ["0", "1"]}))
    for argv in (["estimate", "--graph", c3, "--w", str(10**4100)],
                 # the value is about e^(10^519)
                 ["expand", "rt", "--order", "2", "--eval", str(10**260 + 1)],
                 ["taillab", "--instance", str(huge), "--m", "1"],
                 ["taillab", "--instance", str(label), "--m", "1"]):
        assert main(argv) == 3, argv[:3]
        assert_one_error_line(capsys.readouterr(), "size-limit")


def test_float_exponents_stop_at_eighteen_digits(capsys):
    # at n = 2500000001 the RT value's decimal exponent has 18 digits and
    # prints; the ED value's has 19 and is refused
    code, env = run_json(capsys, ["expand", "rt", "--order", "2", "--eval", "2500000001"])
    assert code == 0
    assert env["result"]["eval"]["value"].endswith("e+940718724833653876")
    assert main(["expand", "ed", "--order", "2", "--eval", "2500000001"]) == 3
    assert_one_error_line(capsys.readouterr(), "size-limit")


def test_eval_exponent_cap_checked_before_the_series(capsys, monkeypatch):
    # 1% past the cap the value is refused from n, |E| and q before the
    # series is built; nearer it (ED first passes at n = 1822615738) the
    # exp of the log value decides
    with monkeypatch.context() as patch:
        patch.setattr("eocount.expansion.expansion_series", fail_if_called("the series"))
        for family, n in (("ed", 2500000001), ("eog", 1000000000001)):
            assert main(["expand", family, "--order", "12", "--eval", str(n)]) == 3
            assert_one_error_line(capsys.readouterr(), "size-limit")
    require_eval_point("ED", 1825000000)
    assert main(["expand", "ed", "--order", "2", "--eval", "1825000000"]) == 3
    assert_one_error_line(capsys.readouterr(), "size-limit")


def test_estimate_w_digit_cap_checked_before_the_graph(capsys, tmp_path, monkeypatch,
                                                       k5_file):
    # the report prints w exactly: 1e-4000 has a 4001-digit denominator, and
    # it is refused before the graph is read or the estimate runs; so are an
    # M out of 0..2 and a K out of 2..64 at M >= 1, which need no graph
    c3 = write_edges(tmp_path / "c3.edges", cycle_graph(3))
    monkeypatch.setattr("eocount.cli.load_graph", fail_if_called("the graph"))
    monkeypatch.setattr("eocount.cli.eo_estimate", fail_if_called("the estimate"))
    cases = [([c3, "--M", "2", "--w", w], 3, "size-limit")
             for w in ("1e-4000", str(10**4100))] + [
        ([k5_file, "--M", "3"], 2, "domain"), ([k5_file, "--K", "1"], 2, "domain"),
        ([k5_file, "--K", "65"], 3, "size-limit")]
    for argv, code, kind in cases:
        assert main(["estimate", "--graph", *argv]) == code, argv
        assert_one_error_line(capsys.readouterr(), kind)


def test_bounds_digit_cap_on_a_large_cycle(capsys, tmp_path, monkeypatch):
    # C_20000 is a legal graph file, but upper_squared = 2^20000 has 6021
    # digits, past CPython's 4300-digit limit on int -> str
    c20000 = write_edges(tmp_path / "c20000.edges", cycle_graph(20000))
    with monkeypatch.context() as patch:
        patch.setattr("eocount.cli.schrijver_lower",
                      fail_if_called("the lower bound"))
        assert main(["bounds", "--graph", c20000]) == 3
        assert_one_error_line(capsys.readouterr(), "size-limit")
    # 2^13000 has 3914 digits, inside the cap
    c13000 = write_edges(tmp_path / "c13000.edges", cycle_graph(13000))
    code, env = run_json(capsys, ["bounds", "--graph", c13000])
    assert code == 0 and env["result"]["upper_squared"] == str(2**13000)
    assert env["result"]["lower"] == "1"


def test_cli_import_leaves_numpy_out(tmp_path):
    """One fresh interpreter runs every command once: none loads numpy, or
    dataclasses and the inspect module it imports, which cost every process
    their import time."""
    k5 = write_edges(tmp_path / "k5.edges", complete_graph(5))
    runs = [["exact", "rt", "--n", "7"], ["exact", "eo", "--graph", k5],
            ["expand", "rt", "--order", "3", "--eval", "21"],
            ["estimate", "--graph", k5], ["bounds", "--graph", k5],
            ["graphinfo", "--graph", k5],
            ["taillab", "--instance", str(write_quad5(tmp_path)), "--m", "2"]]
    script = ("import io, json, sys\n"
              "from eocount.cli import main\n"
              "out, sys.stdout = sys.stdout, io.StringIO()\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "loaded = [m for m in ('numpy', 'dataclasses', 'inspect')\n"
              "          if m in sys.modules]\n"
              "out.write(json.dumps([codes, loaded]))\n")
    proc = fresh_python(["-c", script, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(runs), []]


def test_closed_stdout_is_an_io_error():
    """A reader that closed the pipe gets exit 4 and one JSON line on stderr,
    not a traceback from the print or from the interpreter's last flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(eocount.__file__))
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "eocount.cli", "exact", "rt", "--n", "7"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 4
    assert [json.loads(line)["kind"] for line in err.splitlines()] == ["io"]


def run_fresh(argv, cwd):
    """(exit code, stdout, whether mpmath was loaded) of main(argv) in a new
    interpreter; an empty argv only imports the CLI."""
    script = ("import json, sys\n"
              "from eocount.cli import main\n"
              "argv = json.loads(sys.argv[1])\n"
              "code = main(argv) if argv else 0\n"
              "sys.stderr.write('\\n' + json.dumps('mpmath' in sys.modules))\n"
              "sys.exit(code)\n")
    proc = fresh_python(["-c", script, json.dumps(argv)], cwd=cwd)
    loaded = json.loads(proc.stderr.splitlines()[-1])
    return proc.returncode, proc.stdout, loaded


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["exact", "rt", "--n", "7"], 0),
    (["graphinfo", "--graph", "k5.edges"], 0),
    (["estimate", "--graph", "p4.edges"], 2),   # odd degrees
    (["expand", "rt", "--order", "3"], 0),
], ids=["import", "exact", "graphinfo", "estimate-rejected", "expand-series"])
def test_commands_without_numeric_work_leave_mpmath_out(tmp_path, argv, code):
    write_edges(tmp_path / "k5.edges", complete_graph(5))
    (tmp_path / "p4.edges").write_text("4\n1 2\n2 3\n3 4\n")
    got, _out, loaded = run_fresh(argv, tmp_path)
    assert got == code and loaded is False


# each command's result as printed when every module imported mpmath at load
# time (the estimate's within_sandwich aside); a fresh process, which now
# computes and prints on the standard library's decimal, must print the same
NUMERIC_RESULTS = [
    pytest.param(["estimate", "--graph", "k9.edges"], {
        "cheeger": "5", "cheeger_over_max_degree": "5/8",
        "cheeger_skipped": None,
        "corrected": {"1": "2726050.26084156591643104740331",
                      "2": "4082290.60467482444891171182719"},
        "edges": 36, "eo_hat": "2940768.96643051037085952278484",
        "graph": "k9.edges", "in_hypothesis": True,
        "kappa": {"1": "-0.638317329675354366712391403749",
                  "2": "0.807608965815803451589926476132"},
        "log_corrected": {"1": "14.8183643286480894736364673907",
                          "2": "15.2221688115559911994314306288"},
        "log_eo_hat": "14.8941816583234438403488587945", "n": 9,
        "pauling": "587222.268222831189632415771484", "precision_bits": 256,
        "schrijver_lower": "587222.268222831189632415771484",
        "schrijver_upper": "200882072.370831539069559103391",
        "sigma_norm_inf": "0.148919753086419753086419753086", "w": "16/9",
        "within_sandwich": {"0": True, "1": True, "2": True}}, id="estimate"),
    pytest.param(["bounds", "--graph", "k9.edges"], {
        "lower": "78815638671875/134217728",
        "lower_decimal": "587222.268222831189632415771484",
        "pauling": "78815638671875/134217728",
        "upper_decimal": "200882072.370831539069559103391",
        "upper_squared": "40353607000000000"}, id="bounds"),
    pytest.param(["expand", "rt", "--order", "7", "--eval", "37"], {
        "coeffs": {"0": "-1/2", "1": "1/4", "2": "1/4", "3": "7/24",
                   "4": "37/120", "5": "31/60", "6": "81/28"},
        "eval": {"log_ratio_to_exact": "2.192535925e-10",
                 "log_value": "389.8234153894721676013023509562487710977",
                 "n": 37,
                 "value": "1.986818614868179024615680579658942792472e+169"},
        "family": "RT", "order": 7,
        "prefactor": "n^(1/2) * (2^(n+1)/(pi n))^((n-1)/2)"}, id="expand"),
    pytest.param(["taillab", "--instance", "quad5.json", "--m", "2"], {
        "alpha": "1/100", "delta": "8.31259146378989e-9",
        "delta_bound": "1.71828182845905", "delta_holds": True,
        "holds": True, "kappa_bounds": ["7/125", "14/625"],
        "kappa_holds": [True, True], "kappas": ["1/160", "9/256000"],
        "log_mgf": "0.00626761968795715", "m": 2, "n": 5}, id="taillab"),
    # the family prefactors (ED 4^n, EOG 3^(n+1)/4) and the series at n = 21
    pytest.param(["expand", "ed", "--order", "7", "--eval", "21"], {
        "coeffs": {"0": "-1/4", "1": "3/16", "2": "1/8", "3": "47/384",
                   "4": "371/1920", "5": "1807/3840", "6": "655/448"},
        "eval": {"log_value": "250.5107801785473195874805840022297713907",
                 "n": 21,
                 "value": "6.243807266536889122827379462342866167083e+108"},
        "family": "ED", "order": 7,
        "prefactor": "n^(1/2) * (4^n/(pi n))^((n-1)/2)"}, id="expand-ed"),
    pytest.param(["expand", "eog", "--order", "7", "--eval", "21"], {
        "coeffs": {"0": "-3/8", "1": "11/64", "2": "7/64", "3": "233/2048",
                   "4": "497/2560", "5": "27583/61440", "6": "55463/43008"},
        "eval": {"log_value": "187.094943826611443482729128781752390765",
                 "n": 21,
                 "value": "1.795980826390215312257155779889755964758e+81"},
        "family": "EOG", "order": 7,
        "prefactor": "n^(1/2) * (3^(n+1)/(4 pi n))^((n-1)/2)"}, id="expand-eog"),
]


@pytest.mark.parametrize("argv, result", NUMERIC_RESULTS)
def test_numeric_commands_leave_mpmath_out_and_print_the_same_result(
        tmp_path, argv, result):
    write_edges(tmp_path / "k9.edges", complete_graph(9))
    write_quad5(tmp_path)
    code, out, loaded = run_fresh(argv, tmp_path)
    assert code == 0 and loaded is False
    assert json.loads(out)["result"] == result


def test_expand_without_eval_prints_the_series_only(capsys):
    code, env = run_json(capsys, ["expand", "rt", "--order", "3"])
    assert code == 0 and env["precision"]["bits"] is None
    assert env["inputs"] == {"family": "rt", "order": 3}
    assert env["result"] == {
        "coeffs": {"0": "-1/2", "1": "1/4", "2": "1/4"}, "family": "RT",
        "order": 3, "prefactor": "n^(1/2) * (2^(n+1)/(pi n))^((n-1)/2)"}


def test_estimate_w_is_echoed_and_moves_only_sigma(capsys, tmp_path):
    k9 = write_edges(tmp_path / "k9.edges", complete_graph(9))
    _, default = run_json(capsys, ["estimate", "--graph", k9])
    code, env = run_json(capsys, ["estimate", "--graph", k9, "--w", "1"])
    res = env["result"]
    assert code == 0 and env["inputs"]["w"] == "1" and res["w"] == "1"
    assert res["log_corrected"] == default["result"]["log_corrected"]
    assert res["sigma_norm_inf"] == "0.111111111111111111111111111111"
    assert default["result"]["sigma_norm_inf"] != res["sigma_norm_inf"]


def test_estimate_prints_the_lower_bound_that_bounds_prints(tmp_path):
    # B / 2^|E| on C40(1,5,9) needs 63 bits: rounding it to 53 would print
    # 8271806125530277.0
    write_edges(tmp_path / "c40.edges", circulant_graph(40, (1, 5, 9)))
    code, out, _ = run_fresh(["bounds", "--graph", "c40.edges"], tmp_path)
    lower = json.loads(out)["result"]["lower_decimal"]
    assert code == 0 and lower == "8271806125530276.7487140869207"
    code, out, _ = run_fresh(["estimate", "--graph", "c40.edges"], tmp_path)
    res = json.loads(out)["result"]
    assert code == 0 and res["schrijver_lower"] == res["pauling"] == lower


def test_bits_default_is_not_read_from_the_environment():
    proc = fresh_python(["-m", "eocount.cli", "exact", "rt", "--n", "3"],
                        EOCOUNT_BITS="abc")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["value"] == "2"


def test_round_trip_rationals(capsys, c5_json_file):
    _, env = run_json(capsys, ["graphinfo", "--graph", c5_json_file])
    blob = json.dumps(env)
    env2 = json.loads(blob)
    assert Fraction(env2["result"]["cheeger"]) == Fraction(env["result"]["cheeger"])


def test_graphinfo_edgeless_graph(capsys, tmp_path):
    # h = 0 is computed, but h/d is 0/0 for max degree 0
    p = tmp_path / "e3.edges"
    p.write_text("3\n")
    code, env = run_json(capsys, ["graphinfo", "--graph", str(p)])
    assert code == 0
    res = env["result"]
    assert res["degrees"] == [0, 0, 0] and res["connected"] is False
    assert res["cheeger"] == "0" and res["cheeger_skipped"] is None
    assert res["cheeger_over_max_degree"] is None


def test_graphinfo_single_vertex(capsys, tmp_path):
    p = tmp_path / "k1.edges"
    p.write_text("1\n")
    code, env = run_json(capsys, ["graphinfo", "--graph", str(p)])
    assert code == 0
    res = env["result"]
    assert res["n"] == 1 and res["tau"] == "1" and res["connected"] is True
    assert res["cheeger"] is None and res["cheeger_over_max_degree"] is None
    assert "n >= 2" in res["cheeger_skipped"]


def test_graphinfo_empty_graph(capsys, tmp_path):
    # no vertices, no spanning tree: not connected, tau 0
    p = tmp_path / "k0.edges"
    p.write_text("0\n")
    code, env = run_json(capsys, ["graphinfo", "--graph", str(p)])
    assert code == 0
    res = env["result"]
    assert res["n"] == 0 and res["tau"] == "0" and res["connected"] is False
    assert res["cheeger"] is None and "n >= 2" in res["cheeger_skipped"]


def test_cheeger_skipped_above_the_size_cap(capsys, tmp_path):
    c23 = write_edges(tmp_path / "c23.edges", cycle_graph(23))
    code, env = run_json(capsys, ["graphinfo", "--graph", c23])
    res = env["result"]
    assert code == 0 and res["tau"] == "23"
    assert res["cheeger"] is None and res["cheeger_over_max_degree"] is None
    assert "capped at n=22" in res["cheeger_skipped"]
    code, env = run_json(capsys, ["estimate", "--graph", c23, "--M", "1"])
    res = env["result"]
    assert code == 0 and res["cheeger"] is None
    assert "capped at n=22" in res["cheeger_skipped"]
    c22 = write_edges(tmp_path / "c22.edges", cycle_graph(22))
    code, env = run_json(capsys, ["estimate", "--graph", c22, "--M", "0"])
    res = env["result"]
    assert code == 0 and res["cheeger"] == "2/11"
    assert res["cheeger_skipped"] is None


def test_estimate_rejects_empty_graph(capsys, tmp_path):
    p = tmp_path / "k0.edges"
    p.write_text("0\n")
    code = main(["estimate", "--graph", str(p)])
    assert code == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured, "domain")
    assert "at least 2 vertices" in json.loads(captured.err)["error"]


def test_estimate_parameters_checked_first(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("eocount.estimator.cheeger_constant",
                        fail_if_called("the Cheeger scan"))
    monkeypatch.setattr("eocount.estimator.covariance_sigma",
                        fail_if_called("Sigma"))
    c22 = write_edges(tmp_path / "c22.edges", circulant_graph(22, (1, 2)))
    code = main(["estimate", "--graph", c22, "--K", "1", "--M", "1"])
    assert code == 2
    assert_one_error_line(capsys.readouterr(), "domain")
    # K47: 1081 edges, over the kappa_2 edge-pair cap
    k47 = write_edges(tmp_path / "k47.edges", complete_graph(47))
    code = main(["estimate", "--graph", k47, "--M", "2"])
    err = json.loads(capsys.readouterr().err)
    assert code == 3 and err["kind"] == "size-limit"


def test_estimate_K_cap_checked_first(capsys, tmp_path, monkeypatch):
    from eocount import expansion
    monkeypatch.setattr("eocount.estimator.cheeger_constant",
                        fail_if_called("the Cheeger scan"))
    monkeypatch.setattr("eocount.estimator.covariance_sigma",
                        fail_if_called("Sigma"))
    c9 = write_edges(tmp_path / "c9.edges", circulant_graph(9, (1, 2)))
    code = main(["estimate", "--graph", c9, "--M", "1", "--K", "65"])
    assert code == 3
    assert_one_error_line(capsys.readouterr(), "size-limit")
    assert expansion.MAX_K == 64


def test_dense_cap_checked_before_the_laplacian(capsys, tmp_path, monkeypatch):
    # a 10^5-vertex cycle: the adjugate alone would hold 10^10 list slots;
    # the elimination's first work past the cap is the RCM order
    monkeypatch.setattr("eocount.graphs._rcm_order", fail_if_called("the RCM order"))
    n = 10**5
    p = tmp_path / "c100000.edges"
    p.write_text(f"{n}\n" + "".join(f"{i} {i % n + 1}\n" for i in range(1, n + 1)))
    code = main(["estimate", "--graph", str(p), "--M", "1"])
    assert code == 3
    assert_one_error_line(capsys.readouterr(), "size-limit")
    code, env = run_json(capsys, ["graphinfo", "--graph", str(p)])
    res = env["result"]
    assert code == 0 and res["n"] == n and res["connected"] is True
    assert res["tau"] is None and "dense" in res["tau_skipped"]


def test_eval_point_checked_before_series(capsys, monkeypatch):
    monkeypatch.setattr("eocount.expansion.expansion_series",
                        fail_if_called("the series"))
    for argv in (["expand", "ed", "--order", "3", "--eval", "0"],
                 ["expand", "eog", "--order", "3", "--eval", "-4"],
                 ["expand", "rt", "--order", "8", "--eval", "2"],
                 ["exact", "rt", "--n", "-3"],
                 ["exact", "ed", "--n", "0"]):
        code = main(argv)
        assert code == 2, argv
        assert_one_error_line(capsys.readouterr(), "domain")


def test_usage_errors_are_one_json_line(capsys):
    for argv in (["exact", "rt", "--n", "abc"],
                 ["--threads", "2", "exact", "rt", "--n", "3"],
                 ["--format", "csv", "exact", "rt", "--n", "3"],
                 ["estimate", "--graph", "g.edges", "--w", "abc"],
                 ["estimate", "--graph", "g.edges", "--w", "1/0"],
                 ["estimate", "--graph", "g.edges", "--w", "1e4001"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert_one_error_line(capsys.readouterr(), "usage")
    helps = [build_parser().format_help()]
    for argv in (["exact"], ["exact", "rt"], ["exact", "eo"], ["expand"],
                 ["estimate"], ["bounds"], ["taillab"], ["graphinfo"]):
        with pytest.raises(SystemExit):
            main(argv + ["--help"])
        helps.append(capsys.readouterr().out)
    assert all("usage:" in text for text in helps)
    assert not any("--threads" in text or "--format" in text for text in helps)


def test_dropped_and_foreign_flags_are_usage_errors(capsys, k5_file,
                                                    monkeypatch):
    # numeric work runs at the fixed DEFAULT_BITS; each exact subject takes
    # only its own flag
    monkeypatch.setattr("eocount.cli.load_graph", fail_if_called("the graph"))
    for argv in (["expand", "rt", "--order", "3", "--eval", "21",
                  "--bits", "256"],
                 ["expand", "rt", "--order", "3", "--bits", "5"],
                 ["estimate", "--graph", k5_file, "--bits", "256"],
                 ["bounds", "--graph", k5_file, "--bits", "128"],
                 ["exact", "rt", "--n", "5", "--graph", "g"],
                 ["exact", "ed", "--n", "3", "--graph", "g"],
                 ["exact", "eo", "--graph", "g", "--n", "3"],
                 ["exact", "rt"],
                 ["exact", "eog"],
                 ["exact", "eo"],
                 ["exact", "--n", "5", "rt"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert_one_error_line(capsys.readouterr(), "usage")


# every command that reads a file, with the file path last
FILE_COMMANDS = [["exact", "eo", "--graph"], ["estimate", "--graph"],
                 ["bounds", "--graph"], ["graphinfo", "--graph"],
                 ["taillab", "--m", "2", "--instance"]]
VALID_FILES = [
    "5\n1 2\n2 3\n3 4\n4 5\n5 1\n1 3\n3 5\n5 2\n2 4\n4 1\n".encode(),
    json.dumps(graph_to_json(cycle_graph(5))).encode(),
    json.dumps(instance_to_json(uniform_bits(2),
                                ["0", "1/400", "1/400", "1/200"])).encode(),
]


def garble(seed_and_edits):
    """A valid file with byte runs inserted and deleted at given places."""
    data, edits = seed_and_edits
    for pos, insert, drop in edits:
        pos %= len(data) + 1
        data = data[:pos] + insert + data[pos + drop:]
    return data


garbled_files = st.one_of(
    st.binary(max_size=200),
    st.tuples(st.sampled_from(VALID_FILES),
              st.lists(st.tuples(st.integers(0, 400), st.binary(max_size=2),
                                 st.integers(0, 3)), min_size=1, max_size=4)
              ).map(garble))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=garbled_files)
def test_garbled_files_exit_with_one_json_line(tmp_path, data):
    path = tmp_path / "garbled"
    path.write_bytes(data)
    for argv in FILE_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + [str(path)])
        assert code in (0, 2, 3, 4), (argv, data)
        shown, silent = (out, err) if code == 0 else (err, out)
        lines = shown.getvalue().splitlines()
        assert len(lines) == 1 and not silent.getvalue(), (argv, data)
        if code:
            assert json.loads(lines[0])["code"] == code
        else:
            assert json.loads(lines[0])["command"] == argv[0]
