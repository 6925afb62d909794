"""The shipped package holds no code that only the tests call.

A module-level def or class in ``src/eocount`` must be referenced somewhere
in the package outside its own body, or be exported by ``eocount.__all__``,
or be on the short allowlist below; a module's ``__getattr__``, which the
import system calls (PEP 562), is exempt.  A method must be referenced
somewhere in the package outside its own body, whether or not ``__all__``
exports its class; dunders, overrides and the conversion hook in HOOKS,
which their base class, the interpreter or another library calls, are
exempt.  A string constant counts as a reference, since the CLI looks
counters up by name.  Every def, nested ones included, reads each of its
parameters, the conversion hook in HOOKS aside.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import mpmath

import eocount
from eocount.estimator import eo_estimate
from eocount.expansion import evaluate_expansion, expansion_series
from eocount.graphs import complete_graph
from eocount.numeric import to_text

PACKAGE = Path(eocount.__file__).parent

# name -> why it stays without a caller in the package
ALLOWED = {
    "eo_hat_log": "the benchmark's tracer wraps it as a boundary",
    "exact_cumulants_discrete": "the benchmark's tracer wraps it as a boundary",
    "delta_V": "the paper's Delta_V; the lemma tests check it",
}

# method name -> the library that calls it
HOOKS = {"_mpmath_": "mpmath.mpf and mpmath's functions read a numeric.Real by it"}


def _references(tree) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def _overrides(module, cls_name: str, name: str) -> bool:
    cls = getattr(module, cls_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def unreferenced() -> list[str]:
    """module.name (or module.Class.method) of every def nothing reaches."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = sum((_references(t) for t in trees.values()), Counter())
    exported = set(eocount.__all__)
    out = []
    for stem, tree in trees.items():
        module = importlib.import_module(f"eocount.{stem}")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in exported | set(ALLOWED) | {"__getattr__"} \
                    and refs[node.name] == _references(node)[node.name]:
                out.append(f"{stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) \
                        or item.name.startswith("__") or item.name in HOOKS \
                        or _overrides(module, node.name, item.name):
                    continue
                if refs[item.name] == _references(item)[item.name]:
                    out.append(f"{stem}.{node.name}.{item.name}")
    return out


def test_every_shipped_def_has_a_caller_in_the_package():
    assert unreferenced() == []


def test_every_parameter_is_read():
    # a parameter that a def's body never reads is an input that does
    # nothing; the conversion hook in HOOKS has the signature its caller
    # passes, whatever the body needs
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef) or node.name in HOOKS:
                continue
            a = node.args
            params = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if x}
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}({name})" for name in sorted(params - read)]
    assert unread == []


def test_allowlist_names_exist_and_have_no_caller():
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    defined = {node.name for t in trees for node in t.body
               if isinstance(node, ast.FunctionDef)}
    refs = sum((_references(t) for t in trees), Counter())
    for name in ALLOWED:
        # a name that something in the package uses needs no entry
        assert name in defined and refs[name] == 0, name


def _calls(node, name: str) -> int:
    # calls of a package function, by its bare name or as an attribute
    return sum(isinstance(sub, ast.Call) and (
        isinstance(sub.func, ast.Name) and sub.func.id == name
        or isinstance(sub.func, ast.Attribute) and sub.func.attr == name)
        for sub in ast.walk(node))


def _called_from_one_def(name: str, caller: str) -> None:
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    caller_def, = [node for t in trees for node in t.body
                   if isinstance(node, ast.FunctionDef) and node.name == caller]
    assert sum(_calls(t, name) for t in trees) == _calls(caller_def, name) > 0


def test_pi_is_read_in_one_def():
    # the Gaussian term q^|E| tau^(-1/2) (2 pi b)^(-(n-1)/2) has one closed
    # form, which the series prefactor and the estimator's base both call; a
    # second copy of it would read pi again
    _called_from_one_def("pi", "log_closed_form")


def test_no_decimal_ln_runs_in_the_package():
    # every log is numeric.ln, every exp numeric.exp and every square root
    # numeric.sqrt_floor, all on ints: an attribute call named ln, exp or
    # sqrt is a Decimal's or a Context's, libmpdec's ln (60-130 us at 256
    # bits, 1.3-1.5 s at 2^14 bits where numeric.ln takes 0.04 s), exp
    # (45-64 us for a log count near 390, 0.54 s at 2^14 bits) or sqrt (9 us
    # at 129 bits and 0.3 ms at 13,000 bits, where the isqrt takes 2.4 us;
    # 2 shared cores, CPython 3.11.7)
    for path in sorted(PACKAGE.glob("*.py")):
        assert not [node for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("ln", "exp", "sqrt")], path.name


def test_numeric_alone_holds_the_printer_and_the_caps():
    # how a number is rounded, how large it may be and how it becomes text
    # is one layer: no other module defines these, and the tail lab, which
    # prints but sums no series, does not import the series module
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    for name in ("to_text", "require_digits", "require_exponent", "require_precision"):
        assert [stem for stem, t in trees.items() for node in t.body
                if isinstance(node, ast.FunctionDef) and node.name == name] == ["numeric"]
    imported = {name for node in ast.walk(trees["taillab"]) if isinstance(node, ast.ImportFrom)
                for name in (node.module, *(alias.name for alias in node.names))}
    assert "expansion" not in imported


def test_circulants_are_found_in_one_def():
    # one def in graphs asks whether a graph is a circulant in its labels,
    # and only the covariance's edge blocks and the Cheeger scan's fixed
    # vertex call it, once each: the contractions read the blocks
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert [stem for stem, t in trees.items() for node in t.body
            if isinstance(node, ast.FunctionDef)
            and node.name == "circulant_classes"] == ["graphs"]
    calls = {node.name: _calls(node, "circulant_classes") for t in trees.values()
             for node in t.body if isinstance(node, ast.FunctionDef)}
    assert {name: c for name, c in calls.items() if c} == {
        "covariance_sigma": 1, "cheeger_constant": 1}


def test_graphs_have_one_edge_rule():
    # Graph(n, pairs) checks every pair: no def builds a Graph past it, and
    # no other def refuses a repeated edge
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    assert not [node for t in trees for node in ast.walk(t)
                if isinstance(node, ast.Attribute) and node.attr == "__new__"
                and isinstance(node.value, ast.Name) and node.value.id == "Graph"]
    graph, = [node for t in trees for node in t.body
              if isinstance(node, ast.ClassDef) and node.name == "Graph"]
    init, = [item for item in graph.body
             if isinstance(item, ast.FunctionDef) and item.name == "__init__"]

    def repeats(node):
        return sum(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                   and "repeated edge" in sub.value for sub in ast.walk(node))
    assert sum(map(repeats, trees)) == repeats(init) > 0


def test_no_module_imports_mpmath():
    # the floats run on the standard library's decimal (numeric); mpmath is
    # the tests' independent route only
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "mpmath" for name in names), path.name


def test_mpmath_reads_the_library_floats():
    # the benchmark passes these two results through mpmath.mpf, which
    # refuses a plain Decimal or Fraction; the digits are the CLI's
    log_value = evaluate_expansion(expansion_series("RT", 7), 37)[1]
    log_corrected = eo_estimate(complete_graph(9), M=2).log_corrected[2]
    for x, digits, printed in (
            (log_value, 40, "389.8234153894721676013023509562487710977"),
            (log_corrected, 30, "15.2221688115559911994314306288")):
        with mpmath.workprec(256):
            assert mpmath.nstr(mpmath.mpf(x), digits) == to_text(x, digits) == printed


def test_moment_memo_is_a_module_dict_that_a_series_fills(monkeypatch):
    # perfbench's tracer reads ``eocount.powersums._MOM_CACHE`` by name for
    # its ``powersums.memo_entries`` metric, and prints null once the name
    # is gone, which breaks the numeric report line
    from eocount import expansion, powersums

    assert type(vars(powersums).get("_MOM_CACHE")) is dict
    monkeypatch.setattr(expansion, "_T_CUMULANTS", {})
    monkeypatch.setattr(powersums, "_MOM_CACHE", {})
    expansion.expansion_series("RT", 3)
    assert powersums._MOM_CACHE


def _empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("dict", "list", "set") \
        and not node.args and not node.keywords


def test_run_time_containers_are_the_two_named_ones():
    # a module-level name bound to an empty dict, list or set is a container
    # filled at run time: global state that outlives a call
    reasons = {
        "powersums._MOM_CACHE": "perfbench's tracer reads it by name",
        "expansion._T_CUMULANTS": "one record per cut, so MAX_ORDER bounds it",
    }
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _empty_container(value):
                found |= {f"{path.stem}.{t.id}" for t in targets
                          if isinstance(t, ast.Name)}
    assert found == set(reasons)
