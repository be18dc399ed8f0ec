"""The names of the package that the benchmark harness in perfbench/ uses.

perfbench/worker.py wraps package functions by module and name, reads
kernels.backend_name(), counts the labels and values of every state of a
run through RunResult.states and DistortionState.values, and runs
distortion.run again with its checks off. A change that removed one of
them would end every benchmark run with an error, and perfbench's own
tests lie outside the test paths of this suite.
"""

import ast
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

from coverdist import build_problem, distortion, kernels, run

WORKER = Path(__file__).parents[1] / "perfbench" / "worker.py"


def _worker_names():
    # (modules imported from coverdist, (module, attr) of each rec.wrap call)
    tree = ast.parse(WORKER.read_text())
    modules, wrapped = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "coverdist":
            modules.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "rec"
        ):
            mod, attr = node.args[:2]
            wrapped.append((mod.id, attr.value))
    return modules, wrapped


def test_benchmark_wraps_resolve():
    modules, wrapped = _worker_names()
    assert len(wrapped) >= 18
    for mod, attr in wrapped:
        assert mod in modules, mod
        module = importlib.import_module(f"coverdist.{mod}")
        assert callable(getattr(module, attr, None)), f"{mod}.{attr}"


def test_benchmark_run_keywords_resolve(near_cover):
    tree = ast.parse(WORKER.read_text())
    keywords = [
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "distortion"
        for kw in node.keywords
    ]
    assert keywords, "worker.py no longer calls distortion.run"
    params = inspect.signature(run).parameters
    for kw in keywords:
        assert kw in params, kw
    problem, deltas = build_problem(near_cover), [Fraction(1, 2)]
    assert run(problem, deltas, checks=False).eta == run(problem, deltas).eta


def test_benchmark_readers_resolve(near_cover):
    assert kernels.backend_name() == "numpy"
    res = run(build_problem(near_cover), [Fraction(1, 2)])
    assert isinstance(res, distortion.RunResult)
    values = [st.values for st in res.states]
    assert [v.tolist() for v in values] == [
        [Fraction(1, 4)],
        [Fraction(1, 6)] * 3 + [Fraction(1, 2)],
    ]
