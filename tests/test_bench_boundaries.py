"""The benchmark still runs against frobex: the names its tracer wraps
exist and are callable, and one round of each workload passes its
known-answer checks.

verdictbench/tracer.py replaces frobex functions and methods by name for a
traced run, and verdictbench/workloads.py calls frobex's public signatures;
a refactor that renames, moves or prunes one of them would break the
benchmark without failing any other test.  Both files are loaded by file
path and only read.  The other way round, every name frobex exports has a
caller outside the tests: in the package itself, the ladder or the
benchmark.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from oracles import rees_window_pair_counts

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "verdictbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"verdictbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, meth", [(m, c, f) for m, c, f, _ in tracer.METHODS])
def test_traced_method_exists(module, cls, meth):
    klass = getattr(importlib.import_module(module), cls)
    # the tracer swaps the entry in the class's own __dict__
    assert callable(klass.__dict__[meth])


def _smoke_jobs(workload, jobs):
    """Every qas-ladder and rees-window job; for cli-mix, the first job of
    each command and one malformed job."""
    if workload.name != "cli-mix":
        return jobs
    first = {}
    for job in jobs:
        first.setdefault("malformed" if job.malformed else job.kind, job)
    return list(first.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # frobex_env prepends src
    env = workloads.frobex_env(BENCH.parent / "src")
    env.out = str(tmp_path / "report.txt")
    workload = workloads.WORKLOADS[name](seed=1)
    workload.build(env)
    jobs = _smoke_jobs(workload, workload.round(0))
    assert jobs
    for job in jobs:
        job.prepare(env)
        assert job.check(job.run(env), env) is None, job.kind


def test_traced_rees_window_job_reaches_the_oracle_spans(tmp_path, monkeypatch):
    # the tracer finds product oracles by the mul_indices attribute and
    # tells them apart by the qweyl( and rees( algebra name prefixes, which
    # the untraced rounds above never read
    monkeypatch.setattr(sys, "path", list(sys.path))  # frobex_env prepends src
    env = workloads.frobex_env(BENCH.parent / "src")
    env.out = str(tmp_path / "report.txt")
    workload = workloads.WORKLOADS["rees-window"](seed=1)
    workload.build(env)
    job = workload.round(0)[-1]
    assert job.argv[:3] == ["rees-demo", "--ell", "3"]
    job.prepare(env)
    recorder = tracer.Tracer()
    recorder.install(workload.algebras())
    try:
        raw = recorder.job_span(job.run)(env)
    finally:
        recorder.uninstall()
    assert job.check(raw, env) is None
    layers = recorder.layer_metrics()
    assert layers["calls"].get("qas.qweyl_mul", 0) > 0
    assert layers["calls"].get("rees.mul", 0) > 0
    # rees-demo --ell 3 checks the default window 3 * 2(ell - 1) = 12
    assert "--window" not in job.argv
    assert layers["checked_pairs"] == rees_window_pair_counts(12)[0]


def test_traced_qas_ladder_job_reaches_the_gram_span(monkeypatch):
    # products_per_gram_entry divides a job's oracle products by the square
    # of the rank of its first gram_matrix span; a Gram build out of the
    # tracer's view would read 0.  A graded QAS build makes one product per
    # row, so the ratio sits below 1 by design.
    monkeypatch.setattr(sys, "path", list(sys.path))  # frobex_env prepends src
    env = workloads.frobex_env(BENCH.parent / "src")
    workload = workloads.WORKLOADS["qas-ladder"](seed=1)
    workload.build(env)
    job = workload.round(0)[0]
    rank = job.fixture.ell ** job.fixture.n
    recorder = tracer.Tracer()
    recorder.install(workload.algebras())
    try:
        raw = recorder.job_span(job.run)(env)
    finally:
        recorder.uninstall()
    assert job.check(raw, env) is None
    assert rank in recorder.gram_rank.values()
    layers = recorder.layer_metrics()
    assert layers["calls"].get("frobenius.gram_matrix", 0) >= 1
    assert layers["products_per_gram_entry"] > 0


# exported for the acceptance suite only: criterion 8 runs the freeness
# sweep of the Grassmannian's distinguished family, which no command reports
TEST_ONLY_EXPORTS = {"verify_freeness_window"}


def _references(tree, skip=None):
    """The names, attribute names and string constants a tree uses, apart
    from the body of any def or class called ``skip``."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)  # the tracer wraps names given as strings
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_export_has_a_caller_outside_the_tests():
    # a name only the tests reach is test-only API; the package's other
    # modules count apart from the name's own def or class
    package = ROOT / "src" / "frobex"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exports = [alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in package.glob("*.py") if path.name != "__init__.py"]
    outside = set()
    for path in [*(ROOT / "bench").glob("*.py"), *BENCH.glob("*.py")]:
        outside |= _references(ast.parse(path.read_text(encoding="utf-8")))
    unreached = [name for name in exports
                 if name not in outside and not any(name in _references(tree, skip=name)
                                                    for tree in modules)]
    assert exports
    assert set(unreached) == TEST_ONLY_EXPORTS
