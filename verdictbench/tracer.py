"""Spans and counters recorded at frobex's module boundaries, from outside.

The tracer replaces public frobex functions and methods by timing wrappers
for the length of a traced run and puts the originals back afterwards, so
an untraced run executes the program exactly as shipped.  Every call
through a wrapper becomes one span (name, parent, start, end) kept in
compact in-memory columns; self time, call counts and per-job ratios are
computed from those spans when the run ends, and the spans are written to
a file once.

Functions are rebound in every frobex module that imported them by name,
so calls made inside the package (``verify_frobenius`` calling
``gram_matrix``) are seen as well as calls from the benchmark.  Product
oracles are wrapped when their algebra is constructed, which is before any
extension is built on it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, attribute, span name): public functions timed at their boundary.
FUNCTIONS = (
    ("frobex.algcore", "multiply", "algcore.multiply"),
    ("frobex.frobenius", "gram_matrix", "frobenius.gram_matrix"),
    ("frobex.frobenius", "verify_frobenius", "frobenius.verify_frobenius"),
    ("frobex.frobenius", "nakayama_on_generators", "frobenius.nakayama_on_generators"),
    ("frobex.frobenius", "reduce_at_point", "frobenius.reduce_at_point"),
    ("frobex.frobenius", "det_is_unit", "frobenius.det_is_unit"),
    ("frobex.frobenius", "fp_det", "frobenius.fp_det"),
    ("frobex.frobenius", "lift_form", "frobenius.lift_form"),
    ("frobex.frobenius", "check_same_products", "frobenius.check_same_products"),
    ("frobex.frobenius", "format_gram_block", "cli.format_gram_block"),
    ("frobex.rees", "check_reduction_tables", "rees.check_reduction_tables"),
    ("frobex.rees", "check_cone_freeness", "rees.check_cone_freeness"),
    ("frobex.grassmannian", "degree_census", "grassmannian.degree_census"),
    ("frobex.grassmannian", "ell_centre_module_basis", "grassmannian.basis_enum"),
    ("frobex.grpdeg", "multiset_symmetry_witness", "grpdeg.symmetry_witness"),
    ("frobex.cli", "main", "cli.main"),
)

# (module, class, method, span name)
METHODS = (
    ("frobex.qas", "RestrictedBasisEngine", "decompose", "qas.decompose"),
    ("frobex.frobenius", "CentralFreeExtension", "validate", "frobenius.validate"),
)

# Product oracles that per-layer metrics single out, named by the prefix of
# the algebra's name; every other algebra's oracle is OTHER_ORACLE.
ORACLE_SPANS = (
    ("qweyl(", "qas.qweyl_mul"),
    ("rees(", "rees.mul"),
)
OTHER_ORACLE = "algcore.mul_indices"
ORACLES = frozenset(name for _, name in ORACLE_SPANS) | {OTHER_ORACLE}

JOB = "job"
NO_PARENT = -1


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [NO_PARENT]
        self.gram_rank: dict[int, int] = {}  # gram_matrix span -> rank
        self.group_elements = [0]
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None):
        """A callable recording one span per call of fn."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            if on_call is not None:
                on_call(i, args)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.verdictbench_traced = True
        return traced

    # -- installation -----------------------------------------------------

    def install(self, algebras=()) -> None:
        """Wrap every boundary; undone by ``uninstall``.

        Algebras built from now on get a traced product oracle; those built
        earlier (set-up fixtures) are passed in and wrapped here.
        """
        from frobex import algcore, grpdeg

        mods = [m for n, m in sorted(sys.modules.items()) if n == "frobex" or n.startswith("frobex.")]
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            on_call = self._note_gram if attr == "gram_matrix" else None
            traced = self.wrap(span, original, on_call)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, traced)
        for modname, cls, meth, span in METHODS:
            klass = getattr(sys.modules[modname], cls)
            self._set(klass, meth, self.wrap(span, getattr(klass, meth)))

        based_init = algcore.BasedAlgebra.__init__
        tracer = self

        def based_algebra_init(alg, *args, **kwargs):
            based_init(alg, *args, **kwargs)
            tracer._trace_oracle(alg)

        self._set(algcore.BasedAlgebra, "__init__", based_algebra_init)
        for alg in algebras:
            oracle = alg.mul_indices
            self._trace_oracle(alg)
            self._restore.append(lambda alg=alg, oracle=oracle: object.__setattr__(alg, "mul_indices", oracle))

        group_init = grpdeg.GroupElement.__init__
        counter = self.group_elements

        def group_element_init(g, coords):
            counter[0] += 1
            group_init(g, coords)

        self._set(grpdeg.GroupElement, "__init__", group_element_init)

    def _set(self, owner, attr, value) -> None:
        original = owner.__dict__[attr]
        self._restore.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def _trace_oracle(self, alg) -> None:
        # BasedAlgebra is a frozen dataclass
        oracle = alg.mul_indices
        if not getattr(oracle, "verdictbench_traced", False):
            object.__setattr__(alg, "mul_indices", self.wrap(oracle_span(alg.name), oracle))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _note_gram(self, i: int, args) -> None:
        self.gram_rank[i] = len(args[0].basis)

    # -- analysis ---------------------------------------------------------

    def job_span(self, fn):
        """fn wrapped in a root span that groups every span it causes."""
        return self.wrap(JOB, fn)

    def layer_metrics(self) -> dict:
        """Per-job self time and call counts by span name, plus ratios.

        Self time is a span's duration minus the part of it covered by its
        children.  Counts are spans per job; ``products_per_gram_entry`` is
        the job's oracle products divided by the square of the rank of its
        first Gram build, averaged over jobs that built one.
        """
        n = len(self.start)
        names, name_id, parent, start, end = self.names, self.name_id, self.parent, self.start, self.end
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            if parent[i] != NO_PARENT:
                child_ns[parent[i]] += end[i] - start[i]
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        job_of = array("q", bytes(8 * n))
        job_oracles: dict[int, int] = {}
        job_rank: dict[int, int] = {}
        cli_grams = checked_pairs = 0
        job_id = self._ids.get(JOB)
        oracle_ids = {self._ids[o] for o in ORACLES if o in self._ids}
        for i in range(n):
            nid = name_id[i]
            name = names[nid]
            self_ns[name] = self_ns.get(name, 0) + end[i] - start[i] - child_ns[i]
            calls[name] = calls.get(name, 0) + 1
            p = parent[i]
            job_of[i] = i if nid == job_id else (job_of[p] if p != NO_PARENT else NO_PARENT)
            parent_name = names[name_id[p]] if p != NO_PARENT else None
            if nid in oracle_ids:
                job_oracles[job_of[i]] = job_oracles.get(job_of[i], 0) + 1
                if name == "rees.mul" and parent_name == "rees.check_reduction_tables":
                    checked_pairs += 1
            elif name == "frobenius.gram_matrix":
                job_rank.setdefault(job_of[i], self.gram_rank[i])
                if parent_name == "cli.main":
                    cli_grams += 1
        jobs = max(calls.get(JOB, 0), 1)
        ratios = [job_oracles.get(j, 0) / r**2 for j, r in job_rank.items()]
        return {
            "self_s": {k: v / 1e9 / jobs for k, v in self_ns.items()},
            "calls": {k: v / jobs for k, v in calls.items()},
            "oracle_calls": sum(calls.get(o, 0) for o in ORACLES) / jobs,
            "cli_gram_calls": cli_grams / jobs,
            "checked_pairs": checked_pairs / jobs,
            "group_elements": self.group_elements[0] / jobs,
            "products_per_gram_entry": sum(ratios) / len(ratios) if ratios else 0.0,
        }

    def write(self, path, header: dict) -> None:
        """Write all spans once: a JSON header line, then one line per span
        (name id, parent index, start ns, end ns)."""
        head = dict(header, names=self.names, columns=["name", "parent", "start_ns", "end_ns"],
                    spans=len(self.start))
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps(head) + "\n")
            fh.writelines(
                f"{a} {b} {c} {d}\n"
                for a, b, c, d in zip(self.name_id, self.parent, self.start, self.end)
            )


def oracle_span(algebra_name: str) -> str:
    for prefix, span in ORACLE_SPANS:
        if algebra_name.startswith(prefix):
            return span
    return OTHER_ORACLE
