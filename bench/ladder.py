"""Time the size ladder of ROADMAP's Baseline table and write BENCH_<NNN>.json.

Usage: python bench/ladder.py [OUT]

Each case runs in this interpreter and records its best wall time over k
runs (``perf_counter``); state a run would reuse, such as a built Gram
system, is made afresh before each run and outside the clock.  The file
records the git sha of the sources measured (with a ``dirty`` flag for
uncommitted changes under them), the Python version and the machine.
Without OUT it is the next free BENCH_<NNN>.json at the repository root.

frobex is imported as found on the path, so ``PYTHONPATH=<checkout>/src``
measures another checkout; otherwise this repository's ``src`` is used.
Standard library only.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("frobex") is None:
    sys.path.insert(0, str(ROOT / "src"))

import frobex  # noqa: E402
from frobex import cli  # noqa: E402
from frobex.algcore import gr_of  # noqa: E402
from frobex.frobenius import (  # noqa: E402
    ProjectionForm,
    check_same_products,
    det_is_unit,
    ell_centre_extension,
    gram_matrix,
    nakayama_on_generators,
    product_window,
    reduce_at_point,
    verify_frobenius,
)
from frobex.grassmannian import degree_census  # noqa: E402
from frobex.qas import make_qas, quantum_plane_of_weyl, quantum_weyl  # noqa: E402
from frobex.rees import check_reduction_tables, cone_reduction, rees_of  # noqa: E402


class Case(NamedTuple):
    name: str
    runs: int
    prepare: Callable[[], Callable[[], object]]  # fresh state -> the timed call


def command(*argv: str) -> Callable[[], Callable[[], object]]:
    """A CLI run that must exit 0, writing its report to a scratch file."""

    def prepare():
        def run():
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", os.path.join(tmp, "report.txt")])
            if code != 0:
                raise RuntimeError(f"frobex {' '.join(argv)} exited {code}")

        return run

    return prepare


def verify(n: int, ell: int):
    def prepare():
        ext = ell_centre_extension(make_qas(n, ell).algebra(), ell)
        return lambda: verify_frobenius(ext)

    return prepare


def extension(ell: int):
    """ell_centre_extension on a fresh make_qas(2, ell): the engine, the
    form and ``validate``."""

    def prepare():
        algebra = make_qas(2, ell).algebra()
        return lambda: ell_centre_extension(algebra, ell)

    return prepare


def nakayama(n: int, ell: int):
    def prepare():
        ext = ell_centre_extension(make_qas(n, ell).algebra(), ell)
        cert = verify_frobenius(ext)
        return lambda: nakayama_on_generators(ext, cert, rng=random.Random(0))

    return prepare


def reduce(ell: int):
    """reduce_at_point at (3, 5) on make_qas(2, ell), whose Gram system is
    built before the clock starts."""

    def prepare():
        ext = ell_centre_extension(make_qas(2, ell).algebra(), ell)
        ext.gram()
        return lambda: reduce_at_point(ext, (3, 5))

    return prepare


def determinant(ell: int):
    """det_is_unit on the Gram matrix of make_qas(2, ell), built before the
    clock starts: the structure scan and the 1x1 block determinants."""

    def prepare():
        ext = ell_centre_extension(make_qas(2, ell).algebra(), ell)
        M = gram_matrix(ext)
        return lambda: det_is_unit(M, ext)

    return prepare


def qweyl_slot_determinants(ell: int):
    """det_is_unit on the Gram matrix of every slot of the q-Weyl
    ell-centre; the matrices are built before the clock starts."""

    def prepare():
        E = ell_centre_extension(quantum_weyl(ell), ell)
        slots = [E.with_form(ProjectionForm(E.engine, r)) for r in E.basis]
        grams = [(gram_matrix(ext), ext) for ext in slots]
        return lambda: [det_is_unit(M, ext) for M, ext in grams]

    return prepare


def weyl_window(ell: int):
    """A fresh q-Weyl algebra at ell and the indices of its product window."""
    W = quantum_weyl(ell)
    return W, list(W.enumerate_up_to(product_window(ell_centre_extension(W, ell))))


def same_products(ell: int):
    """check_same_products of gr(q-Weyl) against the quantum plane over the
    product window at ell, as ``lift_form`` runs it; the algebras are
    fresh and the window is listed before the clock starts."""

    def prepare():
        W, indices = weyl_window(ell)
        plane = quantum_plane_of_weyl(W).algebra()
        return lambda: check_same_products(gr_of(W), plane, indices)

    return prepare


def reduction_tables(ell: int, window: int):
    """check_reduction_tables with the reductions at 0 and 1 on the Rees
    algebra of a fresh q-Weyl algebra at ell."""

    def prepare():
        RA = rees_of(quantum_weyl(ell), window)
        reductions = (cone_reduction(RA, 0), cone_reduction(RA, 1))
        return lambda: check_reduction_tables(RA, reductions)

    return prepare


def weyl_products(ell: int):
    """The q-Weyl product on every ordered pair of the product window at
    ell; every pair is multiplied once before the clock starts, so the
    cached expansions are in place and the run times the products alone."""

    def prepare():
        W, indices = weyl_window(ell)
        mul = W.mul_indices

        def run():
            for i in indices:
                for j in indices:
                    mul(i, j)

        run()
        return run

    return prepare


def census():
    return lambda: [degree_census(ell) for ell in range(2, 21)]


CASES = (
    Case("cli qas-verify --n 3 --ell 5", 3, command("qas-verify", "--n", "3", "--ell", "5")),
    Case("cli nakayama --n 3 --ell 5", 7, command("nakayama", "--n", "3", "--ell", "5")),
    *(Case(f"verify_frobenius rank {ell**n}", 7, verify(n, ell))
      for n, ell in ((2, 13), (3, 7), (4, 5), (2, 31))),
    Case("ell_centre_extension rank 169", 5, extension(13)),
    *(Case(f"nakayama_on_generators rank {ell**n}", 7, nakayama(n, ell))
      for n, ell in ((4, 3), (3, 5), (2, 13))),
    *(Case(f"reduce_at_point rank {ell**2}", 7, reduce(ell)) for ell in (13, 31)),
    *(Case(f"det_is_unit rank {ell**2}", 7, determinant(ell)) for ell in (13, 31)),
    Case("cli qweyl-transfer --ell 5", 3, command("qweyl-transfer", "--ell", "5")),
    Case("cli rees-demo --ell 4 --window 12", 3,
         command("rees-demo", "--ell", "4", "--window", "12")),
    Case("cli rees-demo --ell 5", 3, command("rees-demo", "--ell", "5")),
    Case("cli rees-demo --ell 7", 1, command("rees-demo", "--ell", "7")),
    *(Case(f"det_is_unit every q-Weyl slot ell {ell}", runs, qweyl_slot_determinants(ell))
      for ell, runs in ((5, 3), (6, 3), (7, 7))),
    Case("check_same_products ell 5", 3, same_products(5)),
    Case("check_reduction_tables ell 4 window 12", 3, reduction_tables(4, 12)),
    Case("q-Weyl product window ell 4", 5, weyl_products(4)),
    Case("degree_census ell 2..20", 5, census),
)


def measure(case: Case) -> dict:
    times = []
    for _ in range(case.runs):
        run = case.prepare()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return {"name": case.name, "runs": len(times), "best_s": min(times), "times_s": times}


def source_revision() -> tuple[str, bool]:
    """(sha, dirty) of the checkout frobex was imported from."""
    src = Path(frobex.__file__).resolve().parent
    git = ["git", "-C", str(src)]
    try:
        sha = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
        changes = subprocess.run([*git, "status", "--porcelain", "--", "."],
                                 capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", True
    return sha, bool(changes.strip())


def write(path: Path, cases=CASES) -> dict:
    """Measure the cases and write the BENCH document to path."""
    sha, dirty = source_revision()
    doc = {
        "sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "machine": {
            "system": platform.system(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
        },
        "cases": [measure(case) for case in cases],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc


def next_path() -> Path:
    k = 1
    while (ROOT / f"BENCH_{k:03d}.json").exists():
        k += 1
    return ROOT / f"BENCH_{k:03d}.json"


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    path = Path(argv[0]) if argv else next_path()
    doc = write(path)
    for case in doc["cases"]:
        print(f"{case['best_s']:10.4f} s  {case['name']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
