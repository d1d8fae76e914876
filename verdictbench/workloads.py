"""The benchmark's seeded workloads and the known answers their jobs are
checked against.

Every workload is a closed loop with one client: jobs run one after another
in one process, each issued when the previous one has returned.  Jobs come
in rounds of fixed composition, so a run of whole rounds always measures the
same mix of sizes whatever the seed; the seed only picks the free
parameters (commutation matrices, degrees, roots of unity, points, CLI
seeds) and the order of the CLI jobs.

Expected answers are computed here from the mathematics, never by asking
frobex: the prime and the root of unity are chosen by this module, the
Nakayama scalars come from the commutation matrix, and the Grassmannian
census is recounted with a generating polynomial instead of frobex's
enumeration.
"""

from __future__ import annotations

import os
import random
import sys
from types import SimpleNamespace


def frobex_env(src) -> SimpleNamespace:
    """Import frobex from the sources under src; the modules jobs run against."""
    sys.path.insert(0, str(src))
    import frobex.cli
    import frobex.frobenius
    import frobex.qas

    return SimpleNamespace(cli=frobex.cli, frobenius=frobex.frobenius, qas=frobex.qas, out=None)


# ---------------------------------------------------------------------------
# independent arithmetic
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def smallest_prime(ell: int) -> int:
    """The smallest prime p >= 5 with ell dividing p - 1."""
    p = 5
    while not (is_prime(p) and (p - 1) % ell == 0):
        p += 1
    return p


def has_order(z: int, ell: int, p: int) -> bool:
    """True when z has multiplicative order exactly ell modulo p."""
    if pow(z, ell, p) != 1:
        return False
    return all(pow(z, ell // q, p) != 1 for q in range(2, ell + 1) if ell % q == 0 and is_prime(q))


def roots_of_order(ell: int, p: int) -> list[int]:
    return [z for z in range(2, p) if has_order(z, ell, p)]


def random_cmatrix(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A random antisymmetric integer matrix with entries in [-3, 3]."""
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = rng.randint(-3, 3)
            c[j][i] = -c[i][j]
    return tuple(tuple(row) for row in c)


def group_str(coords) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"


def matrix_str(rows) -> str:
    return "; ".join(" ".join(str(v) for v in row) for row in rows)


def nakayama_scalars(cmatrix, zeta: int, ell: int, p: int) -> list[int]:
    """nu(x_i) = lambda_i * x_i for the top-slot form of quantum affine space.

    With t = (ell-1, ..., ell-1), Phi(x^(t-e_i) * x_i) = lambda_i *
    Phi(x_i * x^(t-e_i)), and normal ordering both products with
    x_i x_j = zeta^C[i][j] x_j x_i gives lambda_i = zeta^(sum_k C[i][k]).
    """
    return [pow(zeta, sum(row) % ell, p) for row in cmatrix]


CENSUS_WEIGHTS = (2, 1, 2, 1, 2, 2)  # census degrees of x1 .. x6


def census_counts(ell: int) -> dict[int, int]:
    """Distinguished-basis elements of gr Gr(2,4) over its ell-centre, by
    census degree.

    The basis is the set of exponent vectors below ell with k3 * k4 = 0 and,
    writing ki for the exponent of x3 or x4, k2 + ki < ell or ki + k5 < ell.
    Here it is counted as a product of generating polynomials: x1 and x6
    are unconstrained, and (x2, x3 or x4, x5) is counted directly.
    """
    outer: dict[int, int] = {}
    for k1 in range(ell):
        for k6 in range(ell):
            d = CENSUS_WEIGHTS[0] * k1 + CENSUS_WEIGHTS[5] * k6
            outer[d] = outer.get(d, 0) + 1
    inner: dict[int, int] = {}
    for k2 in range(ell):
        for k5 in range(ell):
            base = CENSUS_WEIGHTS[1] * k2 + CENSUS_WEIGHTS[4] * k5
            inner[base] = inner.get(base, 0) + 1  # neither x3 nor x4
            for ki in range(1, ell):
                if k2 + ki < ell or ki + k5 < ell:
                    for w in (CENSUS_WEIGHTS[2], CENSUS_WEIGHTS[3]):
                        inner[base + w * ki] = inner.get(base + w * ki, 0) + 1
    counts: dict[int, int] = {}
    for a, ca in outer.items():
        for b, cb in inner.items():
            counts[a + b] = counts.get(a + b, 0) + ca * cb
    return counts


def census_expectation(ell: int) -> dict[str, str]:
    """Report lines of the [census] block that the mathematics fixes."""
    counts = census_counts(ell)
    lo, hi = min(counts), max(counts)
    symmetric = all(counts.get(lo + hi - e, 0) == m for e, m in counts.items())
    top = 8 * (ell - 1)
    flag = {True: "agree", False: "DISAGREE"}
    out = {
        "ell": str(ell),
        "basis_size": str(sum(counts.values())),
        "max_degree": str(hi),
        "symmetry_d": str(lo + hi) if symmetric else "none",
        "verdict": "inconclusive" if symmetric else "not-frobenius",
        "paper_agreement[degree_1_count_is_2]": flag[counts.get(1, 0) == 2],
        "paper_agreement[max_degree_is_8(ell-1)]": flag[hi == top],
        "paper_agreement[no_elements_of_degree_8(ell-1)-1]": flag[counts.get(top - 1, 0) == 0],
    }
    out.update({f"count[{d}]": str(m) for d, m in counts.items()})
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def parse_report(text: str) -> dict[str, dict[str, str]]:
    """Sections of a CLI report as {section: {key: first value}}."""
    sections: dict[str, dict[str, str]] = {}
    current = sections.setdefault("", {})
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif ": " in line:
            key, value = line.split(": ", 1)
            current.setdefault(key, value)
    return sections


def mismatches(report: dict, section: str, expected: dict) -> list[str]:
    got = report.get(section, {})
    return [
        f"[{section}] {key}: {got.get(key)!r} != {want!r}"
        for key, want in expected.items()
        if got.get(key) != want
    ]


def root_problem(report: dict, ell: int, p: int) -> list[str]:
    """The echoed root of unity must have exact order ell modulo p."""
    zeta = report.get("config", {}).get("zeta", "")
    if not (zeta.isdigit() and has_order(int(zeta), ell, p)):
        return [f"zeta {zeta!r} does not have order {ell} mod {p}"]
    return []


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


class CliJob:
    """One in-process ``frobex.cli.main`` invocation writing a report."""

    def __init__(self, argv: list[str], expect=None):
        self.kind = argv[0]
        self.argv = argv
        self.expect = expect  # report -> problems; None for malformed input
        self.report: bytes | None = None  # set when the known answer held

    @property
    def malformed(self) -> bool:
        return self.expect is None

    def prepare(self, env) -> None:
        if os.path.exists(env.out):
            os.remove(env.out)

    def run(self, env):
        return env.cli.main(self.argv + ["--out", env.out])

    def check(self, rc, env) -> str | None:
        """None when the known answer holds, else what differs."""
        if self.malformed:
            return None if rc == 2 else f"exit code {rc} on malformed input, expected 2"
        if rc != 0:
            return f"exit code {rc}, expected 0"
        try:
            with open(env.out, "rb") as fh:
                report = fh.read()
        except OSError:
            return "no report written"
        problems = self.expect(parse_report(report.decode("utf-8")))
        if problems:
            return "; ".join(problems)
        self.report = report
        return None


def expect_qas(n, ell, p, cmatrix, degrees, nakayama):
    r = ell**n
    total = [sum(d[k] for d in degrees) for k in range(len(degrees[0]))]

    def check(report):
        problems = root_problem(report, ell, p)
        problems += mismatches(report, "result", {"outcome": "frobenius", "match": "true"})
        cert = {
            "verdict": "frobenius",
            "rank": str(r),
            "phi_degree": group_str(-(ell - 1) * t for t in total),
            "symmetry_d": group_str((ell - 1) * t for t in total),
            "gram_status": "unit-determinant",
            "gram_method": "generalized-permutation",
            "gram_confidence": "exact",
            "f1_witnesses": f"{r}/{r}",
        }
        if nakayama and not problems:
            zeta = int(report["config"]["zeta"])
            lam = nakayama_scalars(cmatrix, zeta, ell, p)
            images = [f"x{i + 1} -> " + (f"x{i + 1}" if c == 1 else f"{c}*x{i + 1}")
                      for i, c in enumerate(lam)]
            cert["nakayama_trivial"] = "true" if all(c == 1 for c in lam) else "false"
            cert["nakayama"] = "; ".join(sorted(images))
            cert["nakayama_checked_pairs"] = "200"
        return problems + mismatches(report, "certificate", cert)

    return check


def expect_qweyl(ell, p):
    cert = {
        "verdict": "frobenius",
        "rank": str(ell * ell),
        "phi_degree": group_str([-2 * (ell - 1)]),
        "symmetry_d": group_str([2 * (ell - 1)]),
    }

    def check(report):
        problems = root_problem(report, ell, p)
        problems += mismatches(report, "result", {"outcome": "frobenius", "match": "true"})
        problems += mismatches(report, "graded-certificate", cert)
        problems += mismatches(report, "filtered-certificate", cert)
        return problems + mismatches(
            report, "transfer", {"rank_equal": "true", "degree_equal": "true"}
        )

    return check


def expect_rees(ell, p, window):
    def check(report):
        problems = root_problem(report, ell, p)
        problems += mismatches(report, "config", {"window": str(window)})
        problems += mismatches(report, "result", {"outcome": "frobenius", "match": "true"})
        problems += mismatches(report, "certificate", {"verdict": "frobenius", "rank": str(ell * ell)})
        return problems + mismatches(
            report, "reductions",
            {"m0_table": "match", "m1_table": "match", "cone_freeness": "pass"},
        )

    return check


def expect_census(census, scalars, t):
    def check(report):
        problems = mismatches(report, "config", {"scalars": scalars, "t": str(t)})
        problems += mismatches(report, "result", {"outcome": "not-frobenius", "match": "true"})
        return problems + mismatches(report, "census", census)

    return check


class PipelineJob:
    """verify_frobenius -> nakayama_on_generators -> reduce_at_point on one
    quantum-affine-space presentation, through the library API."""

    kind = "qas-pipeline"
    malformed = False

    def __init__(self, fixture, point, rng_seed):
        self.fixture = fixture
        self.point = point
        self.rng_seed = rng_seed

    def prepare(self, env) -> None:
        pass

    def run(self, env):
        fb = env.frobenius
        A = self.fixture.qas
        ext = fb.ell_centre_extension(A.algebra(), self.fixture.ell)
        rng = random.Random(self.rng_seed)
        cert = fb.verify_frobenius(ext, rng=rng)
        nak = fb.nakayama_on_generators(ext, cert, rng=rng)
        red = fb.reduce_at_point(ext, self.point)
        return cert, nak, red

    def check(self, raw, env) -> str | None:
        cert, nak, red = raw
        fx = self.fixture
        r = fx.ell**fx.n
        problems = []
        if cert.verdict != "frobenius":
            problems.append(f"verdict {cert.verdict}")
        if cert.rank != r:
            problems.append(f"rank {cert.rank} != {r}")
        if cert.gram_status.method != "generalized-permutation":
            problems.append(f"gram method {cert.gram_status.method}")
        if red.pairing_rank != r or not red.nondegenerate:
            problems.append(f"reduced pairing rank {red.pairing_rank} != {r}")
        for i, lam in enumerate(fx.nakayama):
            image = nak.images[f"x{i + 1}"]
            gen = tuple(1 if j == i else 0 for j in range(fx.n))
            if image.terms != {gen: lam}:
                problems.append(f"nakayama image of x{i + 1} is {image!r}, expected {lam}*x{i + 1}")
        return "; ".join(problems) if problems else None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Defaults: CLI jobs that build their own inputs, nothing to prepare."""

    def build(self, env) -> None:
        """Build set-up fixtures with the imported frobex."""

    def algebras(self) -> list:
        """Algebras built by ``build``, whose oracles a traced run wraps."""
        return []

    def determinism_sample(self, jobs: list) -> list:
        """Jobs of the first round to rerun and compare report bytes."""
        return []


class QasFixture:
    def __init__(self, n, ell, p, zeta, cmatrix):
        self.n, self.ell, self.p, self.zeta, self.cmatrix = n, ell, p, zeta, cmatrix
        self.nakayama = nakayama_scalars(cmatrix, zeta, ell, p)
        self.qas = None


class QasLadder(Workload):
    """Large presentations through the library pipeline; Gram builds dominate."""

    name = "qas-ladder"
    sizes = ((4, 3), (3, 5), (2, 13))  # (n, ell): ranks 81, 125, 169

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.fixtures = []
        for n, ell in self.sizes:
            p = smallest_prime(ell)
            zeta = rng.choice(roots_of_order(ell, p))
            self.fixtures.append(QasFixture(n, ell, p, zeta, random_cmatrix(rng, n)))

    def build(self, env) -> None:
        for fx in self.fixtures:
            fx.qas = env.qas.make_qas(fx.n, fx.ell, p=fx.p, cmatrix=fx.cmatrix, zeta=fx.zeta)

    def algebras(self) -> list:
        return [fx.qas.algebra() for fx in self.fixtures]

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        return [
            PipelineJob(fx, tuple(rng.randrange(fx.p) for _ in range(fx.n)), rng.randrange(2**32))
            for fx in self.fixtures
        ]


class CliMix(Workload):
    """A stream of small unrelated CLI jobs covering all five commands."""

    name = "cli-mix"
    # (n, ell) shapes of qas-verify and nakayama jobs, ranks 4 to 49
    qas_shapes = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (4, 2), (5, 2))
    per_round = {"qas-verify": 4, "nakayama": 3}  # jobs per shape
    qweyl_ells = {2: 10, 3: 8}
    rees_windows = {2: (2, 3, 4, 5, 6), 3: (3, 4, 5, 6)}  # ell -> windows, twice each
    census_ells = range(2, 9)  # five jobs per ell
    malformed_jobs = 8
    determinism_jobs = 12
    junk = ("a", "x", "1.5", "2e3", "one", "0x1", "?")

    def __init__(self, seed: int):
        self.seed = seed
        self._census: dict[int, dict] = {}

    def census(self, ell):
        if ell not in self._census:
            self._census[ell] = census_expectation(ell)
        return self._census[ell]

    def _qas_argv(self, rng, command, n, ell):
        p = smallest_prime(ell)
        cmatrix = random_cmatrix(rng, n)
        dim = rng.choice((1, 2))
        degrees = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(n)]
        if not any(any(d) for d in degrees):
            degrees[rng.randrange(n)] = (1,) * dim
        argv = [command, "--n", str(n), "--ell", str(ell), "--p", str(p),
                "--seed", str(rng.randrange(10**6)),
                "--cmatrix", matrix_str(cmatrix), "--degrees", matrix_str(degrees)]
        return argv, p, cmatrix, degrees

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        jobs = []
        for command, reps in self.per_round.items():
            for n, ell in self.qas_shapes:
                for _ in range(reps):
                    argv, p, cmatrix, degrees = self._qas_argv(rng, command, n, ell)
                    jobs.append(CliJob(argv, expect_qas(n, ell, p, cmatrix, degrees,
                                                        command == "nakayama")))
        for ell, count in self.qweyl_ells.items():
            p = smallest_prime(ell)
            for _ in range(count):
                argv = ["qweyl-transfer", "--ell", str(ell), "--p", str(p),
                        "--seed", str(rng.randrange(10**6))]
                jobs.append(CliJob(argv, expect_qweyl(ell, p)))
        for ell, windows in self.rees_windows.items():
            p = smallest_prime(ell)
            for window in windows * 2:
                argv = ["rees-demo", "--ell", str(ell), "--p", str(p), "--window", str(window),
                        "--seed", str(rng.randrange(10**6))]
                jobs.append(CliJob(argv, expect_rees(ell, p, window)))
        for ell in self.census_ells:
            for k in range(5):
                scalars = ("default", "alt")[k % 2]
                t = rng.randrange(0, 2 * ell)
                argv = ["grassmannian-census", "--ell", str(ell), "--p", str(smallest_prime(ell)),
                        "--scalars", scalars, "--t", str(t), "--seed", str(rng.randrange(10**6))]
                jobs.append(CliJob(argv, expect_census(self.census(ell), scalars, t)))
        for k in range(self.malformed_jobs):
            n, ell = rng.choice(self.qas_shapes)
            argv, *_ = self._qas_argv(rng, rng.choice(("qas-verify", "nakayama")), n, ell)
            flag = argv.index("--cmatrix" if k % 2 == 0 else "--degrees") + 1
            tokens = argv[flag].split(" ")
            slot = rng.choice([i for i, tok in enumerate(tokens) if tok != ";"])
            tokens[slot] = rng.choice(self.junk) + (";" if tokens[slot].endswith(";") else "")
            argv[flag] = " ".join(tokens)
            jobs.append(CliJob(argv))
        rng.shuffle(jobs)
        return jobs

    def determinism_sample(self, jobs: list) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:determinism")
        return rng.sample([j for j in jobs if not j.malformed], self.determinism_jobs)


class ReesWindow(Workload):
    """Windowed transfer checks at ell = 4 (window 12) and ell = 3."""

    name = "rees-window"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.cli_seeds = (rng.randrange(10**6), rng.randrange(10**6))

    def round(self, r: int) -> list:
        s = str(self.cli_seeds[r % 2])
        p4, p3 = smallest_prime(4), smallest_prime(3)
        return [
            CliJob(["qweyl-transfer", "--ell", "4", "--p", str(p4), "--seed", s],
                   expect_qweyl(4, p4)),
            CliJob(["rees-demo", "--ell", "4", "--p", str(p4), "--window", "12", "--seed", s],
                   expect_rees(4, p4, 12)),
            CliJob(["rees-demo", "--ell", "3", "--p", str(p3), "--seed", s],
                   expect_rees(3, p3, 12)),
        ]


WORKLOADS = {w.name: w for w in (QasLadder, CliMix, ReesWindow)}
