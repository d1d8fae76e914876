"""Command-line front end.

Five commands: qas-verify, qweyl-transfer, rees-demo, grassmannian-census,
nakayama.  Each run writes a plain structured-text report (key: value lines
plus blocks) that embeds the full resolved configuration, and exits with

    0   the verdict matches the command's expectation,
    1   the pipeline ran but the verdict does not match,
    2   input error (bad flags, bad config file, failed preconditions,
        a report path that cannot be written).

A config file (--config, INI format as documented in algcore) overrides
flags; the FROBEX_SEED environment variable overrides the seed.  Reports
are deterministic: identical configuration and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional

from .algcore import (
    RootField,
    _parse_degrees,
    _parse_matrix,
    default_prime,
    parse_algebra_config,
)
from .errors import FrobexError, ConfigError
from .frobenius import (
    ell_centre_extension,
    format_certificate,
    format_gram_block,
    gram_matrix,
    lift_form,
    nakayama_on_generators,
    verify_frobenius,
)
from .grassmannian import (
    GrGrassmannian,
    alternate_s_matrix,
    default_s_matrix,
    degree_census,
)
from .grpdeg import GroupElement
from .qas import (
    QuantumAffineSpace,
    quantum_plane_of_weyl,
    quantum_weyl,
    standard_cmatrix,
)
from .rees import check_cone_freeness, check_reduction_tables, rees_extension

EXPECTATIONS = {
    "qas-verify": "frobenius",
    "qweyl-transfer": "frobenius",
    "rees-demo": "frobenius",
    "grassmannian-census": "not-frobenius",
    "nakayama": "frobenius",
}


def _config_lines(params: dict) -> list[str]:
    lines = ["[config]"]
    for key in sorted(params):
        lines.append(f"{key}: {params[key]}")
    return lines


def _result_lines(command: str, outcome: str) -> list[str]:
    expected = EXPECTATIONS[command]
    return [
        "[result]",
        f"expectation: {expected}",
        f"outcome: {outcome}",
        f"match: {'true' if outcome == expected else 'false'}",
    ]


def _build_qas(args) -> QuantumAffineSpace:
    n = args.n
    cmatrix = _parse_matrix(args.cmatrix) if args.cmatrix else standard_cmatrix(n)
    if args.degrees:
        degrees = _parse_degrees(args.degrees)
    else:
        degrees = tuple(GroupElement((1,)) for _ in range(n))
    if len(cmatrix) != n or len(degrees) != n:
        raise ConfigError(
            f"n = {n} but cmatrix has {len(cmatrix)} rows and "
            f"{len(degrees)} degree vectors"
        )
    fld = RootField(args.p, args.ell, seed=args.seed)
    return QuantumAffineSpace(fld, cmatrix, degrees)


def _fmt_matrix(mat) -> str:
    return "; ".join(" ".join(str(v) for v in row) for row in mat)


def _qas_setup(args):
    """The QAS, its extension and certificate, and the [config] lines that
    qas-verify and nakayama share."""
    A = _build_qas(args)
    ext = ell_centre_extension(A.algebra(), args.ell)
    rng = random.Random(args.seed)
    cert = verify_frobenius(ext, rng=rng)
    params = {
        "command": args.command,
        "p": args.p,
        "ell": args.ell,
        "n": args.n,
        "seed": args.seed,
        "zeta": A.field.zeta,
        "cmatrix": _fmt_matrix(A.cmatrix),
        "degrees": "; ".join(str(d) for d in A.degrees),
    }
    return A, ext, rng, cert, _config_lines(params)


def run_qas_verify(args) -> tuple[str, list[str]]:
    A, ext, _, cert, lines = _qas_setup(args)
    lines += _result_lines("qas-verify", cert.verdict)
    lines.append("[certificate]")
    lines.append(format_certificate(cert, A.algebra()))
    lines.append("[gram]")
    lines.append(format_gram_block(gram_matrix(ext), A.algebra()))
    return cert.verdict, lines


def run_nakayama(args) -> tuple[str, list[str]]:
    A, ext, rng, cert, lines = _qas_setup(args)
    lines_tail = []
    if cert.verdict == "frobenius":
        nak = nakayama_on_generators(ext, cert, rng=rng, checks=200)
        cert.nakayama = nak.images
        cert.nakayama_trivial = nak.trivial
        lines_tail.append(f"nakayama_checked_pairs: {nak.checked_pairs}")
    lines += _result_lines("nakayama", cert.verdict)
    lines.append("[certificate]")
    lines.append(format_certificate(cert, A.algebra()))
    lines += lines_tail
    return cert.verdict, lines


def run_qweyl_transfer(args) -> tuple[str, list[str]]:
    W = quantum_weyl(args.ell, args.p, seed=args.seed)
    plane = quantum_plane_of_weyl(W)
    graded = ell_centre_extension(plane.algebra(), args.ell)
    rng = random.Random(args.seed)
    graded_cert = verify_frobenius(graded, rng=rng)
    filtered = ell_centre_extension(W, args.ell)
    filtered = filtered.with_form(lift_form(filtered, graded, rng=rng))
    filtered_cert = verify_frobenius(filtered, rng=rng)
    ok = (
        graded_cert.verdict == "frobenius"
        and filtered_cert.verdict == "frobenius"
        and graded_cert.rank == filtered_cert.rank
        and graded_cert.phi_degree == filtered_cert.phi_degree
    )
    outcome = "frobenius" if ok else "not-frobenius"
    params = {
        "command": "qweyl-transfer",
        "p": W.field.p,
        "ell": args.ell,
        "seed": args.seed,
        "zeta": W.field.zeta,
    }
    lines = _config_lines(params)
    lines += _result_lines("qweyl-transfer", outcome)
    lines.append("[graded-certificate]")
    lines.append(format_certificate(graded_cert, plane.algebra()))
    lines.append("[filtered-certificate]")
    lines.append(format_certificate(filtered_cert, W))
    lines.append("[transfer]")
    lines.append(f"rank_equal: {str(graded_cert.rank == filtered_cert.rank).lower()}")
    lines.append(
        f"degree_equal: {str(graded_cert.phi_degree == filtered_cert.phi_degree).lower()}"
    )
    lines.append("[gram]")
    lines.append(format_gram_block(gram_matrix(filtered), W))
    return outcome, lines


def run_rees_demo(args) -> tuple[str, list[str]]:
    W = quantum_weyl(args.ell, args.p, seed=args.seed)
    ext = ell_centre_extension(W, args.ell)
    window = GroupElement((args.window,)) if args.window is not None else None
    RA, rext = rees_extension(ext, window=window)
    rng = random.Random(args.seed)
    cert = verify_frobenius(rext, rng=rng)
    reductions = {
        which: "match" if failure is None else f"mismatch ({failure})"
        for which, failure in check_reduction_tables(RA, ("m0", "m1")).items()
    }
    try:
        check_cone_freeness(RA)
        freeness = "pass"
    except FrobexError as exc:
        freeness = f"fail ({exc})"
    ok = cert.verdict == "frobenius" and all(v == "match" for v in reductions.values())
    outcome = "frobenius" if ok else "not-frobenius"
    params = {
        "command": "rees-demo",
        "p": W.field.p,
        "ell": args.ell,
        "seed": args.seed,
        "window": RA.window.coords[0],
        "zeta": W.field.zeta,
    }
    lines = _config_lines(params)
    lines += _result_lines("rees-demo", outcome)
    lines.append("[certificate]")
    lines.append(format_certificate(cert, RA.algebra))
    lines.append("[reductions]")
    lines.append(f"m0_table: {reductions['m0']}")
    lines.append(f"m1_table: {reductions['m1']}")
    lines.append(f"cone_freeness: {freeness}")
    return outcome, lines


def run_grassmannian_census(args) -> tuple[str, list[str]]:
    scalars = args.scalars
    s_matrix = alternate_s_matrix() if scalars == "alt" else default_s_matrix()
    t_exp = args.t
    if args.s_matrix is not None:
        s_matrix = args.s_matrix
        scalars = "config"
    fld = RootField(args.p, args.ell, seed=args.seed)
    GrGrassmannian(fld, s_matrix, t_exp)  # validates the configuration
    report = degree_census(args.ell, s_matrix=s_matrix, t_exp=t_exp)
    params = {
        "command": "grassmannian-census",
        "p": args.p,
        "ell": args.ell,
        "seed": args.seed,
        "scalars": scalars,
        "s_matrix": _fmt_matrix(s_matrix),
        "t": t_exp,
    }
    lines = _config_lines(params)
    lines += _result_lines("grassmannian-census", report.verdict)
    lines.append("[census]")
    lines.append(report.format())
    return report.verdict, lines


RUNNERS = {
    "qas-verify": run_qas_verify,
    "qweyl-transfer": run_qweyl_transfer,
    "rees-demo": run_rees_demo,
    "grassmannian-census": run_grassmannian_census,
    "nakayama": run_nakayama,
}


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments in frobex's own exit-2 format; the subcommand
    parsers are built from this class too."""

    def error(self, message):
        self.exit(2, f"frobex: input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frobex",
        description="verify and refute Frobenius extensions of quantum algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--ell", type=int, default=3)
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None)

    for name, help_text in (
        ("qas-verify", "certify quantum affine space"),
        ("nakayama", "compute the Nakayama automorphism"),
    ):
        sp = sub.add_parser(name, help=help_text)
        common(sp)
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--degrees", type=str, default=None)
        sp.add_argument("--cmatrix", type=str, default=None)

    sp = sub.add_parser("qweyl-transfer", help="filtered lift on the q-Weyl fixture")
    common(sp)

    sp = sub.add_parser("rees-demo", help="Rees algebra transfer and reductions")
    common(sp)
    sp.add_argument("--window", type=int, default=None)

    sp = sub.add_parser("grassmannian-census", help="degree census of gr Gr(2,4)")
    common(sp)
    sp.add_argument("--scalars", choices=("default", "alt"), default="default")
    sp.add_argument("--t", type=int, default=1)
    return parser


def _apply_config_file(args) -> None:
    """Config file values override flags, per the interface contract."""
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    cfg = parse_algebra_config(text)
    args.p = cfg.p
    args.ell = cfg.ell
    if hasattr(args, "n"):
        args.n = len(cfg.names)
        args.degrees = "; ".join(
            " ".join(str(c) for c in d.coords) for d in cfg.degrees
        )
        if cfg.cmatrix is not None:
            args.cmatrix = _fmt_matrix(cfg.cmatrix)
    if args.command == "grassmannian-census" and cfg.cmatrix is not None:
        args.s_matrix = cfg.cmatrix
        if cfg.straightenings:
            lhs, t_exp, rhs = cfg.straightenings[0]
            if lhs != ("x3", "x4") or rhs != ("x2", "x5"):
                raise ConfigError(
                    "the census accepts only the straightening shape "
                    "'x3 x4 -> k x2 x5'"
                )
            args.t = t_exp


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not hasattr(args, "s_matrix"):
        args.s_matrix = None

    try:
        _apply_config_file(args)
        env_seed = os.environ.get("FROBEX_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"FROBEX_SEED must be an integer: {env_seed!r}") from exc
        if args.p is None:
            args.p = default_prime(args.ell)
        outcome, lines = RUNNERS[args.command](args)
    except FrobexError as exc:
        print(f"frobex: input error: {exc}", file=sys.stderr)
        out = args.out or f"frobex-{args.command}.txt"
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(f"command: {args.command}\nerror: {exc}\n")
        except OSError:
            pass
        return 2

    out = args.out or f"frobex-{args.command}.txt"
    text = "\n".join(lines) + "\n"
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"frobex: input error: cannot write report: {exc}", file=sys.stderr)
        return 2
    expected = EXPECTATIONS[args.command]
    print(f"frobex: {args.command}: {outcome} (report: {out})")
    return 0 if outcome == expected else 1


if __name__ == "__main__":
    sys.exit(main())
