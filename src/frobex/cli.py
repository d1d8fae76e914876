"""Command-line front end.

Five commands: qas-verify, qweyl-transfer, rees-demo, grassmannian-census,
nakayama.  Each run writes a plain structured-text report (key: value lines
plus blocks) that embeds the full resolved configuration, and exits with

    0   the verdict matches the command's expectation,
    1   the pipeline ran but the verdict does not match,
    2   input error (bad flags, bad config file, failed preconditions,
        a report path that cannot be written).

A config file (--config, INI format as documented in algcore) overrides
flags: a config field replaces its flag, which is then not read.  The
FROBEX_SEED environment variable overrides the seed.  Reports are
deterministic: identical configuration and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from typing import Optional

from .algcore import RootField, default_prime, parse_algebra_config, parse_degrees, parse_matrix
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
    CENSUS_DEGREES,
    GrGrassmannian,
    alternate_s_matrix,
    default_s_matrix,
    degree_census,
)
from .grpdeg import GroupElement
from .qas import QuantumAffineSpace, make_qas, quantum_plane_of_weyl, quantum_weyl
from .rees import check_cone_freeness, check_reduction_tables, rees_extension


def _build_qas(args) -> QuantumAffineSpace:
    n = args.n  # cmatrix or degrees left as None take make_qas's defaults
    rows = n if args.cmatrix is None else len(args.cmatrix)
    vectors = n if args.degrees is None else len(args.degrees)
    if rows != n or vectors != n:
        raise ConfigError(f"n = {n} but cmatrix has {rows} rows and {vectors} degree vectors")
    return make_qas(n, args.ell, args.p, args.cmatrix, args.degrees, seed=args.seed, names=args.names)


def _fmt_matrix(mat) -> str:
    return "; ".join(" ".join(str(v) for v in row) for row in mat)


def _qas_setup(args):
    """The QAS, its extension and certificate, and the [config] parameters
    that qas-verify and nakayama share."""
    A = _build_qas(args)
    ext = ell_centre_extension(A.algebra(), args.ell)
    rng = random.Random(args.seed)
    cert = verify_frobenius(ext, rng=rng)
    params = {
        "p": args.p,
        "ell": args.ell,
        "n": args.n,
        "names": " ".join(A.names),
        "seed": args.seed,
        "zeta": A.field.zeta,
        "cmatrix": _fmt_matrix(A.cmatrix),
        "degrees": "; ".join(str(d) for d in A.degrees),
    }
    return A, ext, rng, cert, params


def run_qas_verify(args):
    A, ext, _, cert, params = _qas_setup(args)
    body = [
        "[certificate]",
        format_certificate(cert, A.algebra()),
        "[gram]",
        format_gram_block(gram_matrix(ext), A.algebra()),
    ]
    return cert.verdict, params, body


def run_nakayama(args):
    A, ext, rng, cert, params = _qas_setup(args)
    tail = []
    if cert.verdict == "frobenius":
        nak = nakayama_on_generators(ext, cert, rng=rng, checks=200)
        cert.nakayama = nak.images
        cert.nakayama_trivial = nak.trivial
        tail.append(f"nakayama_checked_pairs: {nak.checked_pairs}")
    return cert.verdict, params, ["[certificate]", format_certificate(cert, A.algebra()), *tail]


def run_qweyl_transfer(args):
    W = quantum_weyl(args.ell, args.p, seed=args.seed)
    plane = quantum_plane_of_weyl(W)
    graded = ell_centre_extension(plane.algebra(), args.ell)
    rng = random.Random(args.seed)
    graded_cert = verify_frobenius(graded, rng=rng)
    filtered = ell_centre_extension(W, args.ell)
    filtered = filtered.with_form(lift_form(filtered, graded, rng=rng))
    filtered_cert = verify_frobenius(filtered, rng=rng)
    rank_equal = graded_cert.rank == filtered_cert.rank
    degree_equal = graded_cert.phi_degree == filtered_cert.phi_degree
    ok = (
        graded_cert.verdict == "frobenius"
        and filtered_cert.verdict == "frobenius"
        and rank_equal
        and degree_equal
    )
    params = {"p": W.field.p, "ell": args.ell, "seed": args.seed, "zeta": W.field.zeta}
    body = [
        "[graded-certificate]",
        format_certificate(graded_cert, plane.algebra()),
        "[filtered-certificate]",
        format_certificate(filtered_cert, W),
        "[transfer]",
        f"rank_equal: {str(rank_equal).lower()}",
        f"degree_equal: {str(degree_equal).lower()}",
        "[gram]",
        format_gram_block(gram_matrix(filtered), W),
    ]
    return "frobenius" if ok else "not-frobenius", params, body


def run_rees_demo(args):
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
    params = {
        "p": W.field.p,
        "ell": args.ell,
        "seed": args.seed,
        "window": RA.window.coords[0],
        "zeta": W.field.zeta,
    }
    body = [
        "[certificate]",
        format_certificate(cert, RA.algebra),
        "[reductions]",
        f"m0_table: {reductions['m0']}",
        f"m1_table: {reductions['m1']}",
        f"cone_freeness: {freeness}",
    ]
    return "frobenius" if ok else "not-frobenius", params, body


def run_grassmannian_census(args):
    fld = RootField(args.p, args.ell, seed=args.seed)
    GrGrassmannian(fld, args.s_matrix, args.t)  # validates the configuration
    report = degree_census(args.ell)
    params = {
        "p": args.p,
        "ell": args.ell,
        "seed": args.seed,
        "scalars": args.scalars,
        "s_matrix": _fmt_matrix(args.s_matrix),
        "t": args.t,
    }
    return report.verdict, params, ["[census]", report.format()]


# name -> (runner, expected outcome, help); the runner returns the outcome,
# the [config] parameters other than the command, and the report body
COMMANDS = {
    "qas-verify": (run_qas_verify, "frobenius", "certify quantum affine space"),
    "nakayama": (run_nakayama, "frobenius", "compute the Nakayama automorphism"),
    "qweyl-transfer": (run_qweyl_transfer, "frobenius", "filtered lift on the q-Weyl fixture"),
    "rees-demo": (run_rees_demo, "frobenius", "Rees algebra transfer and reductions"),
    "grassmannian-census": (
        run_grassmannian_census, "not-frobenius", "degree census of gr Gr(2,4)"
    ),
}
QAS_COMMANDS = ("qas-verify", "nakayama")  # the commands on quantum affine space


class _Parser(argparse.ArgumentParser):
    """Rejects bad arguments in frobex's own exit-2 format; the subcommand
    parsers are built from this class too."""

    def error(self, message):
        self.exit(2, f"frobex: input error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The frobex parser, built once per process: parsing leaves it as it
    was, so every ``main`` call shares it."""
    parser = _Parser(
        prog="frobex",
        description="verify and refute Frobenius extensions of quantum algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--ell", type=int, default=3)
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None)
        if name in QAS_COMMANDS:
            sp.set_defaults(names=None)  # x1..xn unless a config names them
            sp.add_argument("--n", type=int, default=2)
            sp.add_argument("--degrees", type=str, default=None)
            sp.add_argument("--cmatrix", type=str, default=None)
        elif name == "rees-demo":
            sp.add_argument("--window", type=int, default=None)
        elif name == "grassmannian-census":
            sp.add_argument("--scalars", choices=("default", "alt"), default="default")
            sp.add_argument("--t", type=int, default=1)
    return parser


def _check_generators(cfg, command: str, what: str, names: tuple, weights: tuple) -> None:
    """A command whose algebra is fixed accepts only that algebra's own
    generator names and degrees in a config."""
    if cfg.names != names:
        raise ConfigError(
            f"{command} presents {what} on generators {' '.join(names)!r}, "
            f"not {' '.join(cfg.names)!r}"
        )
    if tuple(d.coords for d in cfg.degrees) != tuple((w,) for w in weights):
        given = "; ".join(" ".join(map(str, d.coords)) for d in cfg.degrees)
        raise ConfigError(
            f"{command} presents {what} with degrees {'; '.join(map(str, weights))!r}, "
            f"not {given!r}"
        )


def _read_config(args):
    """The parsed config file, or None without --config; a line the command
    cannot honour is an input error."""
    if not args.config:
        return None
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    cfg = parse_algebra_config(text)
    if args.command in QAS_COMMANDS:
        if cfg.straightenings:
            raise ConfigError(
                f"{args.command} presents quantum affine space, which has no "
                "straightening relations"
            )
    elif args.command == "grassmannian-census":
        _check_generators(
            cfg, args.command, "gr Gr(2,4)", tuple(f"x{i + 1}" for i in range(6)), CENSUS_DEGREES
        )
        if len(cfg.straightenings) > 1:
            raise ConfigError(
                f"the census takes one straightening rule, not {len(cfg.straightenings)}"
            )
        if cfg.straightenings:
            lhs, _, rhs = cfg.straightenings[0]
            if lhs != ("x3", "x4") or rhs != ("x2", "x5"):
                raise ConfigError(
                    "the census accepts only the straightening shape "
                    "'x3 x4 -> k x2 x5'"
                )
    else:  # qweyl-transfer, rees-demo
        _check_generators(cfg, args.command, "the q-Weyl fixture", ("y", "x"), (1, 1))
        if cfg.cmatrix is not None or cfg.straightenings:
            raise ConfigError(
                f"{args.command} presents the q-Weyl fixture, whose relation "
                "x*y = q*y*x + 1 is fixed: a config has no 'c' or 'straighten' line"
            )
    return cfg


def _resolve(args) -> None:
    """Turn the flags, config file and FROBEX_SEED into the typed values the
    runners read, parsing each input once.  Afterwards ``cmatrix`` is an int
    matrix and ``degrees`` a tuple of GroupElements, or None for make_qas's
    default; the census has ``s_matrix``, labelled ``scalars``, and ``t``."""
    cfg = _read_config(args)
    if cfg is not None:
        args.p, args.ell = cfg.p, cfg.ell
    env_seed = os.environ.get("FROBEX_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"FROBEX_SEED must be an integer: {env_seed!r}") from exc
    if args.p is None:
        args.p = default_prime(args.ell)
    if args.command in QAS_COMMANDS:
        if cfg is not None and cfg.cmatrix is not None:
            args.cmatrix = cfg.cmatrix
        elif args.cmatrix is not None:
            args.cmatrix = parse_matrix(args.cmatrix)
        if cfg is not None:
            args.n, args.names, args.degrees = len(cfg.names), cfg.names, cfg.degrees
        elif args.degrees is not None:
            args.degrees = parse_degrees(args.degrees)
    elif args.command == "grassmannian-census":
        if cfg is not None and cfg.cmatrix is not None:
            args.s_matrix, args.scalars = cfg.cmatrix, "config"
        else:
            args.s_matrix = alternate_s_matrix() if args.scalars == "alt" else default_s_matrix()
        if cfg is not None and cfg.straightenings:
            args.t = cfg.straightenings[0][1]


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = args.out or f"frobex-{args.command}.txt"
    try:
        _resolve(args)
        runner, expected, _ = COMMANDS[args.command]
        outcome, params, body = runner(args)
    except FrobexError as exc:
        print(f"frobex: input error: {exc}", file=sys.stderr)
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(f"command: {args.command}\nerror: {exc}\n")
        except OSError:
            pass
        return 2

    params["command"] = args.command
    lines = [
        "[config]",
        *(f"{key}: {params[key]}" for key in sorted(params)),
        "[result]",
        f"expectation: {expected}",
        f"outcome: {outcome}",
        f"match: {'true' if outcome == expected else 'false'}",
        *body,
    ]
    text = "\n".join(lines) + "\n"
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"frobex: input error: cannot write report: {exc}", file=sys.stderr)
        return 2
    print(f"frobex: {args.command}: {outcome} (report: {out})")
    return 0 if outcome == expected else 1


if __name__ == "__main__":
    sys.exit(main())
