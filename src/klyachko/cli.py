"""Command line front end.

Subcommands:

    verify-gelfand   brute-force Gelfand-model verification for GL_n(F_q)
    kappa            Klyachko type kappa(pi) of a parameter expression
    derive           iterated highest derivatives of a parameter
    period           symbolic period formula (optionally with zeta values)
    residue-survival residue bookkeeping for the Eisenstein constant term
    table            dump conjugacy classes and the character table

Exit codes (stable): 0 success (for verify-gelfand: the gelfand flag is
true); 1 verification negative or generic failure; 2 refused (resource
caps exceeded, or bad usage); 3 internal invariant violation; 4 parse
error in a parameter expression; 5 degree mismatch.

Environment: KLYACHKO_CACHE_DIR (table cache location),
KLYACHKO_MAX_ELEMENTS (enumeration cap).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .arena import build_arena
from .characters import character_table
from .errors import (
    ArenaTooSmall,
    DegreeMismatch,
    InvariantViolation,
    KlyachkoError,
    ParseError,
    ResourceRefused,
    UsageError,
)
from .gelfand import load_or_compute_table, verify_gelfand
from .gf import field_from_q
from .groups import DEFAULT_MAX_ELEMENTS
from .paramparse import parse_parameter
from .periods import (
    evaluate_period,
    intertwining_eigenvalue,
    norm_constant,
    period_formula,
    zeta_assignment,
)
from .speh import TadicParameter, dual_model_type, kappa, product_highest_derivative, validate_unitary
from .weyl import residue_survival

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_REFUSED = 2
EXIT_INVARIANT = 3
EXIT_PARSE = 4
EXIT_DEGREE = 5

ENV_CACHE_DIR = "KLYACHKO_CACHE_DIR"
ENV_MAX_ELEMENTS = "KLYACHKO_MAX_ELEMENTS"


def _meta() -> dict:
    return {"version": __version__}


def _emit(payload: dict, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        text_renderer(payload)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_group_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--ell", type=int, default=None,
                        help="override the arena prime (validated)")
    parser.add_argument("--max-elements", type=int, default=None,
                        help=f"enumeration cap (default {DEFAULT_MAX_ELEMENTS} or "
                             "KLYACHKO_MAX_ELEMENTS)")
    parser.add_argument("--cache-dir", default=None,
                        help="group table cache directory (default KLYACHKO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true")


def _max_elements_from_env() -> int:
    raw = os.environ.get(ENV_MAX_ELEMENTS)
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"{ENV_MAX_ELEMENTS} must be a positive integer, got {raw!r}")
    return value


def _resolve_group_options(args) -> dict:
    """Field, cap and cache directory of a group command, after rejecting
    a bad --q or a non-positive cap as bad usage."""
    try:
        field = field_from_q(args.q)
    except ValueError as exc:  # FieldTooLarge, a refused resource, passes through
        raise UsageError(f"--q: {exc}") from None
    max_elements = args.max_elements
    if max_elements is None:
        max_elements = _max_elements_from_env()
    elif max_elements < 1:
        raise UsageError(f"--max-elements must be positive, got {max_elements}")
    # an empty --cache-dir or KLYACHKO_CACHE_DIR means unset, not the current directory
    cache_dir = None if args.no_cache else (args.cache_dir or os.environ.get(ENV_CACHE_DIR) or None)
    return {"field": field, "max_elements": max_elements, "cache_dir": cache_dir}


def cmd_verify_gelfand(args) -> int:
    start = time.monotonic()
    opts = _resolve_group_options(args)
    p = opts["field"].p
    if args.psi % p == 0:
        raise UsageError(f"--psi must be nonzero mod p = {p} (psi nontrivial), got {args.psi}")
    table = load_or_compute_table(args.n, args.q, cache_dir=opts["cache_dir"],
                                  max_elements=opts["max_elements"])
    report = verify_gelfand(table, ell=args.ell, psi=args.psi)
    payload = report.to_json_dict()
    payload["meta"]["seconds"] = round(time.monotonic() - start, 3)

    def render(js):
        print(f"GL_{js['n']}(F_{js['q']}): {js['class_count']} conjugacy classes, "
              f"arena ell = {js['ell']}, psi seed = {js['psi_seed']}")
        width = max(len(str(row['dim'])) for row in js["rows"])
        for row in js["rows"]:
            cells = "  ".join(f"k={k}:{m}" for k, m in row["mults"])
            print(f"  pi_{row['index']:<3} dim {row['dim']:>{width}}   {cells}   total {row['total']}")
        print("model dims " + " + ".join(str(d) for _, d in js["model_dims"]) +
              f" = {js['dim_check']['model_total']}"
              f" vs sum of irreducible dims = {js['dim_check']['irreducible_total']}")
        flags = js["flags"]
        print(f"existence={flags['existence']} disjointness={flags['disjointness']} "
              f"uniqueness={flags['uniqueness']} gelfand={flags['gelfand']}")
        print(f"({payload['meta']['seconds']}s)")

    _emit(payload, args.format, render)
    return EXIT_OK if report.gelfand else EXIT_FAIL


def _kappa_payload(param: TadicParameter) -> dict:
    kt = kappa(param)
    dual = dual_model_type(kt)
    return {
        "n": param.n,
        "blocks": [str(e) for e in param.entries],
        "kappa": {"r": kt.r, "k": kt.k},
        "model": kt.model,
        "unitary_valid": validate_unitary(param),
        "dual_model": {
            "group": dual.group,
            "character": dual.character,
            "applies_to": dual.applies_to,
        },
        "meta": _meta(),
    }


def cmd_kappa(args) -> int:
    param = parse_parameter(args.param)
    if args.n is not None and args.n != param.n:
        raise DegreeMismatch(f"parameter has degree {param.n}, --n says {args.n}")
    payload = _kappa_payload(param)

    def render(js):
        print(f"parameter: {' x '.join(js['blocks'])}")
        print(f"n = {js['n']}, kappa: (r, 2k) = ({js['kappa']['r']}, {2 * js['kappa']['k']})")
        print(f"model: {js['model']}")
        print(f"unitary (Tadic gate): {js['unitary_valid']}")
        print(f"contragredient carries {js['dual_model']['group']} with "
              f"{js['dual_model']['character']}")

    _emit(payload, args.format, render)
    return EXIT_OK


def cmd_derive(args) -> int:
    param = parse_parameter(args.param)
    blocks = param.expanded_blocks()
    stages = []
    while blocks:
        order, blocks = product_highest_derivative(blocks)
        stages.append(
            {
                "order": order,
                "blocks": [str(b) for b in blocks],
                "param": str(_as_plain_param(blocks)) if blocks else None,
            }
        )
    payload = {
        "input": str(param),
        "n": param.n,
        "stages": stages,
        "steps": len(stages),
        "orders": [s["order"] for s in stages],
        "meta": _meta(),
    }

    def render(js):
        print(f"input: {js['input']} (n = {js['n']})")
        for depth, stage in enumerate(js["stages"], start=1):
            target = stage["param"] if stage["param"] else "(empty)"
            print(f"  step {depth}: derivative order {stage['order']} -> {target}")
        print(f"exhausted after {js['steps']} steps; orders {js['orders']}")

    _emit(payload, args.format, render)
    return EXIT_OK


def _as_plain_param(blocks) -> TadicParameter:
    from .speh import ParamBlock

    return TadicParameter([ParamBlock(b) for b in blocks])


def cmd_period(args) -> int:
    if args.tol is not None:
        if not args.zeta:
            raise UsageError("--tol applies only with --zeta")
        if not args.tol > 0:  # false for nan as well
            raise UsageError(f"--tol must be positive, got {args.tol}")
    expr = period_formula(args.t)
    payload = {
        "t": args.t,
        "formula": expr.to_string(),
        "tree": expr.to_json(),
        "atoms": sorted(expr.atoms()),
        "normalization": "up to measure normalization",
        "meta": _meta(),
    }
    if args.t >= 2:
        payload["norm_constant"] = norm_constant(args.t).to_string()
    if args.t >= 3 and args.t % 2 == 1:
        payload["intertwining_eigenvalue"] = intertwining_eigenvalue(args.t).to_string()
    if args.zeta:
        if args.tol is None:
            assignment = zeta_assignment(expr)
        else:
            assignment = zeta_assignment(expr, tol=args.tol)
        payload["assignment"] = {k: v for k, v in sorted(assignment.items())}
        payload["value"] = evaluate_period(expr, assignment)

    def render(js):
        print(f"|period|^2 for t = {js['t']}: {js['formula']}")
        if "norm_constant" in js:
            print(f"norm constant: {js['norm_constant']}")
        if "intertwining_eigenvalue" in js:
            print(f"intertwining eigenvalue at w_Q: {js['intertwining_eigenvalue']}")
        if "value" in js:
            print(f"zeta instance: {js['value']:.7f} (up to measure normalization)")

    _emit(payload, args.format, render)
    return EXIT_OK


def cmd_residue_survival(args) -> int:
    report = residue_survival(args.t)
    payload = {
        "t": report.t,
        "m": report.m,
        "required_order": 2 * report.m,
        "terms": [
            {
                "i": term.i,
                "cycle": term.weyl.cycle_string(),
                "descents": sorted(term.descents),
                "bookkeeping": sorted(term.bookkeeping),
                "pole_order": term.pole_order,
                "survives": term.survives,
            }
            for term in report.terms
        ],
        "survivors": report.survivors,
        "w_q_index": report.w_q_index,
        "meta": _meta(),
    }

    def render(js):
        print(f"t = {js['t']} (m = {js['m']}), required pole order {js['required_order']}:")
        for term in js["terms"]:
            mark = "survives" if term["survives"] else "dies"
            print(f"  w^({term['i']}) = {term['cycle']:>14}  descents {term['descents']}  "
                  f"set {term['bookkeeping']}  order {term['pole_order']}  {mark}")
        print(f"survivors: {js['survivors']} (w_Q is i = {js['w_q_index']})")

    _emit(payload, args.format, render)
    return EXIT_OK


def cmd_table(args) -> int:
    opts = _resolve_group_options(args)
    table = load_or_compute_table(args.n, args.q, cache_dir=opts["cache_dir"],
                                  max_elements=opts["max_elements"])
    arena = build_arena(table.order, table.exponent(), table.field.p, ell=args.ell)
    chars = character_table(table, arena)
    payload = {
        "n": args.n,
        "q": args.q,
        "order": table.order,
        "ell": arena.ell,
        "classes": [
            {
                "index": i,
                "size": cls.size,
                "representative": [
                    list(cls.representative[r * args.n:(r + 1) * args.n]) for r in range(args.n)
                ],
                "invariant_factors": [list(f) for f in cls.invariant_factors],
                "inverse_class": cls.inverse_class,
            }
            for i, cls in enumerate(table.classes)
        ],
        "dims": [cf.dimension(table) for cf in chars],
        "characters": [list(cf.values) for cf in chars],
        "note": "character values are residues mod ell; no complex lifting",
        "meta": _meta(),
    }

    def render(js):
        print(f"GL_{js['n']}(F_{js['q']}): |G| = {js['order']}, "
              f"{len(js['classes'])} classes, ell = {js['ell']}")
        sizes = [c["size"] for c in js["classes"]]
        print(f"class sizes: {sizes}")
        print(f"irreducible dimensions: {js['dims']}")
        for i, row in enumerate(js["characters"]):
            print(f"  chi_{i:<3} {row}")

    _emit(payload, args.format, render)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of all subcommands, built once per process."""
    parser = argparse.ArgumentParser(
        prog="klyachko",
        description="Exact computations around mixed Whittaker-symplectic models of GL_n",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-gelfand", help="verify the Gelfand-model property for GL_n(F_q)")
    _add_group_options(p)
    p.add_argument("--psi", type=int, default=1,
                   help="psi choice: exponent of the primitive p-th root (default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_verify_gelfand)

    p = sub.add_parser("kappa", help="Klyachko type of a parameter expression")
    p.add_argument("param", help='e.g. "U(rho:1,1,3)@0 x P(U(rho:1,2,2),1/4)"')
    p.add_argument("--n", type=int, default=None, help="expected degree (checked)")
    _add_common(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("derive", help="iterate highest derivatives until exhausted")
    p.add_argument("param")
    _add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("period", help="symbolic squared-period formula")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--zeta", action="store_true",
                   help="evaluate with L(j) = zeta(j), Res = 1, alpha = 1")
    p.add_argument("--tol", type=float, default=None,
                   help="error bound of each zeta value, with --zeta (default 1e-8)")
    _add_common(p)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("residue-survival", help="constant-term residue bookkeeping, t odd")
    p.add_argument("--t", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_residue_survival)

    p = sub.add_parser("table", help="dump conjugacy classes and the character table")
    _add_group_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegreeMismatch as exc:
        print(f"degree mismatch: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except (ResourceRefused, ArenaTooSmall, UsageError) as exc:
        # a cap exceeded, or bad usage such as a rejected --ell override
        # or environment value; ArenaTooSmall is caught before the
        # InvariantViolation it subclasses, as it is not an engine bug
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (KlyachkoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
