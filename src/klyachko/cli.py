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
caps exceeded, such as the enumeration cap, a --t of residue-survival
or period above MAX_T = 1001 or a derive parameter whose block t add
up to more than it, a paired block counting twice, or bad usage);
3 internal invariant violation; 4 parse error in a parameter
expression; 5 degree mismatch.

Environment: KLYACHKO_CACHE_DIR (group and character table cache location),
KLYACHKO_MAX_ELEMENTS (enumeration cap).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .characters import dimension
from .errors import (
    ArenaTooSmall,
    DegreeMismatch,
    InvariantViolation,
    KlyachkoError,
    ParseError,
    ResourceRefused,
    UsageError,
)
from .gelfand import load_or_compute_characters, load_or_compute_table, verify_gelfand
from .gf import field_from_q
from .groups import DEFAULT_MAX_ELEMENTS
from .paramparse import parse_parameter
from .periods import (
    ZETA_TOL,
    evaluate_period,
    intertwining_eigenvalue,
    norm_constant,
    period_formula,
    zeta_assignment,
)
from .speh import (
    block_text,
    expanded_blocks,
    kappa,
    parameter_degree,
    parameter_text,
    product_highest_derivative,
    validate_unitary,
)
from .weyl import residue_survival

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_REFUSED = 2
EXIT_INVARIANT = 3
EXIT_PARSE = 4
EXIT_DEGREE = 5

ENV_CACHE_DIR = "KLYACHKO_CACHE_DIR"
ENV_MAX_ELEMENTS = "KLYACHKO_MAX_ELEMENTS"

# the largest --t of residue-survival and period, and the largest sum of
# the block t of a derive parameter, a paired block counting twice: the
# residue report grows as t^2 (15 MB of JSON at t = 1001, where a new
# process takes 0.34-0.43 s and peaks at 66 MiB in JSON, and 0.26-0.31 s
# and 50 MiB in text, as _emit writes the parts without joining them, on
# a 2-core shared x86_64 host with Python 3.11), the period report as t
# and the derive report as the sum of the block t (each stage lists the
# blocks it keeps)
MAX_T = 1001


def _meta() -> dict:
    return {"version": __version__}


def _json_parts(value, parts: list, pad: str) -> None:
    """Append the text of `json.dumps(value, indent=2)` to `parts`; `pad`
    is a newline and the indent of the line that `value` starts on.

    With `indent` set, the stdlib encodes in pure Python, one generator
    step per value. Here a list of plain ints is one C-level join, a
    plain int is `int.__repr__`, and True, False and None are the
    literals true, false and null, as in the stdlib's encoder. Keys and
    other scalars are encoded by the stdlib. A key that is not a str, or
    a value of no JSON type, raises TypeError."""
    if type(value) is int:
        parts.append(int.__repr__(value))
    elif value is True or value is False:
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts += (sep, encode_basestring_ascii(key), ": ")
            _json_parts(item, parts, inner)
            sep = "," + inner
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            parts += ("[" + inner, ("," + inner).join(map(int.__repr__, value)), pad + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _json_parts(item, parts, inner)
            sep = "," + inner
        parts.append(pad + "]")
    elif isinstance(value, (int, float)):
        parts.append(json.dumps(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict, fmt: str, text_renderer) -> None:
    """Write the payload as `json.dumps(payload, indent=2)` and a newline,
    byte for byte, or render it as text."""
    if fmt == "json":
        parts = []
        _json_parts(payload, parts, "\n")
        parts.append("\n")
        sys.stdout.writelines(parts)
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
    payload = verify_gelfand(table, ell=args.ell, psi=args.psi, cache_dir=opts["cache_dir"])
    payload["meta"] = {**_meta(), "seconds": round(time.monotonic() - start, 3)}

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
    return EXIT_OK if payload["flags"]["gelfand"] else EXIT_FAIL


def _kappa_payload(param, n: int) -> dict:
    r, k = kappa(param)
    return {
        "n": n,
        "blocks": [block_text(b) for b in param],
        "kappa": {"r": r, "k": k},
        "model": f"H_{{{r},{2 * k}}} with psi_{r}",
        "unitary_valid": validate_unitary(param),
        "dual_model": {  # the contragredient's model lives on the primed family
            "group": f"H'_{{{2 * k},{r}}}",
            "character": f"conjugate psi'_{r}",
            "applies_to": "contragredient",
        },
        "meta": _meta(),
    }


def cmd_kappa(args) -> int:
    param = parse_parameter(args.param)
    n = parameter_degree(param)
    if args.n is not None and args.n != n:
        raise DegreeMismatch(f"parameter has degree {n}, --n says {args.n}")
    payload = _kappa_payload(param, n)

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
    blocks = expanded_blocks(param)
    _refuse_large_t("sum of block t", sum(b.t for b in blocks))
    stages = []
    while blocks:
        order, blocks = product_highest_derivative(blocks)
        texts = [block_text(b) for b in blocks]
        stages.append(
            {
                "order": order,
                "blocks": texts,
                "param": " x ".join(t for _, t in sorted(zip(blocks, texts))) if blocks else None,
            }
        )
    payload = {
        "input": parameter_text(param),
        "n": parameter_degree(param),
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


def _refuse_large_t(name: str, t: int) -> None:
    """Refuse a t above MAX_T before any work; `name` says where it came from."""
    if t > MAX_T:
        raise ResourceRefused(f"{name} {t} is above the cap {MAX_T}")


def cmd_period(args) -> int:
    _refuse_large_t("--t", args.t)
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
        assignment = zeta_assignment(expr, tol=ZETA_TOL if args.tol is None else args.tol)
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
    _refuse_large_t("--t", args.t)
    payload = residue_survival(args.t)
    payload["meta"] = _meta()

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
    arena, chars = load_or_compute_characters(table, args.ell, opts["cache_dir"])
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
        "dims": [dimension(chi, table, arena) for chi in chars],
        "characters": [list(chi) for chi in chars],
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
                   help=f"error bound of each zeta value, with --zeta (default {ZETA_TOL})")
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
