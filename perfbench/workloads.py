"""Operations of each workload, made from the seed, and the checks on
their outputs.

An operation is the argv a user would type after `klyachko`, plus what
the checks need to know about it. One round is a fixed list of
operations; a run repeats the same round until its time is up, so every
run attempts whole rounds and the corrupt-cache operation of
`gelfand-warm` is always the same share of the attempts.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import jsonschema

import oracle

WORKLOADS = ("gelfand-cold", "gelfand-warm", "gelfand-wide", "symbolic")

# few classes and large |G|: classify and the class tensor do the work
FEW_CLASSES = ((3, 3), (4, 2))
# many classes and small |G|: the eigen-split in character_table does
MANY_CLASSES = ((2, 8), (2, 9))
SMOKE_GROUPS = ((2, 2), (2, 3))

# The corrupt cache of gelfand-warm: a valid GL_2(F_3) table whose
# class_of entries for elements 1 and 2 (labels 1 and 2) are swapped.
CORRUPT_GROUP = (2, 3)
CORRUPT_SWAP = (1, 2)

# one symbolic round, stratified so that every seed gets the same mix of
# costs: each residue-survival t and each period t occurs equally often
RESIDUE_TS = tuple(range(3, 102, 2))  # 50 odd t
PERIOD_TS = tuple(range(1, 41))
PERIOD_TOL = 1e-10
SYMBOLIC_ROUND = {"kappa": 300, "derive": 300, "residue": 200, "period": 200}
SMOKE_SYMBOLIC_ROUND = {"kappa": 10, "derive": 10, "residue": 10, "period": 10}

LABELS = ("rho", "sigma", "tau", "chi", "pi1", "omega_2")


def build_plan(workload: str, seed: int, smoke: bool = False) -> dict:
    """Operations of one round, and what set-up must prepare for them."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "symbolic":
        return {"ops": _symbolic_round(rng, smoke), "fill": []}
    groups = SMOKE_GROUPS if smoke else (MANY_CLASSES if workload == "gelfand-wide" else FEW_CLASSES)
    cache = {"gelfand-cold": "fresh", "gelfand-warm": "warm", "gelfand-wide": None}[workload]
    # a fixed order: peak RSS depends on which group comes first
    ops = [_gelfand_op(n, q, _psi(rng, q), cache) for n, q in groups]
    if workload != "gelfand-warm":
        return {"ops": ops, "fill": []}
    n, q = CORRUPT_GROUP
    ops.append({
        "argv": ["verify-gelfand", "--n", str(n), "--q", str(q), "--format", "json"],
        "cache": "corrupt",
        "check": {"kind": "gelfand", "n": n, "q": q, "psi": 1},
    })
    return {"ops": ops, "fill": sorted(set(groups) | {CORRUPT_GROUP})}


def _psi(rng: random.Random, q: int) -> int:
    """A nontrivial psi: an exponent in [1, p) of the primitive p-th root.
    Multiplicities must not depend on it."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    return rng.randrange(1, p)


def _gelfand_op(n: int, q: int, psi: int, cache: str | None) -> dict:
    argv = ["verify-gelfand", "--n", str(n), "--q", str(q), "--psi", str(psi), "--format", "json"]
    if cache is None:
        argv.append("--no-cache")
    return {"argv": argv, "cache": cache, "check": {"kind": "gelfand", "n": n, "q": q, "psi": psi}}


def _symbolic_round(rng: random.Random, smoke: bool) -> list[dict]:
    mix = SMOKE_SYMBOLIC_ROUND if smoke else SYMBOLIC_ROUND
    ops = []
    for i in range(mix["kappa"]):
        blocks = _blocks(rng, 1 + i % 4)
        argv = ["kappa", _render(blocks), "--format", "json"]
        if i % 2:
            argv += ["--n", str(oracle.kappa(blocks)[0])]
        ops.append({"argv": argv, "check": {"kind": "kappa", "blocks": blocks}})
    for i in range(mix["derive"]):
        blocks = _blocks(rng, 1 + i % 4)
        ops.append({"argv": ["derive", _render(blocks), "--format", "json"],
                    "check": {"kind": "derive", "blocks": blocks}})
    for i in range(mix["residue"]):
        t = RESIDUE_TS[i % len(RESIDUE_TS)]
        ops.append({"argv": ["residue-survival", "--t", str(t), "--format", "json"],
                    "check": {"kind": "residue", "t": t}})
    for i in range(mix["period"]):
        t = PERIOD_TS[i % len(PERIOD_TS)]
        ops.append({"argv": ["period", "--t", str(t), "--zeta", "--tol", str(PERIOD_TOL),
                             "--format", "json"],
                    "check": {"kind": "period", "t": t}})
    rng.shuffle(ops)
    return ops


def _blocks(rng: random.Random, count: int) -> list[dict]:
    blocks = []
    for _ in range(count):
        paired = rng.random() < 0.3
        if paired:
            alpha = Fraction(rng.randint(1, 6), rng.choice((7, 11, 12))) * rng.choice((1, -1))
        elif rng.random() < 0.6:
            alpha = Fraction(0)
        else:
            alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        blocks.append({
            "label": rng.choice(LABELS), "dual": rng.random() < 0.25,
            "degree": rng.randint(1, 3), "d": rng.randint(1, 3), "t": rng.randint(1, 6),
            "paired": paired, "alpha": str(alpha),
        })
    return blocks


def _render(blocks: list[dict]) -> str:
    parts = []
    for b in blocks:
        inner = f"U({b['label']}{'~' if b['dual'] else ''}:{b['degree']},{b['d']},{b['t']})"
        parts.append(f"P({inner},{b['alpha']})" if b["paired"] else f"{inner}@{b['alpha']}")
    return " x ".join(parts)


# -- checks ---------------------------------------------------------------

SCHEMAS = {"gelfand": "gelfand-report", "kappa": "kappa", "derive": "derive",
           "residue": "residue-survival", "period": "period"}


class Checker:
    """Checks one operation's stdout against the oracle and against
    properties the method must have; the schemas come from the checkout."""

    def __init__(self, schema_dir: Path):
        self.validators = {}
        for kind, name in SCHEMAS.items():
            schema = json.loads((schema_dir / f"{name}.schema.json").read_text())
            self.validators[kind] = jsonschema.Draft202012Validator(schema)

    def problem(self, check: dict, stdout: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        try:
            js = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        error = jsonschema.exceptions.best_match(self.validators[check["kind"]].iter_errors(js))
        if error is not None:
            return f"schema: {error.message}"
        return getattr(self, "_" + check["kind"])(check, js)

    @staticmethod
    def _gelfand(check: dict, js: dict) -> str | None:
        n, q = check["n"], check["q"]
        if (js["n"], js["q"], js["psi_seed"]) != (n, q, check["psi"]):
            return f"report is for {(js['n'], js['q'], js['psi_seed'])}"
        if js["class_count"] != oracle.class_count(n, q) or len(js["rows"]) != js["class_count"]:
            return f"{js['class_count']} classes, {len(js['rows'])} rows, want {oracle.class_count(n, q)}"
        if any(row["total"] != 1 for row in js["rows"]):
            return "a row total is not 1"
        dims = oracle.model_dims(n, q)
        if js["model_dims"] != [[k, d] for k, d in enumerate(dims)]:
            return f"model_dims {js['model_dims']}, want {dims}"
        hist: dict[int, int] = {}
        for row in js["rows"]:
            for k, m in row["mults"]:
                if m:
                    hist[k] = hist.get(k, 0) + 1
        if hist != oracle.model_histogram(n, q):
            return f"model columns {hist}, want {oracle.model_histogram(n, q)}"
        irr = [row["dim"] for row in js["rows"]]
        if sum(irr) != sum(dims) or js["dim_check"]["irreducible_total"] != sum(irr):
            return f"sum of dims {sum(irr)}, model total {sum(dims)}"
        if sum(d * d for d in irr) != oracle.gl_order(n, q):
            return "squared dimensions do not sum to |G|"
        if not all(js["flags"].values()) or not js["dim_check"]["equal"]:
            return f"flags {js['flags']}"
        return None

    @staticmethod
    def _kappa(check: dict, js: dict) -> str | None:
        n, r, k = oracle.kappa(check["blocks"])
        got = (js["n"], js["kappa"]["r"], js["kappa"]["k"])
        if got != (n, r, k) or r + 2 * k != n:
            return f"(n, r, k) = {got}, want {(n, r, k)}"
        if js["unitary_valid"] != oracle.unitary(check["blocks"]):
            return f"unitary_valid = {js['unitary_valid']}"
        return None

    @staticmethod
    def _derive(check: dict, js: dict) -> str | None:
        want = oracle.derive_orders(check["blocks"])
        if js["orders"] != want or sum(js["orders"]) != js["n"] or js["steps"] != len(want):
            return f"orders {js['orders']} for n = {js['n']}, want {want}"
        return None

    @staticmethod
    def _residue(check: dict, js: dict) -> str | None:
        t = check["t"]
        if js["t"] != t or js["survivors"] != [t] or len(js["terms"]) != t:
            return f"t = {js['t']}: survivors {js['survivors']} of {len(js['terms'])} terms"
        return None

    @staticmethod
    def _period(check: dict, js: dict) -> str | None:
        t = check["t"]
        want = oracle.period_zeta_value(t)
        if js["t"] != t or abs(js["value"] - want) > PERIOD_TOL:
            return f"t = {t}: value {js['value']!r}, want {float(want)!r}"
        for atom, value in js["assignment"].items():
            if atom.startswith("L(") and abs(value - oracle.zeta(int(atom[2:-1]))) > PERIOD_TOL:
                return f"t = {t}: {atom} = {value!r}"
        return None
