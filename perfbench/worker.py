"""The process in which one workload run calls the program.

    python3 perfbench/worker.py setup CACHE_DIR [N,Q ...]
    python3 perfbench/worker.py run PLAN_JSON RECORDS_JSONL

`setup` starts the interpreter, imports `klyachko.cli` and fills the
table cache for each (N, Q); run.py times it as the set-up. `run` calls
`klyachko.cli.main(argv)` for each operation of the plan, with stdout
and stderr captured, round after round until the plan's seconds are
used up, and writes one JSON line per operation plus a summary line.
Untraced, it samples the host's speed throughout (hostspeed.py) and
reports the mean reference time of each round.

With tracing on, rounds come in pairs: one untraced, one traced. A
traced round replaces the public functions of every layer, in every
module that imported them, by wrappers that record spans (name, parent,
start, end) in memory; the package itself is not changed. After the
rounds the per-call costs of `invariant_factors` and `mat_mul` are
timed in fixed passes over the traced groups, layers the workload never
entered are measured on a fixed probe, and the spans are written out
with their self times.
"""

from __future__ import annotations

import sys
import time

_T0 = time.perf_counter()
import klyachko.cli  # noqa: E402  (timed: this is the program's import cost)

IMPORT_S = time.perf_counter() - _T0

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import MIN_OWN_SAMPLES, Sampler  # noqa: E402

# (module, attribute) of each traced public function, named as its span
TRACED = (
    ("cli", "main"),
    ("gelfand", "verify_gelfand"),
    ("gelfand", "load_or_compute_table"),
    ("groups", "gl_enumerate"),
    ("groups", "conjugacy_classes"),
    ("groups", "GroupTable.exponent"),
    ("groups", "enumerate_h"),
    ("arena", "build_arena"),
    ("characters", "class_multiplication_tensor"),
    ("characters", "character_table"),
    ("characters", "induced_klyachko_character"),
    ("characters", "multiplicity"),
    ("tablecache", "save_table"),
    ("tablecache", "load_table"),
    ("paramparse", "parse_parameter"),
    ("speh", "kappa"),
    ("speh", "product_highest_derivative"),
    ("weyl", "residue_survival"),
    ("periods", "period_formula"),
    ("periods", "zeta_assignment"),
)

# per-layer metric -> (span, how): "round" sums self time over a round,
# "call" is the mean self time of one call in microseconds
SPAN_METRICS = {
    "groups.gl_enumerate_s": ("groups.gl_enumerate", "round"),
    "groups.conjugacy_classes_s": ("groups.conjugacy_classes", "round"),
    "groups.exponent_s": ("groups.GroupTable.exponent", "round"),
    "arena.build_arena_s": ("arena.build_arena", "round"),
    "characters.class_multiplication_tensor_s": ("characters.class_multiplication_tensor", "round"),
    "characters.character_table_s": ("characters.character_table", "round"),
    "groups.enumerate_h_s": ("groups.enumerate_h", "round"),
    "characters.induced_klyachko_character_s": ("characters.induced_klyachko_character", "round"),
    "characters.multiplicity_s": ("characters.multiplicity", "round"),
    "gelfand.verify_gelfand_s": ("gelfand.verify_gelfand", "round"),
    "tablecache.save_table_s": ("tablecache.save_table", "round"),
    "tablecache.load_table_s": ("tablecache.load_table", "round"),
    "cli.main_self_us": ("cli.main", "call"),
    "paramparse.parse_parameter_us": ("paramparse.parse_parameter", "call"),
    "speh.kappa_us": ("speh.kappa", "call"),
    "speh.product_highest_derivative_us": ("speh.product_highest_derivative", "call"),
    "weyl.residue_survival_us": ("weyl.residue_survival", "call"),
    "periods.period_formula_us": ("periods.period_formula", "call"),
    "periods.zeta_assignment_us": ("periods.zeta_assignment", "call"),
}

# work counts taken from results at a span, and the span they need
COUNT_METRICS = {
    "groups.elements": "groups.gl_enumerate",
    "groups.classes": "characters.character_table",
    "groups.h_elements": "groups.enumerate_h",
    "arena.ell": "arena.build_arena",
    "tablecache.bytes": "tablecache.save_table",
}

# ops that enter every layer, for the layers a workload never enters
PROBE_OPS = (
    ["verify-gelfand", "--n", "2", "--q", "2", "--format", "json", "--cache-dir", "{probe}"],
    ["verify-gelfand", "--n", "2", "--q", "2", "--format", "json", "--cache-dir", "{probe}"],
    ["kappa", "U(rho:1,1,3)@0 x P(U(rho:1,2,2),1/4)", "--format", "json"],
    ["derive", "U(rho:1,1,3)@0 x P(U(rho:1,2,2),1/4)", "--format", "json"],
    ["residue-survival", "--t", "5", "--format", "json"],
    ["period", "--t", "4", "--zeta", "--format", "json"],
)


class Tracer:
    """Spans and work counts of traced calls, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start ns, end ns]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.tables: dict[tuple[int, int], object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _counted(self, name: str, args: tuple, result) -> None:
        if name == "groups.gl_enumerate":
            self._add("groups.elements", result.order)
        elif name == "characters.character_table":
            self._add("groups.classes", len(result))
            self.tables[(args[0].n, args[0].q)] = args[0]
        elif name == "groups.enumerate_h":
            self._add("groups.h_elements", len(result))
        elif name == "arena.build_arena":
            self._add("arena.ell", result.ell)
        elif name == "tablecache.save_table":
            self._add("tablecache.bytes", os.path.getsize(args[1]))

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
            self._counted(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("klyachko.") and m]
        for module_name, attr in TRACED:
            owner = sys.modules[f"klyachko.{module_name}"]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(f"{module_name}.{attr}", cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, first: int = 0) -> list[int]:
        """Self time of each span from `first` on: its duration minus
        the durations of its direct children."""
        spans = self.spans
        own = [s[3] - s[2] for s in spans[first:]]
        for s in spans[first:]:
            if s[1] >= first:
                own[s[1] - first] -= s[3] - s[2]
        return own

    def layer_totals(self, first: int = 0) -> dict[str, list[int]]:
        """{span name: [calls, total self ns]} over spans from `first` on."""
        out: dict[str, list[int]] = {}
        for span, own in zip(self.spans[first:], self.self_times(first)):
            entry = out.setdefault(span[0], [0, 0])
            entry[0] += 1
            entry[1] += own
        return out


def run_op(argv: list[str], sampler: Sampler | None = None) -> tuple[int | str, float, str, str]:
    """Exit code (or "exception"), seconds inside main, stdout, stderr.
    Time the sampler's handler spent inside main is not counted."""
    out, err = io.StringIO(), io.StringIO()
    busy = sampler.busy if sampler else 0.0
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = klyachko.cli.main(argv)
        except SystemExit as exc:  # argparse refusing its argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op; the run goes on
            code = "exception"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    if sampler:
        seconds -= sampler.busy - busy
    return code, seconds, out.getvalue(), err.getvalue()


def op_argv(op: dict, plan: dict, work: Path) -> tuple[list[str], Path | None]:
    """The op's argv with its cache directory; a directory to remove after."""
    argv = list(op["argv"])
    cache = op.get("cache")
    if cache == "fresh":
        fresh = Path(tempfile.mkdtemp(dir=work))
        return argv + ["--cache-dir", str(fresh)], fresh
    if cache == "warm":
        argv += ["--cache-dir", plan["warm_dir"]]
    elif cache == "corrupt":
        # restore the corrupt file: the program may have replaced it
        corrupt_dir = Path(plan["corrupt_dir"])
        shutil.copyfile(plan["corrupt_src"], corrupt_dir / plan["corrupt_name"])
        argv += ["--cache-dir", str(corrupt_dir)]
    return argv, None


def run_round(plan: dict, work: Path, records, round_no: int = 0,
              sampler: Sampler | None = None) -> float:
    """One pass over the plan's ops; returns the seconds spent in main."""
    total = 0.0
    for index, op in enumerate(plan["ops"]):
        argv, fresh = op_argv(op, plan, work)
        first = len(sampler.samples) if sampler else 0
        code, seconds, out, err = run_op(argv, sampler)
        own = sampler.samples[first:] if sampler else []
        # an op long enough to hold its own samples is corrected by them
        ref = statistics.mean(own) if len(own) >= MIN_OWN_SAMPLES else None
        if fresh is not None:
            shutil.rmtree(fresh)
        total += seconds
        records.write(json.dumps({"op": index, "round": round_no, "code": code, "s": seconds,
                                  "ref": ref, "out": out, "err": err[-2000:]}))
        records.write("\n")
    return total


def unit_costs(tables: dict) -> dict[str, float]:
    """Microseconds per invariant_factors call over each group's own
    elements, and per mat_mul over one class's products (class 1)."""
    from klyachko.fqpoly import invariant_factors
    from klyachko.gf import mat_mul

    inv_ns = inv_calls = mul_ns = mul_calls = 0
    for table in tables.values():
        n, field = table.n, table.field
        start = time.perf_counter_ns()
        for el in table.elements:
            invariant_factors(el, n, field)
        inv_ns += time.perf_counter_ns() - start
        inv_calls += table.order
        inverses = table.inverses()
        rep = table.classes[1].representative
        start = time.perf_counter_ns()
        for x in inverses:
            mat_mul(x, rep, n, field)
        mul_ns += time.perf_counter_ns() - start
        mul_calls += table.order
    return {"fqpoly.invariant_factors_us": inv_ns / inv_calls / 1e3,
            "gf.mat_mul_us": mul_ns / mul_calls / 1e3}


def layer_metrics(rounds: list[dict], counts: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the traced rounds' span totals and counts;
    a metric whose span no round entered is left out."""
    out = {}
    for metric, (span, how) in SPAN_METRICS.items():
        entered = [r[span] for r in rounds if span in r]
        if not entered:
            continue
        if how == "round":
            out[metric] = statistics.median(r.get(span, [0, 0])[1] / 1e9 for r in rounds)
        else:
            out[metric] = sum(e[1] for e in entered) / sum(e[0] for e in entered) / 1e3
    for metric, span in COUNT_METRICS.items():
        if any(span in r for r in rounds):
            out[metric] = statistics.median(c.get(metric, 0) for c in counts)
    return out


def run_traced(plan: dict, work: Path, records, trace_out: Path) -> dict:
    """Pairs of untraced and traced rounds; returns the per-layer metrics."""
    tracer = Tracer()
    plain, traced, layer_rounds, count_rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_round(plan, work, records))
        first = len(tracer.spans)
        tracer.counts = {}
        tracer.install()
        try:
            traced.append(run_round(plan, work, records))
        finally:
            tracer.uninstall()
        layer_rounds.append(tracer.layer_totals(first))
        count_rounds.append(tracer.counts)
        if time.perf_counter() - start >= plan["seconds"]:
            break
    layers = layer_metrics(layer_rounds, count_rounds)
    self_s = {name: total[1] / 1e9 for name, total in sorted(tracer.layer_totals().items())}
    probe_from = len(tracer.spans)
    tables = dict(tracer.tables)
    probed = [m for m in list(SPAN_METRICS) + list(COUNT_METRICS) if m not in layers]
    layers.update({m: v for m, v in probe(tracer, work).items() if m in probed})
    layers.update(unit_costs(tables or tracer.tables))
    layers["cli.import_s"] = IMPORT_S
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    own = tracer.self_times()
    trace_out.write_text(json.dumps({
        "spans": [{"name": s[0], "parent": s[1], "start_ns": s[2], "end_ns": s[3],
                   "self_ns": own[i], "probe": i >= probe_from}
                  for i, s in enumerate(tracer.spans)],
        "self_s": self_s,
        "layers": layers,
        "probed": probed,
        "untraced_round_s": plain,
        "traced_round_s": traced,
    }, indent=1))
    return layers


def probe(tracer: Tracer, work: Path) -> dict[str, float]:
    """Per-layer metrics of one traced pass of PROBE_OPS."""
    probe_dir = tempfile.mkdtemp(dir=work)
    first = len(tracer.spans)
    tracer.counts = {}
    tracer.install()
    try:
        for argv in PROBE_OPS:
            code, _, _, err = run_op([a.replace("{probe}", probe_dir) for a in argv])
            if code != 0:
                raise RuntimeError(f"probe {argv} exited {code}: {err}")
    finally:
        tracer.uninstall()
    return layer_metrics([tracer.layer_totals(first)], [tracer.counts])


def run_plain(plan: dict, work: Path, records) -> dict:
    """Whole rounds until the plan's seconds are used, with the host's
    speed sampled throughout; peak RSS is read after the first round, so
    it does not depend on how many rounds fit."""
    rounds, reference, rss_kib = [], [], 0
    start = time.perf_counter()
    with Sampler() as sampler:
        while not rounds or time.perf_counter() - start < plan["seconds"]:
            first = len(sampler.samples)
            sampler.sample_now()
            rounds.append(run_round(plan, work, records, len(rounds), sampler))
            sampler.sample_now()
            reference.append(statistics.mean(sampler.samples[first:]))
            rss_kib = rss_kib or peak_rss_kib()
    return {"rounds": rounds, "reference_s": reference, "rss_kib": rss_kib}


def peak_rss_kib() -> int:
    """Peak resident memory of this process. Unlike ru_maxrss, VmHWM
    leaves out the pages the parent had before this process was exec'd."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(cache_dir: str, groups: list[str]) -> None:
    from klyachko.gelfand import load_or_compute_table

    for group in groups:
        n, q = map(int, group.split(","))
        load_or_compute_table(n, q, cache_dir=cache_dir)


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3:])
        return 0
    plan = json.loads(Path(sys.argv[2]).read_text())
    work = Path(plan["work"])
    with open(sys.argv[3], "w") as records:
        if plan["trace"]:
            summary = {"layers": run_traced(plan, work, records, Path(plan["trace_out"]))}
        else:
            summary = run_plain(plan, work, records)
        records.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
