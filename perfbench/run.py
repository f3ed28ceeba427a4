"""Benchmark of the klyachko CLI, one workload per run (or all four).

    python3 perfbench/run.py --workload gelfand-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Set-up (timed as `setup_s`) starts the
interpreter and imports `klyachko.cli` several times, filling the table
cache on `gelfand-warm`. The workload's operations then run in one
process of their own (perfbench/worker.py) through
`klyachko.cli.main(argv)`, round after round for `--seconds`. Every
output is checked against perfbench/oracle.py and the JSON schemas. The
last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics from a traced run with `--trace 1`). `--smoke` runs every
workload both ways on tiny inputs. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_REPEATS = {"gelfand-warm": 3}  # filling the cache is the slow set-up
DEFAULT_SETUP_REPEATS = 7
P99_MIN_SAMPLES = 1000  # the 99th percentile needs >= 10 samples beyond it
REF_BRACKET = 5  # reference samples before and after each set-up

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "op_p50_ms": "ms", "op_p99_ms": "ms"}
PER_LAYER_UNITS = {"elements": "count", "classes": "count", "h_elements": "count",
                   "ell": "count", "bytes": "B"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _call(argv: list[str], deadline: float) -> None:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    proc = subprocess.run(argv, env=_child_env(), timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")


def _corrupt(valid: Path, target: Path) -> None:
    """Copy a valid table cache with two class_of labels swapped.

    In the cache layout the element count is the u32 after the 8-byte
    magic and four u8 fields, and class_of is the trailing u16 array of
    one label per element."""
    raw = bytearray(valid.read_bytes())
    (count,) = struct.unpack_from("<I", raw, 12)
    off = len(raw) - 2 * count
    labels = list(struct.unpack_from(f"<{count}H", raw, off))
    i, j = workloads.CORRUPT_SWAP
    if labels[i] == labels[j]:
        raise BenchError(f"{valid}: elements {i} and {j} share a class; nothing to corrupt")
    labels[i], labels[j] = labels[j], labels[i]
    struct.pack_into(f"<{count}H", raw, off, *labels)
    target.write_bytes(bytes(raw))


def _setup(plan: dict, workload: str, work: Path, deadline: float, smoke: bool) -> list[float]:
    """Time the set-up several times, each corrected for the host speed
    seen just before and after it; leave the last filled cache in plan."""
    times = []
    groups = [f"{n},{q}" for n, q in plan["fill"]]
    for _ in range(1 if smoke else SETUP_REPEATS.get(workload, DEFAULT_SETUP_REPEATS)):
        cache = Path(tempfile.mkdtemp(dir=work))
        before = [hostspeed.reference() for _ in range(REF_BRACKET)]
        start = time.perf_counter()
        _call([sys.executable, str(WORKER), "setup", str(cache), *groups], deadline)
        seconds = time.perf_counter() - start
        after = [hostspeed.reference() for _ in range(REF_BRACKET)]
        times.append(seconds * hostspeed.bracket_factor(before, after))
    if plan["fill"]:
        plan["warm_dir"] = str(cache)
        n, q = workloads.CORRUPT_GROUP
        name = f"gl{n}_q{q}.tbl"
        plan["corrupt_src"] = str(work / "corrupt.tbl")
        plan["corrupt_dir"] = tempfile.mkdtemp(dir=work)
        plan["corrupt_name"] = name
        _corrupt(cache / name, Path(plan["corrupt_src"]))
    return times


def _check_records(path: Path, plan: dict, checker: workloads.Checker):
    """Read the worker's records one line at a time and check each output.

    Returns the summary, the records without their outputs, and the
    problems found. An output already seen for the same check is not
    checked again: it gets the same verdict."""
    summary, records, problems = None, [], []
    verdicts: dict[tuple[str, bytes], str | None] = {}
    with open(path) as lines:
        for line in lines:
            rec = json.loads(line)
            if "summary" in rec:
                summary = rec["summary"]
                continue
            op = plan["ops"][rec["op"]]
            out = rec.pop("out")
            records.append(rec)
            if rec["code"] != 0:
                problems.append(f"failed, exit {rec['code']}: {' '.join(op['argv'])}: "
                                f"{rec['err'].strip()[-300:]}")
                continue
            key = (json.dumps(op["check"], sort_keys=True), hashlib.sha256(out.encode()).digest())
            if key not in verdicts:
                verdicts[key] = checker.problem(op["check"], out)
            if verdicts[key]:
                problems.append(f"wrong: {' '.join(op['argv'])}: {verdicts[key]}")
    if summary is None:
        raise BenchError("the worker wrote no summary")
    return summary, records, problems


def _p99(values: list[float]) -> float:
    """The 99th percentile by nearest rank once there are enough samples;
    with fewer (the gelfand workloads) the slowest operation."""
    ordered = sorted(values)
    if len(ordered) < P99_MIN_SAMPLES:
        return ordered[-1]
    return ordered[-(len(ordered) // 100) - 1]


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 smoke: bool = False) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    plan = workloads.build_plan(workload, seed, smoke)
    checker = workloads.Checker(ROOT / "schemas")
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="work-"))
    try:
        setup_times = _setup(plan, workload, work, deadline, smoke)
        plan.update(seconds=seconds, trace=trace, work=str(work),
                    trace_out=str(OUT_DIR / f"trace-{workload}-seed{seed}.json"))
        plan_file, records_file = work / "plan.json", work / "records.jsonl"
        plan_file.write_text(json.dumps(plan))
        _call([sys.executable, str(WORKER), "run", str(plan_file), str(records_file)], deadline)
        summary, records, problems = _check_records(records_file, plan, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(rec["code"] != 0 for rec in records)
    wrong = sum(p.startswith("wrong") for p in problems)
    for line in dict.fromkeys(problems):  # each distinct problem once
        print(line, file=sys.stderr)

    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in summary["layers"].items()}
    else:
        factor = [hostspeed.REF_NOMINAL_S / r for r in summary["reference_s"]]
        latencies = [rec["s"] * (hostspeed.REF_NOMINAL_S / rec["ref"] if rec["ref"]
                                 else factor[rec["round"]]) for rec in records]
        raw_wall = statistics.median(summary["rounds"])
        print(f"{workload}: {len(summary['rounds'])} rounds, median {raw_wall:.4g} s as measured, "
              f"host speed factors {[round(f, 3) for f in factor]}")
        values = {
            "wall_s": statistics.median(w * f for w, f in zip(summary["rounds"], factor)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": summary["rss_kib"] / 1024,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p99_ms": _p99(latencies) * 1e3,
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    return {"correct": wrong == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[suffix]
    return suffix.rsplit("_", 1)[1]  # "..._s" or "..._us"


def smoke() -> int:
    """Every workload, untraced and traced, on tiny inputs."""
    ok = True
    for problem in oracle.self_check():
        print(f"oracle: {problem}", file=sys.stderr)
        ok = False
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed=1, seconds=0, trace=trace, smoke=True)
            rounds = result["attempted"] // len(workloads.build_plan(workload, 1, True)["ops"])
            expected_failed = rounds if workload == "gelfand-warm" else 0
            want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            good = result["correct"] and result["failed"] == expected_failed and got == want
            ok = ok and good
            print(f"{workload} trace={int(trace)}: {'ok' if good else 'BAD'} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"metrics {'as declared' if got == want else got}")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and check on tiny inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "klyachko" / "cli.py").is_file() or not (ROOT / "schemas").is_dir():
        print(f"no klyachko sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required without --smoke")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        if args.smoke:
            return smoke()
        for name in names:
            result = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
            print(f"{name} attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    # one workload: its result; all: the results by workload
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
