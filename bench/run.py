#!/usr/bin/env python3
"""ltclab benchmark: four workloads, end-to-end metrics and a traced per-layer run.

One run, from the root of a checkout:

    python3 bench/run.py --workload cube_sweep --seed 1 --seconds 25 --trace 0

measures the workload in a child process (bench/workloads.py) with numpy and
BLAS capped to one thread, checks every output, prints a readable summary and
the environment on stderr, a "record" JSON line with the per-job samples on
stdout, and last on stdout one JSON line with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.

End-to-end times are medians over the run's jobs (over every set-up for
setup_s), each unit of a job scaled to a nominal host speed by a reference
computation timed beside it (``Reference`` in workloads.py).  The record line
and the summary also give the same medians of the unscaled times.

Every workload, repeated, with one traced run each, saved for comparison:

    python3 bench/run.py --workload all --seed 20260808 --runs 5 --out base.json
    python3 bench/run.py --compare base.json change.json

The workloads and the reason for each are listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 170
# Environment variables that cap numpy's BLAS and OpenMP pools to one thread.
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """A run that produced no result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_revision() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git": git_revision(),
        "loadavg": os.getloadavg(),
    }


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_CAPS})
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), str(seconds), str(trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def end_to_end(raw: dict, prefix: str = "scaled_") -> dict[str, float]:
    """Medians over the untraced jobs that completed (over every set-up for setup_s).

    Times are those scaled to the nominal host speed (``Reference`` in
    workloads.py); with ``prefix=""`` the same medians of the raw times.
    """
    jobs = [j for j in raw["jobs"] if not j["traced"] and "error" not in j]
    if not jobs:
        raise BenchError(f"{raw['workload']}: no job completed")
    return {
        "setup_s": statistics.median(s for j in jobs for s in j[f"{prefix}setup_s"]),
        "items_per_s": statistics.median(j["items"] / j[f"{prefix}run_s"] for j in jobs),
        "total_s": statistics.median(j[f"{prefix}total_s"] for j in jobs),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measured run: a result line plus the record it came from."""
    env = environment()
    raw = run_child(workload, seed, seconds, trace)
    env["numpy"] = raw.pop("numpy")
    kind = "per_layer" if trace else "end_to_end"
    values = raw.pop("layers") if trace else end_to_end(raw)
    if not trace:
        raw["unscaled"] = end_to_end(raw, prefix="")
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    failed = raw["failed"]
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return {"result": result, "record": dict(raw, env=env, trace=trace)}


def summary_lines(workload: str, run: dict) -> list[str]:
    result, record = run["result"], run["record"]
    jobs = record["jobs"]
    lines = [
        f"{workload} seed={record['seed']} trace={record['trace']}: jobs={len(jobs)}"
        f" attempted={result['attempted']} failed={result['failed']}"
        f" ops_failed_frac={result['failed'] / result['attempted']:.6g}"
        f" digest_ok={record['digest_ok']} spot_failed={record['spot_failed']}"
    ]
    for name, m in result["metrics"].items():
        if m["value"]:
            lines.append(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if "unscaled" in record:
        lines.append("  unscaled " + ", ".join(f"{k} {v:.6g}" for k, v in record["unscaled"].items()))
    lines.append(f"  env {json.dumps(record['env'])}")
    return lines


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def run_all(spec: dict, args) -> int:
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    doc = {"env": environment(), "seconds": seconds, "results": {}}
    ok = True
    for name in names:
        runs = [run_one(spec, name, args.seed + r, seconds, 0) for r in range(args.runs)]
        traced = run_one(spec, name, args.seed, seconds, 1)
        doc["results"][name] = {"runs": runs, "traced": traced}
        correct = all(r["result"]["correct"] for r in runs + [traced])
        ok &= correct
        print(f"\n{name}: {len(runs)} run(s), all correct: {correct}", file=sys.stderr)
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            print(
                f"  {m['name']:14s} median {statistics.median(values):>12.6g} {m['unit']:6s}"
                f" spread {quartile_spread(values):.3f} (bound {m['bound']})",
                file=sys.stderr,
            )
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        phases = ("setup", "run", "serialise")
        job_s = sum(layers[f"phase.{p}.s"] for p in phases)
        print(
            f"  traced job {job_s:.4g} s, traced/untraced {layers['trace.overhead_frac']:.3f},"
            " unattributed " + ", ".join(f"{p} {layers[f'phase.{p}.unattributed_s']:.3g} s" for p in phases)
            + "; top self time:",
            file=sys.stderr,
        )
        for value, key in sorted(((v, k) for k, v in layers.items() if k.endswith(".self_s")), reverse=True)[:5]:
            print(f"    {key:42s} {value:10.4g} s  {100 * value / job_s:5.1f}%", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    return 0 if ok else 1


def compare(spec: dict, old_path: str, new_path: str) -> int:
    """Median ratio new/old per workload and metric, with the old runs' spread."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worse = 0
    for name in old["results"]:
        if name not in new["results"]:
            print(f"{name}: missing from {new_path}")
            continue
        row = []
        for metric in bound:
            o = [r["result"]["metrics"][metric]["value"] for r in old["results"][name]["runs"]]
            n = [r["result"]["metrics"][metric]["value"] for r in new["results"][name]["runs"]]
            ratio = statistics.median(n) / statistics.median(o)
            loss = ratio - 1 if better[metric] == "lower" else 1 - ratio
            spread = quartile_spread(o)
            flag = ""
            if loss > bound[metric]:
                flag = " WORSE"
                worse += 1
            elif spread > bound[metric]:
                sign = -1 if better[metric] == "lower" else 1
                if min(sign * v for v in n) <= max(sign * v for v in o):
                    flag = " unresolved"  # the parent's own runs spread wider than the bound
            row.append(f"{metric} {ratio:.3f} (spread {spread:.3f}){flag}")
        print(f"{name:15s} " + "  ".join(row))
        o_layers = old["results"][name]["traced"]["result"]["metrics"]
        n_layers = new["results"][name]["traced"]["result"]["metrics"]
        for metric, o_val in o_layers.items():
            n_val = n_layers.get(metric, {}).get("value")
            if o_val["value"] and n_val is not None:
                print(f"    {metric:42s} {o_val['value']:>12.5g} -> {n_val:>12.5g}"
                      f"  x{n_val / o_val['value']:.3f} ({better[metric]} is better)")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, help="input seed; with 'all', run r uses seed + r")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3, help="runs per workload with --workload all")
    parser.add_argument("--out", help="result file written by --workload all")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if not (ROOT / "src" / "ltclab" / "__init__.py").is_file():
        print(f"error: no ltclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seed is None and not args.compare:
        parser.error("--seed is required")
    try:
        if args.compare:
            return compare(spec, *args.compare)
        if args.workload == "all":
            return run_all(spec, args)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names} or 'all'")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        run = run_one(spec, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary_lines(args.workload, run)), file=sys.stderr)
    print(json.dumps({"record": run["record"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
