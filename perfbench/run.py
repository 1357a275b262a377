"""crsdiag benchmark: seeded CLI workloads, checked by independent oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ./src.  One op
is one in-process crsdiag.cli.main(argv) call in a worker process, in a
closed loop (one process, one thread, the next op starts when the last one
returns).  Outputs are checked after the timed loop.  A workload's
out-of-domain ops run once each after it, untimed and outside the
result line's counts; their crashes are reported in the result file.

--trace 0 repeats the workload's op cycle for S seconds and reports the
end-to-end metrics; each op's latency is the median over its runs of its
CPU time, in units of the reference work timed near it (refwork.py).
--trace 1 runs the ops untraced for S/2 seconds, then runs the same ops
again with every public layer function wrapped, and reports the per-layer
metrics; the two runs' stdout digests must match.  The last stdout line is
one JSON object with keys correct, attempted, failed and metrics; metric
names and units are those BENCHMARK.json declares.
`--workload all` runs every workload both ways and prints a summary table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

SETUP_SAMPLES = 21
REF_WINDOW = 20  # an op run is scaled by the median reference over this many runs either side
REF_BLOCK_NOMINAL_S = 0.015  # setup_s is rescaled to a host where a reference block takes this
CHILD_MARGIN_S = 60  # worker time allowed beyond its op budget
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from refwork import reference_block
reference_block()
before = reference_block()
wall, cpu = time.perf_counter(), time.process_time()
import crsdiag.cli
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
print(wall, cpu, (before + reference_block()) / 2)
"""


def _environment(root: Path, seed: int) -> dict:
    sha = "unknown"
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, timeout=30)
        sha = probe.stdout.strip() or sha
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "seed": seed}


def measure_setup(src: Path):
    """Import time of crsdiag.cli in fresh interpreters, timed in the child.

    Returns (wall-clock seconds, CPU seconds rescaled to the nominal host
    speed) per sample.  The rescaling divides by the CPU time of a reference
    block timed in the same child just before and just after the import.
    One untimed import first compiles the bytecode, which an installed
    package has already done.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
                              capture_output=True, text=True, timeout=CHILD_MARGIN_S, check=True)
        wall, cpu, block = map(float, done.stdout.split())
        if i:
            samples.append((wall, cpu / block * REF_BLOCK_NOMINAL_S))
    return samples


def run_worker(work: Path, src: Path, ops, tag: str, timeout: float, seconds=None, limit=None,
               spans=None):
    spec = {"src": str(src), "ops": ops, "results": str(work / f"{tag}.jsonl"),
            "seconds": seconds, "limit": limit, "trace": spans is not None,
            "spans": str(spans)}
    spec_path = work / f"{tag}_spec.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)], cwd=work,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed: {done.stderr[-2000:]}")
    with open(spec["results"], encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    return json.loads(done.stdout.splitlines()[-1]), records


def verify(wl, records):
    """Oracle verdicts per record; returns (failed records, wrong-answer count).

    Every failed op is a wrong answer except an out-of-domain op whose
    exception escaped main: that crash is a failed op and nothing more.
    """
    state, seen, failures = {}, {}, []
    wrong = 0
    for rec in records:
        key = (rec["rc"], rec["exc"], rec["out"])
        if seen.get(rec["op"], (None,))[0] != key:
            kind, data = wl.checks[rec["op"]]
            seen[rec["op"]] = (key, checks.check(kind, data, rec, state))
        problems = seen[rec["op"]][1]
        if problems:
            failures.append((rec, problems))
            _kind, data = wl.checks[rec["op"]]
            if not (data.get("out_of_domain") and rec["exc"] is not None):
                wrong += 1
    return failures, wrong


def stdout_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps([rec["i"], rec["rc"], rec["exc"], rec["out"]]).encode())
    return h.hexdigest()


def relative_latencies(records):
    """Each distinct op's latency in units of the reference work.

    Each op run's CPU time is divided by the median reference timing of
    the op runs within REF_WINDOW places of it; an op's figure is the
    median over its runs.
    """
    refs = [rec["ref"] for rec in records]
    per_op = {}
    for i, rec in enumerate(records):
        scale = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        per_op.setdefault(rec["op"], []).append(rec["cpu"] / scale)
    return [statistics.median(v) for v in per_op.values()]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    src = root / "src"
    if not (src / "crsdiag" / "cli.py").is_file():
        raise FileNotFoundError(f"no crsdiag sources under {src}")
    env = _environment(root, seed)
    wl = gen.make(workload, seed)
    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    for rel, text in wl.files.items():
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_text(text, encoding="utf-8")
    work.mkdir(parents=True, exist_ok=True)
    result = {"workload": workload, "inputs_digest": wl.digest(), "cycle_ops": len(wl.ops),
              **env}
    budget = seconds if not trace else seconds / 2
    try:
        if not trace:
            setup = measure_setup(src)
        summary, records = run_worker(work, src, wl.ops, "plain", budget + CHILD_MARGIN_S,
                                      seconds=budget)
        if trace:
            # tracing slows the ops; allow for several times the untraced wall
            traced, traced_records = run_worker(
                work, src, wl.ops, "traced", 4 * summary["wall"] + CHILD_MARGIN_S,
                limit=summary["ops"], spans=HERE / "_work" / f"spans_{workload}_seed{seed}.csv")
        if wl.domain:
            _summary, domain_records = run_worker(work, src, wl.domain.ops, "domain",
                                                  CHILD_MARGIN_S, limit=len(wl.domain.ops))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures, wrong = verify(wl, records)
    attempted, failed = len(records), len(failures)
    result.update(attempted=attempted, failed=failed, wrong_answers=wrong,
                  failures=[{"argv": [a[:100] for a in wl.ops[r["op"]]["argv"]], "problems": p[:3]}
                            for r, p in failures[:20]])
    correct = wrong == 0
    if wl.domain:
        domain_failures, domain_wrong = verify(wl.domain, domain_records)
        result["domain_ops"] = {
            "attempted": len(domain_records), "failed": len(domain_failures),
            "wrong_answers": domain_wrong,
            "failures": [{"argv": wl.domain.ops[r["op"]]["argv"], "problems": p[:3]}
                         for r, p in domain_failures]}
        correct = correct and domain_wrong == 0
    if not trace:
        rel = relative_latencies(records)
        walls = [r["wall"] for r in records]
        metrics = {
            "setup_s": statistics.median(rescaled for _took, rescaled in setup),
            "ops_per_ref": len(rel) / sum(rel),
            "op_p50_ref": statistics.median(rel),
            "op_p90_ref": percentile(rel, 90),
            "peak_rss_mb": summary["peak_rss_kb"] / 1024,
        }
        result["samples"] = {"setup_s": len(setup), "ops": len(rel), "op_runs": attempted}
        result["wall_clock"] = {
            "setup_s": statistics.median(took for took, _rescaled in setup),
            "ops_per_s": attempted / summary["wall"],
            "op_p50_ms": statistics.median(walls) * 1e3,
            "op_p90_ms": percentile(walls, 90) * 1e3,
        }
        result["reference_cpu_ms"] = statistics.median(r["ref"] for r in records) * 1e3
        result["failed_frac"] = failed / attempted
    else:
        digest_plain, digest_traced = stdout_digest(records), stdout_digest(traced_records)
        result["stdout_digest"] = {"untraced": digest_plain, "traced": digest_traced}
        correct = correct and digest_plain == digest_traced and len(traced_records) == attempted
        metrics = dict(traced["layers"])
        overhead = sum(r["wall"] for r in traced_records) / sum(r["wall"] for r in records) - 1
        metrics["trace.overhead_frac"] = overhead
    result["correct"] = correct
    result["metrics"] = with_units(metrics, "per_layer" if trace else "end_to_end")
    out_dir = HERE / "_work"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    return result


def with_units(values: dict, section: str) -> dict:
    """{name: {"value", "unit"}} in the order and with the units that
    BENCHMARK.json declares for the section; the names must match."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    if values.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(values.keys() ^ units.keys())}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _report(result) -> None:
    print(f"# {result['workload']}: seed={result['seed']} git={result['git_sha']} "
          f"python={result['python']} cpu={result['cpu']!r} nproc={result['nproc']} "
          f"inputs_digest={result['inputs_digest'][:16]}")
    print(f"#   ops attempted={result['attempted']} failed={result['failed']} "
          f"(wrong answers={result['wrong_answers']}) "
          f"failed_frac={result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    if "domain_ops" in result:
        d = result["domain_ops"]
        print(f"#   out-of-domain ops (untimed, once each): failed={d['failed']}/{d['attempted']} "
              f"(wrong answers={d['wrong_answers']}, the rest crashed)")
    for name, value in result.get("wall_clock", {}).items():
        unit = {"ops_per_s": "1/s", "setup_s": "s"}.get(name, "ms")
        n = f" (n={result['attempted']} op runs)" if name.startswith("op_") else ""
        print(f"#   {name} = {value:.6g} {unit}{n}  [wall clock, not gated]")
    for item in result["failures"][:5]:
        print(f"#   failed: {' '.join(item['argv'])[:80]} -> {item['problems'][0][:120]}")
    samples = result.get("samples", {})
    for name, m in result["metrics"].items():
        extra = ""
        if name == "setup_s":
            extra = f" (median of n={samples['setup_s']}, at nominal host speed)"
        elif name in ("ops_per_ref", "op_p50_ref", "op_p90_ref"):
            extra = f" (n={samples['ops']} ops, {samples['op_runs']} op runs)"
        print(f"#   {name} = {m['value']:.6g} {m['unit']}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.workload == "all":
            return _run_all(root, args)
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    _report(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def _run_all(root: Path, args) -> int:
    rows = []
    for workload in gen.WORKLOADS:
        for trace in (False, True):
            result = run_workload(root, workload, args.seed, args.seconds, trace)
            _report(result)
            rows.append(result)
    print("\nworkload         metric                 value        unit")
    for result in rows:
        if "failed_frac" in result:
            print(f"{result['workload']:<16} failed_frac            {result['failed_frac']:<12.6g} "
                  f"frac  ({result['failed']}/{result['attempted']} ops)")
        for name, m in result["metrics"].items():
            if name.endswith(".share") or "." not in name or name == "trace.overhead_frac":
                print(f"{result['workload']:<16} {name:<22} {m['value']:<12.6g} {m['unit']}")
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
