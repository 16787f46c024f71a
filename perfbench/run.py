"""Benchmark of the gradenet CLI on generated batch workloads.

    python3 perfbench/run.py --workload planted-ensemble --seed 1 --seconds 30 --trace 0

The workload's input CSV is generated from
`--seed` (outside all timing). Then, for about `--seconds` seconds, the real
CLI (`gradenet.cli.main`) runs on that file in one fresh child process at a
time, and every run's outputs are checked. With `--trace 1` one more run
records spans around each layer (tracer.py) and the per-layer metrics come
from it; the end-to-end metrics come only from untraced runs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A full record of the run
(machine facts, every run's figures, output digest, largest self times)
goes to perfbench/results/. `--smoke` uses tiny inputs for the
benchmark's own test. The exit code is 0 whenever a result was printed, 2
when the benchmark cannot run at all (for example without `src/gradenet`).
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
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# A run must end within 180 s; no child may run past this many seconds.
RUN_LIMIT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's test")
    return parser.parse_args(argv)


def digest(out: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(work: Path, tag: str, deadline: float, cli_argv=None, spans: bool = False) -> dict:
    """One fresh interpreter: import gradenet, optionally run the CLI once."""
    result_path = work / f"{tag}.result.json"
    command = [sys.executable, str(HERE / "child.py"), str(result_path)]
    options = ["--spans", str(work / f"{tag}.spans.json")] if spans else []
    tail = ["--", *cli_argv] if cli_argv is not None else []
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            command + [repr(t0)] + options + tail,
            cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "stderr": "timed out"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    result = json.loads(result_path.read_text())
    if spans:
        result["trace"] = json.loads((work / f"{tag}.spans.json").read_text())
    return result


def machine_facts(child: dict) -> dict:
    import numpy
    import scipy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": child.get("blas_config"),
        "blas_threads": child.get("blas_threads"),
        "caches": caches,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def check_run(workload, result: dict, out: Path, data) -> list:
    if result.get("exit_code") != 0:
        return [f"exit code {result.get('exit_code')}: {result.get('stderr', '')}"]
    if not Path(result["gradenet_file"]).resolve().is_relative_to(SRC.resolve()):
        return [f"gradenet imported from {result['gradenet_file']}, not from {SRC}"]
    return workload.check(out, data)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "gradenet" / "__init__.py").is_file():
        print(f"perfbench: no gradenet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracer
    from workloads import WORKLOADS, generate_input, report_metrics

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / ".work"))
    try:
        gen_start = time.monotonic()
        data = generate_input(workload, args.seed, args.smoke)
        input_path = work / "input.csv"
        input_path.write_text(data.csv_text, encoding="utf-8")
        input_bytes = len(data.csv_text.encode("utf-8"))
        gen_s = time.monotonic() - gen_start
        cli_args = workload.args(args.seed, args.smoke)

        def timed_run(tag, spans=False):
            out = work / tag
            cli_argv = [cli_args[0], str(input_path), "--out", str(out), *cli_args[1:]]
            result = run_child(work, tag, deadline, cli_argv, spans)
            result["problems"] = check_run(workload, result, out, data)
            result["digest"] = digest(out) if out.is_dir() else None
            return result, out

        runs = []
        started = time.monotonic()
        while True:
            result, out = timed_run(f"run{len(runs)}")
            shutil.rmtree(out, ignore_errors=True)
            runs.append(result)
            if time.monotonic() - started >= args.seconds or time.monotonic() > deadline:
                break
        setup_samples = [r["setup_s"] for r in runs if "setup_s" in r]
        while len(setup_samples) < SETUP_SAMPLES and time.monotonic() < deadline:
            probe = run_child(work, f"setup{len(setup_samples)}", deadline)
            if "setup_s" not in probe:
                break
            setup_samples.append(probe["setup_s"])

        traced = None
        violations = None
        if args.trace:
            traced, traced_out = timed_run("traced", spans=True)
            if "trace" in traced:
                violations = len(tracer.nesting_violations(traced["trace"]["spans"]))
                if violations:
                    traced["problems"].append(f"{violations} spans not covered by their parent")

        all_runs = runs + ([traced] if traced is not None else [])
        reference = all_runs[0]["digest"]
        for r in all_runs:
            if r["digest"] != reference:
                r["problems"].append(f"output digest {r['digest']} differs from {reference}")
        failed = sum(1 for r in all_runs if r["problems"])
        good = [r for r in runs if "wall_s" in r]

        if args.trace:
            per_layer = {}
            if traced is not None and "trace" in traced and good:
                walls = statistics.median(r["wall_s"] for r in good)
                per_layer = tracer.layer_metrics(traced["trace"]["spans"])
                per_layer.update(report_metrics(traced_out))
                per_layer["trace.overhead_frac"] = traced["wall_s"] / walls - 1.0
                per_layer["process.cpu_s"] = statistics.median(r["cpu_s"] for r in good)
                per_layer["process.blas_threads"] = traced["blas_threads"] or 0
            metrics = per_layer
        else:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in good) if good else None,
                "setup_s": statistics.median(setup_samples) if setup_samples else None,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good) if good else None,
            }
        spec_path = ROOT / "BENCHMARK.json"
        spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
        units = {m["name"]: m["unit"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
        complete = bool(metrics) and all(v is not None for v in metrics.values())
        correct = failed == 0 and complete

        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "argv": cli_args,
            "input_bytes": input_bytes,
            "input_campaigns": data.campaigns,
            "generate_s": gen_s,
            "digest": reference,
            "attempted": len(all_runs),
            "failed": failed,
            "failed_frac": failed / len(all_runs),
            "runs": [{k: v for k, v in r.items() if k != "trace"} for r in all_runs],
            "setup_samples": setup_samples,
            "machine": machine_facts(good[0] if good else {}),
            "metrics": metrics,
        }
        if traced is not None and "trace" in traced:
            record["nesting_violations"] = violations
            record["trace_skipped_patches"] = traced["trace"]["skipped"]
            record["top_self_s"] = tracer.top_self_times(traced["trace"]["spans"])
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        name = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
        (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

        print(
            f"{workload.name} seed {args.seed}: {len(good)} untraced runs, input {input_bytes} B "
            f"generated in {gen_s:.2f} s, digest {reference}"
        )
        print(f"failed_frac {failed / len(all_runs):.4f} fraction ({failed} of {len(all_runs)} runs)")
        for problem in sorted({p for r in all_runs for p in r["problems"]}):
            print(f"problem: {problem}")
        for key, value in metrics.items():
            print(f"{key} {value} {units.get(key, '')}".rstrip())
        if "top_self_s" in record:
            print("largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in record["top_self_s"]))
        print(json.dumps({
            "correct": correct,
            "attempted": len(all_runs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
