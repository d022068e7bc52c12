"""nsmdp benchmark runner.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload bayes_grid --seed 1 --seconds 20 --trace 0

Runs one workload (see bench/workloads.py and bench/NOTES.md) against the
package in ./src. Each repetition runs in a fresh interpreter (bench/child.py),
one after another, so load only ever comes from one workload process.

--trace 0  repeats the workload at the given seed while another repetition
           fits in --seconds (at least once) and reports the end-to-end
           metrics, with times rescaled to nominal host speed
           (bench/hostspeed.py).
--trace 1  runs it once untraced and once traced and reports the per-layer
           metrics of the traced run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything else a run writes goes under
./.bench_out.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

WORKLOAD_NAMES = ("bayes_grid", "frontier_cusum", "solve_evaluate")
RUN_LIMIT_S = 170.0     # a run must end within 180 s
SETUP_PROBES = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH = Path(__file__).resolve().parent

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="nsmdp benchmark runner")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# -- environment record ------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def _tree_sha256(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        if "__pycache__" not in f.parts:
            h.update(str(f.relative_to(path)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def steal_s() -> float | None:
    """CPU time the hypervisor gave to others, summed over all
    CPUs since boot (the 8th field of the `cpu` line of /proc/stat)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "git_commit": _git_commit(), "src_sha256": _tree_sha256(ROOT / "src"),
            "workload_seed": seed}


# -- child processes ---------------------------------------------------------

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))


def setup_times(instances) -> list[tuple[float, float]]:
    """`import nsmdp` plus `build_env` for the workload's instances, each in
    a fresh interpreter and timed inside it: (at nominal host speed, as
    measured) per interpreter."""
    from workloads import params
    fields = json.dumps([dataclasses.asdict(params(*inst)) for inst in instances])
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), fields],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        nominal, measured = out.stdout.strip().splitlines()[-1].split()
        times.append((float(nominal), float(measured)))
    return times


def run_child(workload: str, seed: int, rep_dir: Path, mode: str, timeout: float) -> dict:
    """One repetition in a fresh interpreter. A crash, a timeout or unreadable
    output counts as one failed operation."""
    try:
        out = subprocess.run([sys.executable, str(BENCH / "child.py"), workload, str(seed),
                              str(rep_dir), mode], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": [f"{mode} repetition timed out"]}
    sys.stderr.write(out.stderr)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"attempted": 1, "failed": 1,
                "problems": [f"{mode} repetition exited {out.returncode} without a result"]}


def check_repeats(reps: list[dict]) -> list[str]:
    """Every repetition at one seed must produce the same output digest."""
    problems = []
    for i, rep in enumerate(reps[1:], start=1):
        if rep.get("digest") != reps[0].get("digest"):
            rep["failed"] = rep["attempted"]
            problems.append(f"repetition {i}: output digest differs from repetition 0")
    return problems


# -- end-to-end run ------------------------------------------------------------

def nominal_times(rep: dict) -> tuple[float, float]:
    """The repetition's time at nominal host speed (bench/hostspeed.py):
    (whole repetition, monte_carlo calls only)."""
    segments = hostspeed.nominal_segments(rep["cuts"], rep["kernel_samples"])
    return sum(segments), sum(segments[1::2])


def untraced(args, instances, out_dir: Path, t_start: float):
    setup = setup_times(instances)
    t_measure = time.perf_counter()
    reps = []
    while True:
        now = time.perf_counter()
        longest = max((r.get("wall_s", 0.0) for r in reps), default=0.0)
        if reps and (now - t_measure + longest > args.seconds
                     or now - t_start + 1.5 * longest > RUN_LIMIT_S):
            break
        reps.append(run_child(args.workload, args.seed, out_dir / f"rep{len(reps)}",
                              "plain", RUN_LIMIT_S - (now - t_start)))
    problems = check_repeats(reps)
    done = [r for r in reps if "wall_s" in r]
    if not done:
        return reps, problems, {}, {}
    nominal = [nominal_times(r) for r in done]
    walls = [w for w, _ in nominal]
    rates = [r["run_steps"] / mc for r, (_, mc) in zip(done, nominal)]
    rss = [r["peak_rss_mb"] for r in done]
    kernel = [k for r in done for _, k in r["kernel_samples"]]
    report = {
        "wall_s": {**quartiles(walls), "unit": "s"},
        "run_steps_per_s": {**quartiles(rates), "unit": "1/s",
                            "run_steps_per_rep": done[0]["run_steps"]},
        "setup_s": {**quartiles([s for s, _ in setup]), "unit": "s"},
        "peak_rss_mb": {**quartiles(rss), "unit": "MB"},
        "measured_wall_s": {**quartiles([r["wall_s"] for r in done]), "unit": "s",
                            "cpu_s": [r["cpu_s"] for r in done]},
        "measured_setup_s": {**quartiles([m for _, m in setup]), "unit": "s"},
        "host_kernel_s": {**quartiles(kernel), "unit": "s",
                          "nominal": hostspeed.NOMINAL_S},
    }
    metrics = {name: metric(report[name]["median"], report[name]["unit"])
               for name in ("wall_s", "run_steps_per_s", "setup_s", "peak_rss_mb")}
    return reps, problems, report, metrics


# -- traced run ------------------------------------------------------------------

# Per-layer metrics the result line carries. Busy times of layers that do not
# run on every workload (momdp, cli, the information numbers, CSV writing,
# the Shiryaev update) would read exactly 0 on some workload; they go into the
# report and the result file instead.
def layer_metrics(summary: dict, counters: dict, overhead: float):
    def span(name, key):
        return summary.get(name, {}).get(key, 0)

    draws = span("engine.draw_episode_randomness", "calls")
    cells = counters.get("cells", 0)
    grid_s = (span("harness.optimize_thresholds", "busy_s")
              + span("harness.estimate_nonbayes_grid", "busy_s"))
    metrics = {
        "engine.simulate_batch.calls": metric(span("engine.simulate_batch", "calls"), "count"),
        "engine.simulate_batch.self_s": metric(span("engine.simulate_batch", "self_s"), "s"),
        "engine.run_steps": metric(int(counters.get("run_steps", 0)), "count"),
        "engine.draw_episode_randomness.calls": metric(draws, "count"),
        "engine.draw_episode_randomness.busy_s":
            metric(span("engine.draw_episode_randomness", "busy_s"), "s"),
        "engine.draw.hit_ratio": metric(counters.get("draw_hits", 0) / draws if draws else 0.0,
                                        "ratio"),
        "inventory.demand_from_uniform.calls":
            metric(span("inventory.demand_from_uniform", "calls"), "count"),
        "inventory.demand_from_uniform.busy_s":
            metric(span("inventory.demand_from_uniform", "busy_s"), "s"),
        "inventory.build_env.busy_s": metric(span("inventory.build_env", "busy_s"), "s"),
        "detectors.shiryaev_log_update.calls":
            metric(span("detectors.shiryaev_log_update", "calls"), "count"),
        "momdp.belief_grid_solve.calls": metric(span("momdp.belief_grid_solve", "calls"), "count"),
        "momdp.tables_mb_computed": metric(counters.get("belief_table_bytes", 0) / 1e6, "MB"),
        "momdp.belief_step.calls": metric(span("momdp.belief_step", "calls"), "count"),
        "mdp.value_iteration.calls": metric(span("mdp.value_iteration", "calls"), "count"),
        "mdp.value_iteration.busy_s": metric(span("mdp.value_iteration", "busy_s"), "s"),
        "mdp.value_iteration.sweeps": metric(int(counters.get("vi_sweeps", 0)), "count"),
        "harness.monte_carlo.calls": metric(span("harness.monte_carlo", "calls"), "count"),
        "harness.monte_carlo.self_s": metric(span("harness.monte_carlo", "self_s"), "s"),
        "harness.cells": metric(int(cells), "count"),
        "harness.cells_per_s": metric(cells / grid_s if grid_s else 0.0, "1/s"),
        "harness.write_csv.bytes": metric(int(counters.get("csv_bytes", 0)), "B"),
        "trace.overhead_frac": metric(overhead, "ratio"),
    }
    def busy(*names):
        ran = [n for n in names if n in summary]
        return sum(summary[n]["busy_s"] for n in ran) if ran else None

    extra = {   # None: the layer did not run on this workload
        "detectors.shiryaev_log_update.busy_s": busy("detectors.shiryaev_log_update"),
        "momdp.belief_grid_solve.busy_s": busy("momdp.belief_grid_solve"),
        "momdp.belief_step.busy_s": busy("momdp.belief_step"),
        "mdp.info_number.busy_s": busy("mdp.info_number"),
        "mdp.max_info_number.busy_s": busy("mdp.max_info_number"),
        "harness.write_csv.busy_s": busy("harness.write_runs_csv", "harness.write_summary_csv",
                                         "harness.write_frontier_csv"),
        "cli.solve.busy_s": busy("cli.cmd_solve"),
        "cli.evaluate.busy_s": busy("cli.cmd_evaluate"),
    }
    return metrics, extra


def traced(args, out_dir: Path, t_start: float):
    """An untraced and a traced repetition, each in a fresh interpreter; the
    tracing overhead compares the two."""
    base_mode = "baseline" if args.workload == "bayes_grid" else "plain"
    plain = run_child(args.workload, args.seed, out_dir / "untraced", base_mode,
                      RUN_LIMIT_S - (time.perf_counter() - t_start))
    rep_t = run_child(args.workload, args.seed, out_dir / "traced", "traced",
                      RUN_LIMIT_S - (time.perf_counter() - t_start))
    reps = [plain, rep_t]
    problems = check_repeats(reps)
    if "layers" not in rep_t or "wall_s" not in plain:
        return reps, problems, {}, {}
    overhead = (rep_t["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    metrics, extra = layer_metrics(rep_t["layers"], rep_t["counters"], overhead)
    if metrics["engine.run_steps"]["value"] != rep_t["run_steps"]:
        rep_t["failed"] = rep_t["attempted"]
        problems.append(f"traced engine.run_steps {metrics['engine.run_steps']['value']} "
                        f"!= expected {rep_t['run_steps']}")
    report = {"walls_s": {"untraced": plain["wall_s"], "traced": rep_t["wall_s"]},
              "spans": {"count": rep_t["spans"], "cost_s": rep_t["span_cost_s"],
                        "estimated_overhead_frac":
                            rep_t["spans"] * rep_t["span_cost_s"] / plain["wall_s"]},
              "layers": rep_t["layers"], "extra": extra}
    if "mc_1000x1000" in plain:
        report["mc_1000x1000"] = plain["mc_1000x1000"]
    return reps, problems, report, metrics


# -- main --------------------------------------------------------------------------

def print_report(args, record: dict, metrics: dict) -> None:
    report = record["report"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"repetitions {record['repetitions']} sizes {json.dumps(record['sizes'])}")
    for name, entry in report.items():
        if isinstance(entry, dict) and "unit" in entry:
            print(f"  {name:38s} {json.dumps(entry)}")
    for name, value in report.get("extra", {}).items():
        print(f"  {name:38s} " + (f"{value!r} s" if value is not None else "not run"))
    if "spans" in report:
        print(f"  {'trace.spans':38s} {json.dumps(report['spans'])}")
    for kind, t in report.get("mc_1000x1000", {}).items():
        print(f"  mc_1000x1000.{kind:25s} {t['median_s']:.4f} s "
              f"(ROADMAP {t['roadmap_s']} s, gap {t['gap']:+.1%})")
    if args.trace:
        for name, m in metrics.items():
            beside = ""
            if name == "engine.draw.hit_ratio":
                beside = (f"  (n_runs={record['sizes']['n_runs']} in chunks of 256; "
                          "the draw cache keeps 8 entries, FIFO)")
            print(f"  {name:38s} {m['value']!r} {m['unit']}{beside}")
    print("machine " + json.dumps(record["machine"]))
    for p in record["problems"]:
        print(f"problem: {p}")


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    steal_start = steal_s()
    if not (ROOT / "src" / "nsmdp" / "__init__.py").is_file():
        print(f"error: no nsmdp sources under {ROOT / 'src'}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"    # at most nproc; children inherit it
    sys.path.insert(0, str(ROOT / "src"))
    import nsmdp
    if Path(nsmdp.__file__).resolve().parent != (ROOT / "src" / "nsmdp").resolve():
        print(f"error: imported nsmdp from {nsmdp.__file__}, not ./src", file=sys.stderr)
        return 2
    import workloads

    out_dir = OUT / args.workload / f"trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if args.trace:
        reps, problems, report, metrics = traced(args, out_dir, t_start)
    else:
        instances = workloads.WORKLOADS[args.workload][1]
        reps, problems, report, metrics = untraced(args, instances, out_dir, t_start)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r.get("problems", [])] + problems
    report["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                             "failed": failed, "attempted": attempted}
    steal_end = steal_s()
    if steal_start is not None and steal_end is not None:
        report["steal_s"] = {"value": steal_end - steal_start, "unit": "s"}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine(args.seed), "sizes": workloads.sizes()[args.workload],
              "repetitions": len(reps), "problems": problems, "report": report,
              "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print_report(args, record, metrics)
    if not metrics:
        print("error: no repetition produced a measurement", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
