"""Benchmark of the ietlab experiment pipelines, driven through the CLI.

    python3 perfbench/run.py --workload limit-h2 --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout.  The benchmark calls the public
entry point `ietlab.cli.main` in this process, one task after another,
with artifacts in a temporary directory inside the checkout.  A run first
times set-up (a fresh interpreter importing `ietlab.cli` and generating
the task list), then repeats passes over the workload's tasks until
`--seconds` have elapsed.  Every task's artifacts are checked against
reference values recorded at the commit that defined the benchmark
(`reference.json`), against closed-form oracles, and byte for byte
against the first pass.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one plain
pass and one traced pass and prints the per-layer metrics; the traced pass
wraps public functions of each module from outside the package (see
`spans.py`) and removes the wrappers afterwards.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
JSON record of the run (machine, versions, seeds, per-task times,
failures).  The exit code is 1 when an output check failed and 2 when the
program cannot be found.

Without `--workload` every workload runs in turn, and the exit code is
the largest of theirs.  `python3 perfbench/run.py --record-reference`
rewrites `reference.json` from the current code.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# The CLI seed fixes the surface, and with it the cost of a task: at CLI
# defaults `limit` takes 21 to 48 s over CLI seeds 1-11 (seed 4 spends over
# five minutes in one matching solve of `lp_distance_grid`), and a
# `lyapunov` pair 4 to 14 s.  One run cannot average over inputs that
# cost this much, so limit-h2 and spectrum-hyp run the baseline input at
# CLI seed 1 whatever the workload seed.  orbit-h2's cost barely depends
# on the surface (its orbit length is fixed and it sums seven cocycle
# builds), so its workload seed picks the CLI seeds.
BASELINE_SEED = 1
CLI_SEEDS = tuple(range(1, 11))
COCYCLE_RUN = 7  # orbit-h2 runs `cocycle` at this many consecutive seeds
SETUP_REPEATS = 5

H2 = "4,3,2,1"
H4_HYP = "6,5,4,3,2,1"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("limit-h2", "spectrum-hyp", "orbit-h2")


def workload_tasks(name: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one pass; the program sees nothing else."""
    if name == "limit-h2":
        return [["limit", "--perm", H2, "--seed", str(BASELINE_SEED)]]
    if name == "spectrum-hyp":
        return [["lyapunov", "--perm", perm, "--seed", str(BASELINE_SEED)]
                for perm in (H2, H4_HYP)]
    if name == "orbit-h2":
        s = CLI_SEEDS[seed % len(CLI_SEEDS)]
        return [["deviation", "--perm", H2, "--seed", str(s)]] + [
            ["cocycle", "--perm", H2, "--seed", str(s + j)]
            for j in range(COCYCLE_RUN)]
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ output checks

# Checked fields of each command's `<command>.json` and their tolerance: |got - want| must be at
# most tol * max(1, |want|).  1e-9 lies far below every statistical error
# bar the lab reports (1e-4 and up) and far above the rounding noise of a
# reassociated sum, so refactors that keep the arithmetic pass while a
# changed algorithm does not.  0 means equal.  `cocycle.json`'s
# `scaling_exponent_top` is recorded but not checked: it is a known
# single-base-point estimate that later work replaces.
TOLERANCES = {
    "lyapunov": {"exponents": 1e-9, "stderr": 1e-9, "n_steps": 0,
                 "teichmuller_time": 1e-9},
    "deviation": {"slope": 1e-9, "sup_abs_sums": 1e-9, "checkpoints": 0,
                  "base_point": 1e-12},
    "cocycle": {"second_direction": 1e-9, "arc_values": 1e-9,
                "scaling_exponent_lower": 1e-9},
    "limit": {"component": 0, "n_samples": 0, "s_values": 0,
              "distances": 1e-9, "refined_distances": 1e-9,
              "final_distance": 1e-9},
}


def _mismatch(got, want, tol: float, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [m for k in want
                for m in _mismatch(got[k], want[k], tol, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatch(g, w, tol, f"{where}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool) \
            and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) <= tol * max(1.0, abs(want)):
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]


def oracle_failures(argv: list[str], results: dict) -> list[str]:
    """Closed-form values the lyapunov output must hit within 3 sigma."""
    if argv[0] != "lyapunov":
        return []
    ex, se = results["exponents"], results["stderr"]
    checks = [("lambda_1 = 1", ex[0], 1.0, se[0])]
    perm = argv[argv.index("--perm") + 1]
    if perm == H2:
        checks.append(("lambda_2 = 1/3 on H(2)", ex[1], 1.0 / 3.0, se[1]))
    elif perm == H4_HYP:
        # Eskin-Kontsevich-Zorich: on H^hyp(2g-2) the positive exponents
        # sum to g^2 / (2g - 1); here g = 3
        checks.append(("EKZ sum 9/5 on H^hyp(4)", sum(ex[:3]), 9.0 / 5.0,
                       math.sqrt(sum(s * s for s in se[:3]))))
    return [f"{name}: {got:.6g} is {abs(got - want) / sigma:.2f} sigma off"
            for name, got, want, sigma in checks
            if not abs(got - want) <= 3.0 * sigma]


def reference_key(argv: list[str]) -> str:
    return " ".join(argv)


def read_artifacts(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_task(argv: list[str], code, files: dict[str, bytes],
               first: dict[str, bytes] | None, reference: dict) -> list[str]:
    """Reasons the task's outputs are wrong; empty when they are right."""
    if code != 0:
        return [f"exit status {code}"]
    name = f"{argv[0]}.json"
    if name not in files:
        return [f"{name} missing"]
    results = json.loads(files[name])["results"]
    want = reference.get(reference_key(argv))
    failures = []
    if want is None:
        failures.append("no reference recorded")
    else:
        for field, tol in TOLERANCES[argv[0]].items():
            if field not in results:
                failures.append(f"{field} missing")
                continue
            failures += _mismatch(results[field], want[field], tol, field)
    failures += oracle_failures(argv, results)
    if first is not None and files != first:
        failures.append("artifacts differ from the first pass")
    return failures


# ------------------------------------------------------------------ passes

def run_pass(cli, tasks, out_dir: Path, reference: dict, first_pass,
             tracer: Tracer | None = None, task_base: int = 0) -> dict:
    """Run every task once; time each and check its outputs."""
    times, failures, artifacts, tops = [], [], [], []
    for k, argv in enumerate(tasks):
        target = out_dir / str(k)
        target.mkdir(parents=True)
        gc.collect()
        if tracer is not None:
            tracer.task = task_base + k
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv + ["--out", str(target)])
        except Exception as exc:  # a raising task counts as failed
            code = f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        files = read_artifacts(target)
        try:
            reasons = check_task(argv, code, files,
                                 first_pass[k] if first_pass else None,
                                 reference)
            if "cocycle.json" in files:
                top = json.loads(files["cocycle.json"])["results"][
                    "scaling_exponent_top"]
                tops.append({"seed": int(argv[-1]), "top": top,
                             "distance_from_one_third": abs(top - 1 / 3)})
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reasons = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
        if reasons:
            failures.append({"task": reference_key(argv),
                             "reasons": reasons[:5],
                             "output": sink.getvalue()[-300:]})
        artifacts.append(files)
    return {"times": times, "failures": failures, "artifacts": artifacts,
            "tops": tops}


# ----------------------------------------------------------- traced run

def _count_steps(tr, args, kwargs, path):
    tr.add("cocycle.induction_path.steps", len(path))


def _ladder_depth(tr, args, kwargs, _):
    tr.counts["finadd.ReturnLadder.depth"] = max(
        tr.counts.get("finadd.ReturnLadder.depth", 0), args[0].depth)


def _series_terms(tr, args, kwargs, phi):
    tr.add("finadd.build_phi_f.n_terms", phi.diagnostics["n_terms"])


def _orbit_steps(tr, args, kwargs, _):
    marks = kwargs["checkpoints"] if "checkpoints" in kwargs else args[3]
    tr.add("rauzy.orbit_steps", int(marks[-1]))


def _limit_samples(tr, args, kwargs, report):
    tr.add("limitlab.samples", report["n_samples"] * len(report["rows"]))
    tr.add("limitlab.resamples", sum(r["resamples"] for r in report["rows"]))


# (span name, module, attribute, on_result); a dotted attribute names a
# method, wrapped on its class.
SPANNED = [
    ("cli.main", "cli", "main", None),
    ("rauzy.rauzy_step", "rauzy", "rauzy_step", None),
    ("rauzy.running_sup_profile", "rauzy", "running_sup_profile",
     _orbit_steps),
    ("zippered.sample_point", "zippered", "sample_point", None),
    ("zippered.vertical_flow", "zippered", "vertical_flow", None),
    ("cocycle.induction_path", "cocycle", "induction_path", _count_steps),
    ("cocycle.lyapunov_spectrum", "cocycle", "lyapunov_spectrum", None),
    ("cocycle.symplectic_data", "cocycle", "symplectic_data", None),
    ("cocycle.unstable_vector_at_origin", "cocycle",
     "unstable_vector_at_origin", None),
    ("cocycle.second_plane_at_origin", "cocycle", "second_plane_at_origin",
     None),
    ("cocycle.backward_flag_at_origin", "cocycle", "backward_flag_at_origin",
     None),
    ("finadd.ReturnLadder.build", "finadd", "ReturnLadder.__init__",
     _ladder_depth),
    ("finadd.ReturnLadder.register", "finadd", "ReturnLadder.register", None),
    ("finadd.ReturnLadder.evaluate", "finadd", "ReturnLadder.evaluate", None),
    ("finadd.holder_exponents", "finadd", "holder_exponents", None),
    ("finadd.evaluate_on_flow_arc", "finadd", "evaluate_on_flow_arc", None),
    ("finadd.build_phi_from_vector", "finadd", "build_phi_from_vector", None),
    ("finadd.build_phi_f", "finadd", "build_phi_f", _series_terms),
    ("limitlab.limit_decay_report", "limitlab", "limit_decay_report",
     _limit_samples),
    ("limitlab.lp_distance_grid", "limitlab", "lp_distance_grid", None),
    ("limitlab.component_index", "limitlab", "component_index", None),
    ("limitlab.second_component_observable", "limitlab",
     "second_component_observable", None),
]
# Hot leaves: a counter only, no span.
COUNTED = [
    ("rauzy.interval_index.calls", "rauzy", "IetData.interval_index"),
    ("limitlab.matching_solves", "limitlab", "maximum_bipartite_matching"),
]


def install(tracer: Tracer) -> None:
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "ietlab" or n.startswith("ietlab.")]

    def owner_of(module: str, attr: str):
        owner = importlib.import_module(f"ietlab.{module}")
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, last

    for name, module, attr, on_result in SPANNED:
        owner, last = owner_of(module, attr)
        tracer.replace(owner, last,
                       tracer.spanned(name, getattr(owner, last), on_result),
                       modules)
    for name, module, attr in COUNTED:
        owner, last = owner_of(module, attr)
        tracer.replace(owner, last,
                       tracer.counted(name, getattr(owner, last)), modules)


# (metric, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("cli.main.self_s", "s", "lower", "tasks_s on every workload; stays flat"),
    ("rauzy.rauzy_step.calls", "count", "lower", "tasks_s on spectrum-hyp"),
    ("rauzy.rauzy_step.s", "s", "lower", "tasks_s on spectrum-hyp"),
    ("rauzy.running_sup_profile.s", "s", "lower", "tasks_s on orbit-h2"),
    ("rauzy.orbit_steps_per_s", "1/s", "higher", "tasks_s on orbit-h2"),
    ("rauzy.interval_index.calls", "count", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("zippered.sample_point.calls", "count", "lower", "tasks_s on limit-h2"),
    ("zippered.sample_point.s", "s", "lower", "tasks_s on limit-h2"),
    ("zippered.vertical_flow.calls", "count", "lower", "tasks_s on orbit-h2"),
    ("zippered.vertical_flow.s", "s", "lower", "tasks_s on orbit-h2"),
    ("cocycle.induction_path.calls", "count", "lower",
     "tasks_s on spectrum-hyp; a little on limit-h2 and orbit-h2"),
    ("cocycle.induction_path.s", "s", "lower",
     "tasks_s on spectrum-hyp; a little on limit-h2 and orbit-h2"),
    ("cocycle.induction_path.steps", "count", "lower",
     "tasks_s on spectrum-hyp; a little on limit-h2 and orbit-h2"),
    ("cocycle.lyapunov_spectrum.self_s", "s", "lower",
     "tasks_s on spectrum-hyp"),
    ("cocycle.symplectic_data.calls", "count", "lower",
     "tasks_s on every workload"),
    ("cocycle.symplectic_data.s", "s", "lower", "tasks_s on every workload"),
    ("cocycle.unstable_vector_at_origin.s", "s", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("cocycle.second_plane_at_origin.s", "s", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("cocycle.backward_flag_at_origin.calls", "count", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("cocycle.backward_flag_at_origin.s", "s", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("finadd.ReturnLadder.build_s", "s", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("finadd.ReturnLadder.depth", "count", "higher",
     "tasks_s on limit-h2 and orbit-h2"),
    ("finadd.ReturnLadder.register.calls", "count", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("finadd.ReturnLadder.register.s", "s", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("finadd.ReturnLadder.evaluate.calls", "count", "lower",
     "tasks_s on orbit-h2"),
    ("finadd.ReturnLadder.evaluate.s", "s", "lower", "tasks_s on orbit-h2"),
    ("finadd.holder_exponents.s", "s", "lower", "tasks_s on orbit-h2"),
    ("finadd.evaluate_on_flow_arc.s", "s", "lower", "tasks_s on orbit-h2"),
    ("finadd.build_phi_from_vector.s", "s", "lower",
     "tasks_s on limit-h2 and orbit-h2"),
    ("finadd.build_phi_f.s", "s", "lower", "tasks_s on limit-h2"),
    ("finadd.build_phi_f.n_terms", "count", "lower", "tasks_s on limit-h2"),
    ("limitlab.limit_decay_report.self_s", "s", "lower",
     "tasks_s on limit-h2"),
    ("limitlab.arcs", "count", "lower", "tasks_s on limit-h2"),
    ("limitlab.arcs_per_s", "1/s", "higher", "tasks_s on limit-h2"),
    ("limitlab.sample_yield", "ratio", "higher", "tasks_s on limit-h2"),
    ("limitlab.lp_distance_grid.calls", "count", "lower",
     "tasks_s on limit-h2"),
    ("limitlab.lp_distance_grid.s", "s", "lower", "tasks_s on limit-h2"),
    ("limitlab.matching_solves", "count", "lower", "tasks_s on limit-h2"),
    ("limitlab.component_index.s", "s", "lower", "tasks_s on limit-h2"),
    ("limitlab.second_component_observable.s", "s", "lower",
     "tasks_s on limit-h2"),
    ("trace.overhead_s", "s", "lower", "none: traced minus plain pass time"),
]


def layer_values(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer metric values from the traced pass; 0 for layers the
    workload does not reach."""
    rows = summarize(tracer.spans)
    counts = tracer.counts

    def span(name: str, field: str) -> float:
        return rows.get(name, {}).get(field, 0)

    def per(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out = {}
    for name, _, _, _ in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and base in rows:
            out[name] = span(base, field)
        elif name in counts:
            out[name] = counts[name]
        else:
            out[name] = 0
    out["finadd.ReturnLadder.build_s"] = span("finadd.ReturnLadder.build",
                                              "s")
    out["rauzy.orbit_steps_per_s"] = per(
        counts.get("rauzy.orbit_steps", 0),
        span("rauzy.running_sup_profile", "s"))
    attempts = counts.get("limitlab.samples", 0) + \
        counts.get("limitlab.resamples", 0)
    out["limitlab.arcs"] = 2 * attempts
    out["limitlab.arcs_per_s"] = per(
        out["limitlab.arcs"], span("limitlab.limit_decay_report", "self_s"))
    out["limitlab.sample_yield"] = per(counts.get("limitlab.samples", 0),
                                       attempts)
    out["trace.overhead_s"] = overhead_s
    return out


# ------------------------------------------------------------- the record

def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter: import the CLI and generate the task list."""
    code = ("import sys, time\n"
            "t = time.perf_counter()\n"
            "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import ietlab.cli\n"
            "from run import workload_tasks\n"
            "workload_tasks(sys.argv[3], int(sys.argv[4]))\n"
            "print(time.perf_counter() - t)\n")
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(BENCH), workload,
         str(seed)], capture_output=True, text=True, check=True, timeout=120,
        cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def machine_record() -> dict:
    import numpy
    import scipy
    commit = None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    lines = sum(1 for p in SRC.rglob("*.py")
                for line in p.read_text().splitlines() if line.strip())
    return {"git_commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_nonblank_lines": lines}


def record_reference() -> int:
    """Write reference.json from the current code, one task at a time."""
    import ietlab.cli as cli
    reference = {}
    argvs = {reference_key(a): a for w in WORKLOADS
             for seed in range(len(CLI_SEEDS))
             for a in workload_tasks(w, seed)}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for k, (key, argv) in enumerate(sorted(argvs.items())):
            target = Path(tmp) / str(k)
            start = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(target)])
            elapsed = time.perf_counter() - start
            if code != 0:
                print(f"{key}: exit status {code}", file=sys.stderr)
                return 1
            reference[key] = json.loads(
                (target / f"{argv[0]}.json").read_text())["results"]
            print(f"{key}: {elapsed:.2f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=1)
                         + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ietlab" / "cli.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        # every workload in its own interpreter, so that set-up and peak
        # memory stay per workload
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for w in WORKLOADS)
    reference = json.loads(REFERENCE.read_text()) \
        if REFERENCE.is_file() else {}
    if not reference:
        print(f"no reference values in {REFERENCE}", file=sys.stderr)
        return 2
    tasks = workload_tasks(args.workload, args.seed)
    setups = [] if args.trace else [setup_seconds(args.workload, args.seed)
                                    for _ in range(SETUP_REPEATS)]
    import ietlab.cli as cli

    passes = []
    tracer = None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        start = time.perf_counter()
        while not passes or (len(passes) < 2 if args.trace else
                             time.perf_counter() - start < args.seconds):
            traced = args.trace and len(passes) == 1
            if traced:
                tracer = Tracer()
                install(tracer)
            try:
                passes.append(run_pass(
                    cli, tasks, Path(tmp) / f"pass{len(passes)}", reference,
                    passes[0]["artifacts"] if passes else None, tracer,
                    len(passes) * len(tasks)))
            finally:
                if traced:
                    tracer.remove()
    pass_s = [sum(p["times"]) for p in passes]
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record = {"workload": args.workload, "seed": args.seed,
              "cli_seeds": sorted({int(a[-1]) for a in tasks}),
              "trace": args.trace, "passes": len(passes),
              **machine_record(),
              "task_s": {reference_key(a): [p["times"][k] for p in passes]
                         for k, a in enumerate(tasks)},
              "failed_frac": len(failures) / attempted,
              "failures": failures,
              "scaling_exponent_top": passes[0]["tops"]}
    if args.trace:
        values = layer_values(tracer, pass_s[1] - pass_s[0])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in LAYER_METRICS}
    else:
        metrics = {
            "tasks_s": {"value": statistics.median(pass_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
