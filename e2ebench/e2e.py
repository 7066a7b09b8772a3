"""End-to-end FPVM benchmark: one workload per fresh process.

    python3 e2ebench/e2e.py --workload fig12_warm --seed 1 --seconds 10
    python3 e2ebench/e2e.py --workload cold_oneshot --seed 1 --trace 1
    python3 e2ebench/e2e.py                        # every workload, in turn
    python3 e2ebench/e2e.py --compare A.json B.json
    python3 e2ebench/e2e.py --write-golden

A run sets up (repeated while that stays cheap), then times whole jobs
from the outside in rounds until ``--seconds`` have passed (at least
three rounds), checks every job's outputs, prints every metric of
``BENCHMARK.json`` by name with its unit, and ends with one JSON line.
``--trace 1`` instead runs one untraced reference round and then traced
rounds, and reports the per-layer metrics.  Each run also writes
``.benchmarks/e2e-<commit>-<seed>.json``; a traced run writes its spans
to ``.benchmarks/trace-<workload>-<seed>.json``.  See README.md.
"""

from __future__ import annotations

import os

# one thread per process: numpy (imported by the batch engine) would
# otherwise start a BLAS pool on every core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"e2e: {ROOT / 'src' / 'repro'} is missing; run the "
             "benchmark from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
from probe import Tracer, render_layers  # noqa: E402
from repro.workloads import WORKLOADS as REGISTRY  # noqa: E402

GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".benchmarks"
#: rounds per run at least, however short ``--seconds`` is
MIN_ROUNDS = 3
#: set-up repeats at most; it stops earlier once it has used
#: ``--seconds`` (the warm workloads' cold static analysis)
SETUP_REPS = 3


# --------------------------------------------------------------------------- #
# running one workload                                                         #
# --------------------------------------------------------------------------- #

def run_round(workload: str, seed: int, rnd: int, ctx, smoke: bool,
              tracer=None) -> list:
    outcomes = []
    for job in jobs.round_jobs(workload, seed, rnd, smoke):
        gc.collect()
        outcomes.append(jobs.run_job(job, ctx, tracer))
    jobs.check_round(outcomes)
    for o in outcomes:
        for err in o.errors:
            print(f"FAIL {workload} round {rnd} {o.job.key}: {err}",
                  file=sys.stderr)
    return outcomes


def quartiles(samples: list[float]) -> dict:
    """Median, quartiles and count of a run's samples of one metric."""
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def slowdown(outcomes: list, ctx) -> float:
    """Geometric mean over the FPVM jobs of modeled cycles over the
    native cycles of the same program and input (1.0 without any)."""
    ratios = [o.cycles / ctx.native_cycles[o.job.program]
              for o in outcomes
              if o.job.arith is not None and not o.errors and o.cycles]
    return geomean(ratios) if ratios else 1.0


def paper_error(outcomes: list, ctx) -> float | None:
    """Geometric mean over programs of max(m/p, p/m): m the modeled
    MPFR-200 slowdown, p the paper's R815 slowdown (Fig. 12)."""
    errs = []
    for o in outcomes:
        if o.job.arith == "mpfr:200" and not o.errors:
            m = o.cycles / ctx.native_cycles[o.job.program]
            p = REGISTRY[o.job.program].paper_slowdown_r815
            errs.append(max(m / p, p / m))
    return geomean(errs) if errs else None


def end_to_end(rounds: list[list], ctx,
               setup_samples: list[float]) -> tuple[dict, dict]:
    """The end-to-end metric values, and the per-run samples (set-ups,
    rounds) each one's median, quartiles and n are recorded from.

    Job times enter as each job's fastest round.  Interference on a
    shared host only ever adds time, in bursts of up to 1.8x that last
    several rounds; the per-job minimum reads through them where a
    per-job median does not (5% against 8-13% spread between runs).
    """
    wall: dict[str, list] = {}
    run: dict[str, list] = {}
    instrs: dict[str, int] = {}
    for outcomes in rounds:
        for o in outcomes:
            if not o.errors:
                wall.setdefault(o.job.key, []).append(o.wall_s)
                run.setdefault(o.job.key, []).append(o.run_s)
                instrs[o.job.key] = o.instrs
    ok = [[o for o in r if not o.errors] for r in rounds if r]
    run_s = sum(min(v) for v in run.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": sum(min(v) for v in wall.values()),
        "sim_mips": sum(instrs.values()) / run_s / 1e6 if run_s else 0.0,
        "slowdown_x": slowdown(ok[-1], ctx),
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": setup_samples,
        "pass_s": [sum(o.wall_s for o in r) for r in ok],
        "sim_mips": [sum(o.instrs for o in r) / sum(o.run_s for o in r) / 1e6
                     for r in ok if r],
        "slowdown_x": [slowdown(r, ctx) for r in ok],
        "peak_rss_mb": [rss_mb],
    }
    return values, samples


def run_workload(args, spec: dict) -> int:
    workload, seed = args.workload, args.seed
    import_s = time.perf_counter() - T_START
    golden = json.loads(GOLDEN.read_text())
    base = jobs.base_jobs(workload, seed)
    if args.smoke:
        base = base[:2]

    setup_samples: list[float] = []
    while True:
        t0 = time.perf_counter()
        ctx = jobs.setup(workload, base, golden)
        setup_samples.append(import_s + time.perf_counter() - t0)
        if (args.smoke or len(setup_samples) >= SETUP_REPS
                or sum(setup_samples) >= args.seconds):
            break

    def measure(rounds: list, least: int, tracer=None) -> None:
        t0 = time.perf_counter()
        while (len(rounds) < least or not args.smoke
               and time.perf_counter() - t0 < args.seconds):
            rounds.append(run_round(workload, seed, len(rounds), ctx,
                                    args.smoke, tracer))

    rounds: list[list] = []
    if not args.trace:
        measure(rounds, 1 if args.smoke else MIN_ROUNDS)
    else:
        rounds.append(run_round(workload, seed, 0, ctx, args.smoke))
        tracer = Tracer()
        with tracer.instrument():
            measure(rounds, 2, tracer)

    outcomes = [o for r in rounds for o in r]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.errors)
    print(f"{workload}: seed {seed}, {len(rounds)} rounds of "
          f"{len(rounds[0])} jobs, set-up x{len(setup_samples)}, "
          f"{attempted - failed}/{attempted} jobs ok")
    if args.trace:
        traced = rounds[1:]
        overhead = (statistics.median(sum(o.wall_s for o in r)
                                      for r in traced)
                    / sum(o.wall_s for o in rounds[0]))
        values = tracer.layer_metrics(len(traced), overhead)
        samples = {}
        wanted, kind = spec["per_layer"], "per_layer"
        print(render_layers(tracer.layers()))
        write_json(OUT_DIR / f"trace-{workload}-{seed}.json",
                   tracer.to_dict())
    else:
        values, samples = end_to_end(rounds, ctx, setup_samples)
        wanted, kind = spec["end_to_end"], "end_to_end"

    result, record = {}, {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        result[name] = {"value": values[name], "unit": unit}
        record[name] = dict(result[name])
        line = f"  {name:26s} {values[name]:14.6g} {unit}"
        if name in samples:
            record[name].update(quartiles(samples[name]))
            q = record[name]
            line += (f"  (runs: median {q['median']:.6g} q1 {q['q1']:.6g}"
                     f" q3 {q['q3']:.6g} n={q['n']})")
        print(line)
    print(f"  {'fail_rate':26s} {failed / attempted:14.6g} fraction")
    if not args.trace and workload == "fig12_warm":
        err = paper_error(rounds[-1], ctx)
        if err is not None:
            record["paper_err_x"] = {"value": err, "unit": "x"}
            print(f"  {'paper_err_x':26s} {err:14.6g} x  (modeled MPFR-200 "
                  "slowdown vs the paper's R815)")
    save_record(workload, seed, len(rounds), args.seconds, kind, record,
                attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------- #
# the run record                                                               #
# --------------------------------------------------------------------------- #

def host() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def git_state() -> tuple[str, bool | None]:
    """(commit, dirty) of the checkout; ("nogit", None) outside git."""
    if not (ROOT / ".git").exists():
        return "nogit", None

    def git(*cmd) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True,
                              capture_output=True, text=True,
                              timeout=60).stdout.strip()
    try:
        return (git("rev-parse", "--short=12", "HEAD"),
                bool(git("status", "--porcelain", "--untracked-files=no")))
    except (OSError, subprocess.SubprocessError):
        return "nogit", None


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


def save_record(workload, seed, rounds, seconds, kind, metrics, attempted,
                failed) -> None:
    commit, dirty = git_state()
    path = OUT_DIR / f"e2e-{commit}-{seed}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.update({"schema": 1, "host": host(), "commit": commit,
                   "dirty": dirty, "seed": seed})
    entry = record.setdefault("workloads", {}).setdefault(workload, {})
    entry[kind] = {"rounds": rounds, "seconds": seconds,
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics}
    write_json(path, record)


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """One row per (workload, end-to-end metric): B against A.

    A metric is unresolved when either record's quartile spread is
    wider than its bound; worse when B is worse than A by more than the
    bound.  Exit status 1 when any row is worse."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"A: {a['commit']} seed {a['seed']}   B: {b['commit']} "
          f"seed {b['seed']}")
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    worse_any = False
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma = a["workloads"][workload].get("end_to_end", {}).get("metrics", {})
        mb = b["workloads"][workload].get("end_to_end", {}).get("metrics", {})
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in ma or name not in mb:
                continue
            va, vb = ma[name]["value"], mb[name]["value"]
            change = (vb - va) / va if va else 0.0
            worse = change if m["better"] == "lower" else -change
            spread = max((r["q3"] - r["q1"]) / r["median"] if r["median"]
                         else 0.0 for r in (ma[name], mb[name]))
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict, worse_any = "WORSE", True
            else:
                verdict = "ok"
            print(f"{workload:14s} {name:12s} {va:12.6g} {vb:12.6g} "
                  f"{100 * worse:8.2f}% {100 * m['bound']:5.1f}%  {verdict}")
    return 1 if worse_any else 0


# --------------------------------------------------------------------------- #
# golden outputs                                                               #
# --------------------------------------------------------------------------- #

def write_golden() -> int:
    """Regenerate golden.json from one round of each golden workload."""
    golden = {}
    for workload, fields in jobs.GOLDEN_FIELDS.items():
        ctx = jobs.setup(workload, jobs.base_jobs(workload, 0), {})
        ctx.golden_fields = ()          # nothing to compare against yet
        outcomes = run_round(workload, 0, 0, ctx, smoke=False)
        if any(o.errors for o in outcomes):
            return 1
        golden[workload] = {o.job.key: {f: o.fingerprint[f] for f in fields}
                            for o in outcomes}
    write_json(GOLDEN, golden)
    print(f"wrote {GOLDEN}")
    return 0


# --------------------------------------------------------------------------- #
# command line                                                                 #
# --------------------------------------------------------------------------- #

def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    status = 0
    for workload in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=jobs.WORKLOADS,
                   help="run one workload (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the timed rounds run (at least "
                        f"{MIN_ROUNDS} rounds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="report per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="1 round of the first 2 jobs, set-up once")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two run records")
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate golden.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, spec)
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
