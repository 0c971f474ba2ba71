#!/usr/bin/env python3
"""The SEANCE repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds seance_cli and the replay harness from source into .bench_build,
runs one workload for S seconds as `seance_cli batch` processes timed
from outside, checks every produced row byte for byte against
tests/data/golden_corpus.csv, and prints a metric table followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload once
untraced, replays it through the public function of every layer, and
reports the per-layer metrics.  perfbench/README.md explains each
workload and metric; BENCHMARK.json at the repository root declares their
names, units and directions.
"""

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
GOLDEN = os.path.join("tests", "data", "golden_corpus.csv")
REQUIRED_SOURCES = [os.path.join("src", "CMakeLists.txt"),
                    os.path.join("tools", "CMakeLists.txt"), GOLDEN]
OPTIMIZED_BUILDS = {"Release", "RelWithDebInfo", "MinSizeRel"}
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# One job in flight per process, and the golden check set: every row of
# these runs has a golden reference.
CLI_CHECKS = ["--jobs", "1", "--gate-ternary", "--timeout", "120000"]

# "pass_s" is the nominal length of one `seance_cli batch` run of the
# workload's corpus on a 4-core container.  A run makes a fixed number of
# them, round(--seconds / pass_s), so every run of a workload times the
# same work and the tail percentile always sits at the same rank.
WORKLOADS = {
    # Prefixes of the golden harder-12x5 and hardest-20x6 streams: 5
    # equation-bound jobs in one process, 8 runs at --seconds 40.  The
    # median rank falls on the 5th of 8 samples of hardest-20x6-0001
    # (~0.5 s) and the tail rank on the 6th of 8 of hardest-20x6-0002
    # (~1.5 s): long jobs, each at least 3x from its neighbours, so the
    # ranks never flip between jobs.  A longer harder prefix is left out
    # because harder-12x5-0001 running first made hardest-20x6-0001 vary
    # by +-18% instead of +-4% from run to run.
    "deep": {"pass_s": 5.0, "shards": 0,
             "recipe": ["--no-suite", "--random", "0", "--harder", "1",
                        "--hardest", "4"]},
    # The Table-1 suite + extra + golden gen-6x3 (200) + hard-8x4 (50):
    # 256 short jobs over two re-exec'd worker processes.
    "sharded": {"pass_s": 0.5, "shards": 2,
                "recipe": ["--extra", "--random", "200", "--hard", "50"]},
}
# The traced run reads the fleet.* layers off a run with this many
# shards; deep's own runs have no fleet, so its traced run adds one.
FLEET_SHARDS = 2
# --progress prints each job's time rounded to this step.
PROGRESS_STEP_MS = 0.1

# Printed with the end-to-end table but kept out of BENCHMARK.json: both
# are zero by design (no failures; no certified gap outside deep), and a
# zero median cannot carry a relative bound.  failed_share is enforced
# through "correct"/"failed" instead.
REPORTED_ONLY = {
    "failed_share": ("share", "lower"),
    "cover_gap_total": ("count", "lower"),
}
# Per-layer metrics this script derives from the traced run's own CLI
# runs; the harness (perfbench/harness.cpp) measures all the others.
DERIVED_LAYERS = ("fleet.slowest_unit_ms", "fleet.orchestration_ms",
                  "trace.overhead_ratio")


class BenchError(Exception):
    """A reason to stop without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- statistics --------------------------------------------------------------

def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample_count).  With n samples that is the
    sorted value at index n - 11, the (n - 10) / n percentile.  Fewer than
    eleven samples have no such percentile; the maximum is returned with
    percentile 100 so the report shows the shortfall.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ---- golden comparison --------------------------------------------------------

def row_name(line):
    return next(csv.reader([line]))[0]


def load_golden(path):
    """name -> exact CSV row bytes (no newline) of the golden corpus."""
    golden = {}
    with open(path, "rb") as f:
        lines = f.read().decode("utf-8").splitlines()
    rows = [line for line in lines if line and not line.startswith("#")]
    for line in rows[1:]:  # rows[0] is the CSV header
        golden[row_name(line)] = line
    return golden


def compare_rows(lines, golden):
    """Checks rows against the golden by name, byte for byte.

    Returns (attempted, failures) where failures lists "name: why" for
    every row that is not ok, has no golden row, or differs from it.
    """
    failures = []
    for line in lines:
        name = row_name(line)
        expected = golden.get(name)
        status = line.split(",")[1] if "," in line else ""
        if expected is None:
            failures.append(f"{name}: no golden row")
        elif line != expected:
            failures.append(f"{name}: row differs from golden"
                            + ("" if status == "ok" else f" (status {status})"))
    return len(lines), failures


def read_rows(path, skip_header=False):
    with open(path, "rb") as f:
        lines = f.read().decode("utf-8").splitlines()
    lines = [line for line in lines if line and not line.startswith("#")]
    return lines[1:] if skip_header else lines


def quality(lines):
    """Summed golden quality columns over the distinct rows."""
    seen = {}
    for line in lines:
        seen.setdefault(row_name(line), line)
    header = "gate_count", "state_vars", "cover_gap"
    columns = [12, 6, 18]  # indexes in driver::kCsvHeader
    sums = dict.fromkeys(header, 0)
    for line in seen.values():
        fields = next(csv.reader([line]))
        for key, col in zip(header, columns):
            sums[key] += int(fields[col])
    return sums


def metric_units(section):
    """name -> (unit, better) for one metric list of BENCHMARK.json, the
    single place metric names, units and directions are declared."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: (m["unit"], m["better"]) for m in spec[section]}


# ---- environment and build ----------------------------------------------------

def missing_sources():
    return [p for p in REQUIRED_SOURCES if not os.path.exists(os.path.join(ROOT, p))]


def cmake_cache_value(key):
    path = os.path.join(ROOT, BUILD, "CMakeCache.txt")
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_files():
    files = []
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if f.endswith((".cpp", ".hpp", ".txt")))
    return files


def build():
    """Configures once, then builds the CLI and the harness.  Returns the
    two executable paths.  `cmake --build` brings both up to date with
    every source they depend on or fails, so no stale binary is timed."""
    build_dir = os.path.join(ROOT, BUILD)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    started = time.monotonic()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "seance_cli", "seance_perfbench"],
                   check=True, stdout=sys.stderr, timeout=max(60, remaining))
    cli = os.path.join(build_dir, "tools", "seance_cli")
    harness = os.path.join(build_dir, "seance_perfbench")
    build_type = cmake_cache_value("CMAKE_BUILD_TYPE")
    if build_type not in OPTIMIZED_BUILDS:
        raise BenchError(f"refusing to time a '{build_type or 'unset'}' build "
                         f"(need one of {sorted(OPTIMIZED_BUILDS)})")
    return cli, harness


def environment():
    """What every result is recorded beside."""
    commit = "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, text=True, capture_output=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    compiler = cmake_cache_value("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], text=True,
                             capture_output=True, timeout=10)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    return {
        "commit": commit,
        "sources_sha256": digest.hexdigest()[:16],
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "nproc": os.cpu_count(),
    }


# ---- running children ----------------------------------------------------------

def run_json(cmd):
    """Runs a harness subcommand and returns its last-line JSON."""
    out = subprocess.run(cmd, text=True, stdout=subprocess.PIPE,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def passes_for(workload, seconds):
    return max(1, round(seconds / WORKLOADS[workload]["pass_s"]))


SHARD_LINE = re.compile(r"^shards: \d+ workers, slowest ([\d.]+) ms$", re.M)
# One line per finished job on stderr: "[   3/ 128] lion9   ok (12.3 ms)".
PROGRESS_MS = re.compile(r"^\[\s*\d+/\s*\d+\] .* \(([\d.]+) ms\)$", re.M)


def cli_run(cli, recipe, shards, work, tag):
    """One `seance_cli batch` run of the corpus, timed from outside: its
    wall, its set-up, each job's time from its --progress line, the peak
    RSS of its process tree from wait4, and its CSV rows."""
    rows_path = os.path.join(work, f"rows-{tag}.csv")
    shard_dir = os.path.join(work, f"shards-{tag}")
    cmd = [cli, "batch", *recipe, *CLI_CHECKS, "--csv", rows_path,
           "--quiet", "--progress"]
    if shards:
        cmd += ["--shards", str(shards), "--shard-dir", shard_dir]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stderr.readline()
        first_at = time.perf_counter()
        progress = first + proc.stderr.read()
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    shutil.rmtree(shard_dir, ignore_errors=True)
    # Exit 1 with a CSV means some job failed; its row still goes to the
    # golden check, which counts it.
    if proc.returncode not in (0, 1) or not os.path.exists(rows_path):
        raise BenchError(f"seance_cli batch failed (exit {proc.returncode}): "
                         f"{stdout.strip()[-200:]}")
    rows = read_rows(rows_path, skip_header=True)
    os.remove(rows_path)
    latency = [float(ms) for ms in PROGRESS_MS.findall(progress)]
    first_job = PROGRESS_MS.findall(first)
    shard = SHARD_LINE.search(stdout)
    if not first_job or len(latency) != len(rows) or (shards and not shard):
        raise BenchError(f"seance_cli batch printed {len(latency)} progress lines "
                         f"for {len(rows)} rows")
    return {
        "wall_s": wall,
        # First job ready: its completion line's arrival, less its own run.
        "setup_s": first_at - start - float(first_job[0]) / 1000.0,
        "latency_ms": latency,
        "slowest_unit_ms": float(shard.group(1)) if shard else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rows": rows,
    }


# ---- workloads -------------------------------------------------------------------

def end_to_end(runs):
    """End-to-end metrics from an untraced run's CLI runs."""
    latency = [ms for run in runs for ms in run["latency_ms"]]
    tail_ms, tail_pct, samples = tail(latency)
    q = quality([row for run in runs for row in run["rows"]])
    metrics = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "jobs_per_s": len(latency) / sum(run["wall_s"] for run in runs),
        # The printed job times are rounded, and short jobs tie on a few
        # values; the grouped median interpolates inside the tied group
        # instead of moving in whole steps.
        "job_p50_ms": statistics.median_grouped(latency, PROGRESS_STEP_MS),
        "job_tail_ms": tail_ms,
        "gates_total": q["gate_count"],
        "state_vars_total": q["state_vars"],
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    extra = {"cover_gap_total": q["cover_gap"],
             "tail": f"p{tail_pct:.2f} of {samples} samples, "
                     f"{min(10, samples - 1)} beyond"}
    return metrics, extra


def trace(workload, seed, cli, harness, work):
    """Traced run: one untraced reference CLI run, then the layer replay."""
    spec = WORKLOADS[workload]
    reference = cli_run(cli, spec["recipe"], spec["shards"], work, "reference")
    runs = [reference]
    fleet = reference
    if not spec["shards"]:
        fleet = cli_run(cli, spec["recipe"], FLEET_SHARDS, work, "fleet")
        runs.append(fleet)
    rows_path = os.path.join(work, "trace-rows.csv")
    replay = run_json([harness, "trace", *spec["recipe"], "--seed", str(seed),
                       "--rows", rows_path, "--work", work])
    layers = dict(replay["layers"])
    layers["fleet.slowest_unit_ms"] = fleet["slowest_unit_ms"]
    layers["fleet.orchestration_ms"] = 1000.0 * fleet["wall_s"] - fleet["slowest_unit_ms"]
    # The replay is serial, and a sharded run's wall is split over its
    # workers, so the untraced side is the reference run's summed job time.
    busy_s = sum(reference["latency_ms"]) / 1000.0
    layers["trace.overhead_ratio"] = replay["replay_wall_s"] / busy_s
    rows = [row for run in runs for row in run["rows"]] + read_rows(rows_path)
    notes = {
        "untraced summed job time": f"{busy_s:.3f} s",
        "traced replay wall": f"{replay['replay_wall_s']:.3f} s",
        "fleet figures": (f"the reference run (--shards {spec['shards']})"
                          if fleet is reference else
                          f"one extra --shards {FLEET_SHARDS} run"),
        "replay fidelity": ("ok" if replay["fidelity_mismatches"] == 0 else
                            f"INVALID ({replay['fidelity_mismatches']} jobs; "
                            f"first {replay['first_mismatch']})"),
    }
    return layers, rows, replay["fidelity_mismatches"], notes


# ---- report ------------------------------------------------------------------------

def print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name:<28} {value:>16.6g} {unit:<6} {better}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        log(f"perfbench: not a SEANCE source checkout (missing {', '.join(missing)})")
        return 2
    os.chdir(ROOT)
    # Keep compiler and child temporaries inside the checkout too.
    tmp = os.path.join(ROOT, BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    # Every measured process runs on one malloc arena.  Each job runs on a
    # fresh watchdog thread, and with glibc's per-thread arenas the peak
    # RSS depended on which arenas those threads happened to get: 38, 45,
    # or 53 MiB on deep, and 37 or 53 MiB for a serve process, from run to
    # run.
    os.environ["MALLOC_ARENA_MAX"] = "1"
    load_before = os.getloadavg()
    try:
        cli, harness = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    env = environment()
    golden = load_golden(GOLDEN)
    work = os.path.join(ROOT, BUILD, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        notes = {}
        if args.trace:
            metrics, rows, mismatches, notes = trace(args.workload, args.seed, cli,
                                                     harness, work)
            units = metric_units("per_layer")
        else:
            spec = WORKLOADS[args.workload]
            runs = [cli_run(cli, spec["recipe"], spec["shards"], work, str(i))
                    for i in range(passes_for(args.workload, args.seconds))]
            metrics, extra = end_to_end(runs)
            rows = [row for run in runs for row in run["rows"]]
            mismatches = 0
            units = metric_units("end_to_end")
        if set(metrics) != set(units):
            raise BenchError("measured metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures = compare_rows(rows, golden)
    env["loadavg_before"] = [round(x, 2) for x in load_before]
    env["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    correct = not failures and mismatches == 0 and attempted > 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        print_table("per-layer metrics (summed over the replayed jobs):", metrics, units)
    else:
        print_table("end-to-end metrics:", metrics, units)
        reported = {"failed_share": len(failures) / attempted,
                    "cover_gap_total": extra["cover_gap_total"]}
        print_table("reported only:", reported, REPORTED_ONLY)
        notes["job_tail_ms"] = extra["tail"]
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"golden: {attempted - len(failures)} of {attempted} rows byte-equal")
    for failure in failures[:20]:
        print(f"  MISMATCH {failure}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    record_dir = os.path.join(ROOT, BUILD, "results")
    os.makedirs(record_dir, exist_ok=True)
    record = os.path.join(record_dir,
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"env": env, "notes": notes, **result}, f, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
