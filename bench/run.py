"""gbbmlab benchmark: CLI workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the commands import ``gbbmlab`` from
``./src`` and nothing else. Load is closed-loop with concurrency 1: one CLI
command at a time, each in a fresh interpreter, repeated until the next
repetition would overrun ``--seconds`` (at least one repetition). The seed
only permutes the order of commands within a repetition; the workloads are
deterministic. Every command's scientific output is checked against
``reference.json``; a failed check, a crash or a timeout counts as a failed
operation.

``--trace 0`` reports the end-to-end metrics. The machine's speed drifts by
up to 40% between minute-long phases (shared cores), so before every
repetition ``speed.py`` launches a fixed reference (interpreter start, numpy
and scipy imports, a numpy kernel of the workload's kind of compute); the
reported times are the raw medians times nominal / median reference time.
Raw medians are printed and kept in the record.
``--trace 1`` alternates
untraced and traced launches of each repetition and reports the per-layer
metrics of the traced ones, plus their overhead against the untraced ones.
The last line of standard output is one JSON object; the full record of the
run (environment, every sample, notes, span files) is kept under
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans as spanlib  # noqa: E402
import speed  # noqa: E402

WORKLOADS = {
    "soliton_evolve": (("evolve", "--p", "4.5", "--t-end", "2"),),
    "instability_scan": (("instability", "--a", "0.02", "--t-end", "60", "--dt", "0.025"),),
    "negativity_table": (("table",), ("identities",)),
    "weinstein_spectral": (("spectrum",), ("coercivity",)),
}
# one BLAS thread in every child, on every commit: steadier than the
# default pool on a shared 2-core machine
BLAS_THREADS = 1
MIN_SAMPLES = 8  # set-up times and speed references per run, topped up after the loop
COMMAND_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
IMPORT_MODULES = {"numpy": "setup.numpy_import_s", "scipy": "setup.scipy_import_s",
                  "gbbmlab": "setup.gbbmlab_import_s"}


class Launcher:
    """Starts child.py for one command and returns what it measured."""

    def __init__(self, root: Path, workdir: Path):
        self.root, self.workdir = root, workdir
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        self.env = env

    def run(self, cli_args=(), probe: bool = False, trace: bool = False) -> dict:
        self.count += 1
        name = (cli_args[0] if cli_args else "probe") + ("-traced" if trace else "")
        tag = f"{self.count:03d}-{name}"
        result_path = self.workdir / f"{tag}.result.json"
        outdir = self.workdir / tag
        argv = [sys.executable]
        if trace:
            argv += ["-X", "importtime"]
        argv += [str(BENCH / "child.py"), str(result_path), "LAUNCHED"]
        if probe:
            argv.append("--probe")
        if trace:
            argv += ["--trace", str(self.workdir / f"{tag}.spans.json")]
        argv += ["--", *cli_args]
        if cli_args:
            argv += ["--out", str(outdir)]
        err_path = self.workdir / f"{tag}.stderr"
        with open(self.workdir / f"{tag}.stdout", "wb") as out, open(err_path, "wb") as err:
            argv[argv.index("LAUNCHED")] = repr(time.time())
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=out, stderr=err)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = {"tag": tag, "args": list(cli_args), "wall_s": wall,
               "returncode": proc.returncode, "outdir": str(outdir),
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "maxrss_mb": usage.ru_maxrss / 1024.0,
               "timed_out": killed.is_set()}
        if result_path.exists():
            res.update(json.loads(result_path.read_text()))
        if trace:
            res["spans_path"] = str(self.workdir / f"{tag}.spans.json")
            res["imports"] = import_times(err_path.read_text(errors="replace"))
        return res

    def speed(self, workload: str) -> dict:
        """speed.py's import and kernel seconds, run in this launcher's environment."""
        argv = [sys.executable, str(BENCH / "speed.py"), workload, repr(time.time())]
        out = subprocess.run(argv, env=self.env, cwd=self.root, check=True,
                             timeout=COMMAND_TIMEOUT_S, capture_output=True, text=True)
        return json.loads(out.stdout)


def import_times(stderr: str) -> dict:
    """Seconds spent importing numpy, scipy and gbbmlab, from ``-X importtime``.

    numpy and scipy: cumulative time of each outermost module of the package.
    gbbmlab: self time of its own modules, dependencies excluded.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((int(self_us), int(cum_us), name.strip(), depth))
    out = {}
    for pkg, metric in IMPORT_MODULES.items():
        def ours(n):
            return n == pkg or n.startswith(pkg + ".")
        if pkg == "gbbmlab":
            out[metric] = sum(s for s, _, n, _ in rows if ours(n)) / 1e6
            continue
        total = 0
        for i, (_, cum, name, depth) in enumerate(rows):
            # children are printed before their parent; find this row's parent
            parent = next((r for r in rows[i + 1:] if r[3] < depth), None)
            if ours(name) and (parent is None or not ours(parent[2])):
                total += cum
        out[metric] = total / 1e6
    return out


def failures(res: dict, root: Path, reference: dict) -> list[str]:
    if res.get("timed_out"):
        return [f"timed out after {COMMAND_TIMEOUT_S:g} s"]
    if "exit_code" not in res:
        return [f"no result (child exit status {res['returncode']}); see {res['tag']}.stderr"]
    src = str(root / "src")
    if not res["gbbmlab_file"].startswith(src + os.sep):
        return [f"imported gbbmlab from {res['gbbmlab_file']}, not from {src}"]
    return checks.check(res["args"][0], res["exit_code"], Path(res["outdir"]), reference)


def output_bytes(res: dict) -> int:
    out = Path(res["outdir"])
    return sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0


def environment(root: Path, probe: dict, seed: int) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), None)
    llc = None
    for index in range(8, -1, -1):
        llc = read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        if llc:
            break
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    git = {"commit": None, "dirty": None}
    if (root / ".git").exists() and shutil.which("git"):
        def git_out(*args):
            return subprocess.run(["git", *args], cwd=root, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git = {"commit": git_out("rev-parse", "HEAD") or None,
               "dirty": bool(git_out("status", "--porcelain"))}
    else:
        git["note"] = "not a git checkout; src_sha256 identifies the code"
    return {"nproc": os.cpu_count(), "cpu_model": model, "llc_size": llc,
            **probe.get("versions", {}), "git": git,
            "src_sha256": digest.hexdigest(), "seed": seed,
            "blas_threads_set": BLAS_THREADS,
            "blas_threads_measured": probe.get("blas_threads")}


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record of the run."""
    commands = WORKLOADS[workload]
    reference = checks.load_reference()
    workdir = root / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    launcher = Launcher(root, workdir)
    rng = random.Random(seed)

    warm = launcher.run(probe=True)  # compiles bytecode, fills the file cache
    if "setup_s" not in warm:
        raise RuntimeError(f"gbbmlab does not import from {root / 'src'}; "
                           f"see {workdir / (warm['tag'] + '.stderr')}")
    reps, problems, speeds = [], [], []
    start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        order = [(args, False) for args in commands]
        if trace:
            order += [(args, True) for args in commands]
        rng.shuffle(order)
        rep = {"plain": [], "traced": []}
        if not trace:
            speeds.append(launcher.speed(workload))
        for args, traced in order:
            res = launcher.run(args, trace=traced)
            res["problems"] = failures(res, root, reference)
            problems += [f"{res['tag']}: {p}" for p in res["problems"]]
            rep["traced" if traced else "plain"].append(res)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t_rep) > seconds:
            break

    plain = [r for rep in reps for r in rep["plain"]]
    setup = [r["setup_s"] for r in plain if "setup_s" in r]
    while not trace and len(setup) < MIN_SAMPLES:
        probe = launcher.run(probe=True)
        if "setup_s" not in probe:
            problems.append(f"{probe['tag']}: setup probe failed")
            break
        setup.append(probe["setup_s"])
    while not trace and len(speeds) < MIN_SAMPLES:
        speeds.append(launcher.speed(workload))

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(root, warm, seed), "repetitions": len(reps),
              "attempted": sum(len(rep["plain"]) + len(rep["traced"]) for rep in reps),
              "failed": sum(1 for rep in reps for r in rep["plain"] + rep["traced"]
                            if r["problems"]),
              "problems": problems, "notes": [], "setup_samples": setup,
              "speed_samples": speeds,
              "launches": [r for rep in reps for r in rep["plain"] + rep["traced"]]}

    def per_rep(key, fn=sum):
        return statistics.median(fn(r[key] for r in rep["plain"]) for rep in reps)

    # metrics come from repetitions whose every launch passed its checks
    reps = [rep for rep in reps if all(not r["problems"] for r in rep["plain"] + rep["traced"])]
    if not reps:
        record["metrics"] = {}
        return record
    if not trace:
        # one factor per run: nominal / measured time of the speed reference
        ref = statistics.median(s["import_s"] + s["kernel_s"] for s in speeds)
        factor = speed.nominal_s(workload) / ref
        record["raw_seconds"] = {"wall_s": per_rep("wall_s"), "solve_s": per_rep("solve_s"),
                                 "setup_s": len(commands) * statistics.median(setup)}
        record["speed_factor"] = factor
        record["metrics"] = {name: value * factor
                             for name, value in record["raw_seconds"].items()}
        record["metrics"]["peak_rss_mb"] = per_rep("maxrss_mb", fn=max)
        return record

    layer, top = [], []
    for rep in reps:
        traced = [json.loads(Path(r["spans_path"]).read_text())["spans"]
                  for r in rep["traced"]]
        m = spanlib.layer_metrics(traced)
        for key in IMPORT_MODULES.values():
            m[key] = sum(r["imports"][key] for r in rep["traced"])
        m["process.cpu_s"] = sum(r["cpu_s"] for r in rep["plain"])
        m["process.blas_threads"] = max(r["blas_threads"] for r in rep["traced"])
        m["cli.output_bytes"] = sum(output_bytes(r) for r in rep["plain"])
        m["trace.overhead_ratio"] = (sum(r["solve_s"] for r in rep["traced"])
                                     / sum(r["solve_s"] for r in rep["plain"]))
        layer.append(m)
        top = spanlib.top_self_times(traced)
    missing = {name for rep in reps for r in rep["traced"] for name in r["missing"]}
    record["notes"] = sorted({n for rep in reps for r in rep["traced"] for n in r["notes"]})
    record["metrics"] = spanlib.drop_missing(spanlib.median_dicts(layer), missing)
    record["top_self_s"] = top
    return record


# per-layer metric-name suffix -> unit; the longest matching suffix wins
UNITS = {
    "_s": "s", ".calls": "count", "_evals": "count", ".records": "count",
    "_iters": "count", ".blas_threads": "count", ".us_p50": "us", ".us_p99": "us",
    ".ms_p50": "ms", ".ms_p90": "ms", "_ratio": "ratio", ".span_coverage": "ratio",
    ".mpoints": "Mpoint", ".gflop_computed": "GFLOP", "_mb_computed": "MB",
    "_bytes": "bytes",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix in sorted(UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return UNITS[suffix]
    raise KeyError(f"no unit for metric {name!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gbbmlab" / "cli.py").is_file():
        print(f"error: {root} holds no src/gbbmlab/cli.py; run from the root of a "
              f"gbbmlab checkout", file=sys.stderr)
        return 2
    record = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    record_path = root / ".bench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1, default=str))

    n = record["repetitions"]
    print(f"workload {args.workload}  seed {args.seed}  repetitions {n}  "
          f"blas_threads {BLAS_THREADS}  record {record_path.relative_to(root)}")
    for p in record["problems"]:
        print(f"FAILED {p}")
    for note in record["notes"]:
        print(f"note: {note}")
    metrics = {}
    raw = record.get("raw_seconds", {})
    for name, value in record["metrics"].items():
        metrics[name] = {"value": value, "unit": unit_of(name)}
        samples = len(record["setup_samples"]) if name == "setup_s" else n
        extra = f"; raw {raw[name]:.6g} s" if name in raw else ""
        print(f"{name:<40} {value:>14.6g} {metrics[name]['unit']:<7} "
              f"(median of {samples}{extra})")
    if raw:
        print(f"speed factor (nominal / median of {len(record['speed_samples'])} reference "
              f"launches): {record['speed_factor']:.4f}")
    rate = record["failed"] / record["attempted"]
    print(f"{'error_rate':<40} {rate:>14.6g} {'ratio':<7} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for name, t, calls in record.get("top_self_s", []):
        print(f"self {name:<35} {t:>10.4f} s  {calls} calls")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
