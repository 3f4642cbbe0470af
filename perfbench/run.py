"""sparserec benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The benchmark generates the
workload's inputs from the seed, then drives the real `sparserec` CLI the way
one user does: a closed loop with one client, each command its own
`python3 -m sparserec` subprocess started after the previous one exits.  It
repeats the workload's command sequence while the next repetition still fits
in --seconds, checks the outputs, and prints the medians of the end-to-end
metrics.

With --trace 1 it instead runs the same sequence in-process through
`sparserec.cli.main(argv)`, with wrappers from perfbench/tracing.py on the
public functions of every layer, and prints per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REQUIRED = (ROOT / "src" / "sparserec" / "cli.py", ROOT / "tests" / "reference_impls.py")
COMMAND_TIMEOUT = 150.0
SETUP_COMMANDS = ("flatten-enrol", "fit")
STARTUP_SAMPLES = 3

sys.path.insert(0, str(HERE))
import checks as chk  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate, write_features  # noqa: E402


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for `kind`
    ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# inputs and commands


def workload_paths(work: Path) -> dict[str, Path]:
    names = ("flat_enrol", "flat_probe", "bundle", "verify", "identify", "sweep")
    return {"work": work, **{n: work / n for n in names}}


def write_inputs(w, paths, seed) -> None:
    # The arrays are dropped once written (the checks read the files back): a
    # child's ru_maxrss starts from the RSS it inherits at fork, so the
    # benchmark keeps its own footprint small while commands run.
    enrol, enrol_labels, probes, probe_labels = generate(w, seed)
    write_features(paths["work"] / "enrol.feat", enrol, enrol_labels, "enrol", w.tensor)
    write_features(paths["work"] / "probes.feat", probes, probe_labels, "probe", w.tensor)


def commands(w, paths) -> list[tuple[str, list[str]]]:
    enrol, probes = str(paths["work"] / "enrol.feat"), str(paths["work"] / "probes.feat")
    cmds = []
    if w.tensor is not None:
        cmds += [("flatten-enrol", ["flatten", enrol, "--out", str(paths["flat_enrol"])]),
                 ("flatten-probe", ["flatten", probes, "--out", str(paths["flat_probe"])])]
        enrol = str(paths["flat_enrol"] / "features.feat")
        probes = str(paths["flat_probe"] / "features.feat")
    bundle = str(paths["bundle"])
    queries = [
        ("verify", ["verify", probes, bundle, "--classifier", w.verify_classifier,
                    "--out", str(paths["verify"])]),
        ("identify", ["identify", probes, bundle, "--classifier", ",".join(w.identify_classifiers),
                      "--out", str(paths["identify"])]),
    ]
    return cmds + [("fit", ["fit", enrol, "--pca", w.pca, "--out", bundle])] + queries * w.query_repeats + [
        ("sweep", ["sweep-pcs", enrol, probes, "--classifier", w.sweep_classifier,
                   "--k-list", ",".join(map(str, w.sweep_k_list)), "--out", str(paths["sweep"])]),
    ]


# ---------------------------------------------------------------------------
# timed runs: one subprocess per command, no tracing


def child_env() -> dict[str, str]:
    # Thread variables are passed through untouched, so the timed runs measure
    # what a user gets.  Only the import path is set, to this checkout's source.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], env, log: Path) -> tuple[float, int, float]:
    """Run one process to completion; return (wall s, exit code, max RSS MB)."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    flush_outputs(log.parent)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def flush_outputs(work: Path) -> None:
    """Write back what the last command wrote before the next one starts, so
    one command's background writeback does not land in another's timing."""
    for path in work.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "sparserec", *argv]


def record(w, samples: dict[str, list[float]], walls: list[tuple[str, float]], rss: list[float]):
    """Add one pipeline iteration's samples: one per query command run, one
    per iteration for the rest."""
    def runs(label):
        return [t for name, t in walls if name == label]

    decisions = w.probe_classes * len(w.identify_classifiers)
    samples["setup_s"].append(sum(t for name, t in walls if name in SETUP_COMMANDS))
    samples["verify_probes_per_s"] += [w.probe_classes / t for t in runs("verify")]
    samples["identify_probes_per_s"] += [decisions / t for t in runs("identify")]
    samples["sweep_s"] += runs("sweep")
    samples["pipeline_s"].append(sum(t for _, t in walls))
    samples["peak_rss_mb"].append(max(rss))


def timed_run(w, seed, seconds, paths, pins, checks, tally) -> dict[str, list[float]]:
    env = child_env()
    log = paths["work"] / "commands.log"
    spawn(cli_argv(["--help"]), env, log)  # warm the page cache and bytecode cache
    cmds = commands(w, paths)
    samples: dict[str, list[float]] = {name: [] for name in declared_metrics("end_to_end")}
    iterations = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        walls, rss, ok = [], [], True
        for label, argv in cmds:
            wall, rc, maxrss = spawn(cli_argv(argv), env, log)
            tally["attempted"] += 1
            if rc != 0:
                tally["failed"] += 1
                ok = False
                print(f"command failed ({rc}): sparserec {' '.join(argv)}")
            walls.append((label, wall))
            rss.append(maxrss)
        iterations += 1
        print(f"iteration {iterations}: " + " ".join(f"{k}={v:.3f}s" for k, v in walls)
              + f" peak_rss={max(rss):.0f}MB", flush=True)
        if ok:
            record(w, samples, walls, rss)
            chk.check_iteration(checks, w, seed, paths, pins)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    if samples["pipeline_s"]:
        chk.check_outputs(checks, w, seed, paths, load_oracle())
    else:
        _tail(log)
    return samples


def _tail(log: Path) -> None:
    if log.exists():
        print("".join(log.read_text(errors="replace").splitlines(True)[-20:]), end="")


# ---------------------------------------------------------------------------
# traced run: in-process, wrappers on every layer


def in_process(cli, cmds, log) -> tuple[float, int]:
    start = time.perf_counter()
    failed = 0
    with open(log, "a") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for _, argv in cmds:
            failed += cli.main(argv) != 0
    return time.perf_counter() - start, failed


def traced_verify_scoring_s(cli, cmds, log, threads: str | None) -> tuple[float, int]:
    """build_scoreset time inside one traced `verify`, with SPARSEREC_THREADS
    set to `threads` (None leaves the environment as it is), and whether the
    command failed."""
    verify = [c for c in cmds if c[0] == "verify"]
    saved = os.environ.get("SPARSEREC_THREADS")
    if threads is not None:
        os.environ["SPARSEREC_THREADS"] = threads
    tracer = tracing.Tracer()
    installed = tracer.install("sparserec")
    try:
        _, failed = in_process(cli, verify, log)
    finally:
        installed.uninstall()
        if saved is None:
            os.environ.pop("SPARSEREC_THREADS", None)
        else:
            os.environ["SPARSEREC_THREADS"] = saved
    return sum(s.duration for s in tracer.spans if s.name == "evaluation.build_scoreset"), failed


def traced_run(w, seed, seconds, paths, pins, checks, tally):
    sys.path.insert(0, str(ROOT / "src"))
    import sparserec.cli as cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit(f"imported sparserec from {cli.__file__}, not from {ROOT / 'src'}")
    env = child_env()
    log = paths["work"] / "commands.log"
    startup = statistics.median(
        spawn([sys.executable, "-c", "import sparserec.cli"], env, log)[0]
        for _ in range(STARTUP_SAMPLES))
    cmds = commands(w, paths)
    traced, untraced, per_iter, coverage, all_spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        tracer = tracing.Tracer()
        installed = tracer.install("sparserec")
        try:
            wall, failed = in_process(cli, cmds, log)
        finally:
            installed.uninstall()
        traced.append(wall)
        per_iter.append(tracing.layer_metrics(tracer.spans))
        coverage += tracing.command_coverage(tracer.spans)
        all_spans.append(tracer.spans)
        wall, failed_untraced = in_process(cli, cmds, log)
        untraced.append(wall)
        tally["attempted"] += 2 * len(cmds)
        tally["failed"] += failed + failed_untraced
        chk.check_iteration(checks, w, seed, paths, pins)
        now = time.perf_counter()
        if failed or now - start + (now - began) > seconds:
            break
    chk.check_outputs(checks, w, seed, paths, load_oracle())
    # single-thread baseline beside the default pool, on the bundle just fitted
    scoring = {}
    for key, threads in (("evaluation.scoreset_1worker_s", "1"), ("evaluation.scoreset_nworker_s", None)):
        scoring[key], failed = traced_verify_scoring_s(cli, cmds, log, threads)
        tally["attempted"] += 1
        tally["failed"] += failed

    metrics = {name: statistics.median(it[name] for it in per_iter) for name in per_iter[0]}
    metrics["cli.startup_s"] = startup
    metrics.update(scoring)
    metrics["trace.coverage"] = min(c for _, c in coverage)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    if w.dim > w.enrolment_samples:
        # the Gram-trick regime: the fit must never come near a D x D matrix
        checks.add("PCA fit peak allocation below D x D",
                   metrics["pca.fit_peak_alloc_mb"] < metrics["pca.dxd_mb"],
                   f"{metrics['pca.fit_peak_alloc_mb']:.1f} MB vs D x D {metrics['pca.dxd_mb']:.1f} MB")
    print("traced commands, share of wall time covered by layer spans:")
    for argv0, share in coverage[:len(cmds)]:
        print(f"  {argv0:10s} {share:.3f}")
    idle = sorted(k for k, v in metrics.items() if v == 0)
    if idle:
        print("not exercised on this workload (reported as 0): " + ", ".join(idle))
    print("'*_computed' metrics are computed from array shapes, not measured")
    spans_out = WORK / f"trace-{w.name}-seed{seed}.json"
    spans_out.write_text(json.dumps([[vars(s) for s in spans] for spans in all_spans]))
    print(f"spans written to {spans_out.relative_to(ROOT)}")
    return metrics


def load_oracle():
    sys.path.insert(0, str(ROOT / "tests"))
    import reference_impls

    return reference_impls


# ---------------------------------------------------------------------------
# environment record


def environment(w) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("blas"),
        "lapack": blas.get("lapack"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "SPARSEREC_THREADS"},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
        "workload": w.name,
        "scale": w.scale(),
    }


# ---------------------------------------------------------------------------


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict[str, float]:
    print(f"{'metric':24s} {'unit':12s} {'median':>12s} {'q1':>12s} {'q3':>12s}  n")
    out = {}
    for name, unit in units.items():
        values = samples[name]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = statistics.median(values)
        print(f"{name:24s} {unit:12s} {out[name]:12.5g} {q[0]:12.5g} {q[2]:12.5g}  {len(values)}")
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: not a sparserec source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = workload_paths(work)
    checks, tally = chk.Checks(), {"attempted": 0, "failed": 0}
    try:
        write_inputs(w, paths, args.seed)
        pins = chk.load_pins()
        if str(args.seed) not in pins.get(w.name, {}):
            print(f"seed {args.seed} has no pinned values for {w.name}; pinned checks skipped")
        print("environment: " + json.dumps(environment(w)))
        if args.trace:
            units = declared_metrics("per_layer")
            metrics = traced_run(w, args.seed, args.seconds, paths, pins, checks, tally)
        else:
            samples = timed_run(w, args.seed, args.seconds, paths, pins, checks, tally)
            if not samples["pipeline_s"]:
                print("error: no pipeline iteration completed", file=sys.stderr)
                return 1
            units = declared_metrics("end_to_end")
            metrics = summarize(samples, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, ok, detail in checks.results:
        if not ok:
            print(f"check failed: {name} {detail}")
    attempted = tally["attempted"] + len(checks.results)
    failed = tally["failed"] + len(checks.failed)
    print(f"checks: {len(checks.results) - len(checks.failed)}/{len(checks.results)} passed;"
          f" failed_frac = {failed / attempted:.4g} ({failed} of {attempted} commands and checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
