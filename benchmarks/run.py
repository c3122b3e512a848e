"""holoflat benchmark: run one workload through the CLI and report metrics.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload {validate,evolve-128,cli-sweep}
        --seed N --seconds S --trace {0,1}

Operations run back to back (closed loop, one client), each CLI invocation
in a fresh ``python3`` process, one process at a time, until the next
operation would end past ``--seconds`` (but at least two operations).  Every output is checked.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count CLI invocations, and ``metrics`` holds the end-to-end
metrics (``--trace 0``) or the per-layer metrics of ``layers.METRICS``
(``--trace 1``).  Lines before it give the environment and, per metric, the
median, the highest percentile with ten samples beyond it, and the count.

End-to-end metrics, per operation, then the median over operations:

- ``wall_s``: spawn to exit, summed over the operation's processes.
- ``setup_s``: spawn until ``import holoflat.cli`` returns, summed likewise;
  when a run has fewer than five operations, import-only processes make up
  the missing set-up samples.
- ``solve_s``: time inside ``holoflat.cli.run(argv)``, summed likewise.
- ``peak_rss_mb``: the largest max-RSS among the operation's processes.

A traced run alternates untraced and traced operations; per-layer metrics
are medians over the traced ones and ``trace.overhead_s`` is the traced
minus the untraced median ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
# Two operations even when one outlasts half of --seconds: a median of two
# is steadier than one sample, and a traced run needs one of each kind.
MIN_OPS = 2
MIN_SETUP_SAMPLES = 5
WORK_ROOT = ".bench_work"
CHILD = os.path.join(HERE, "child.py")


@dataclass
class Proc:
    """Outcome of one CLI invocation in its own process."""

    label: str
    ok: bool = False
    error: str = ""
    wall: float = 0.0
    setup: float = 0.0
    solve: float = 0.0
    rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    blas: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage; kill it after ``timeout``.

    Returns (exit time, exit code, rusage, timed out)."""
    box = []

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        box.append((time.monotonic(), os.waitstatus_to_exitcode(status), usage))

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(timeout)
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    t_exit, rc, usage = box[0]
    proc.returncode = rc
    return t_exit, rc, usage, timed_out


def run_invocation(inv: workloads.Invocation, workdir: str, mode: str, env: dict, timeout: float) -> Proc:
    """Run ``inv`` in a fresh process in child mode ``run``, ``trace`` or
    ``import`` and check its output."""
    p = Proc(inv.label)
    out = os.path.join(workdir, f"{inv.label}.out")
    result = os.path.join(workdir, f"{inv.label}.result.json")
    for path in (out, result):
        if os.path.exists(path):
            os.unlink(path)
    argv = [sys.executable, CHILD, result, mode, *inv.argv, "--output", out]
    with open(os.path.join(workdir, "stdout"), "wb") as so, open(os.path.join(workdir, "stderr"), "wb") as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env)
        t_exit, rc, usage, timed_out = _wait(proc, timeout)
    p.wall = t_exit - t_spawn
    p.rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        p.error = f"timed out after {timeout:.0f} s"
        return p
    try:
        with open(result) as fh:
            rec = json.load(fh)
        if rec["rc"] != rc:
            raise checks.CheckError(f"process exit {rc} differs from run() return {rec['rc']}")
        p.setup = rec["imported"] - t_spawn
        if mode != "import":
            p.solve = rec["run_end"] - rec["run_start"]
            p.blas = rec["blas"]
            p.spans = rec.get("spans", [])
            p.values = inv.check(out, rc, inv.inputs)
        p.ok = True
    except (OSError, ValueError, KeyError, IndexError, checks.CheckError) as exc:
        with open(os.path.join(workdir, "stderr"), errors="replace") as fh:
            tail = fh.read()[-400:].strip()
        p.error = f"{type(exc).__name__}: {exc}" + (f" | stderr: {tail}" if tail else "")
    return p


def _tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - pct / 100) >= 10:
            ordered = sorted(values)
            return pct, ordered[min(n - 1, int(pct / 100 * n))]
    return None


def _describe(name: str, unit: str, values: list[float]) -> str:
    tail = _tail(values)
    tail_txt = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "tail n/a (fewer than 20 samples)"
    samples = " ".join(f"{v:.4g}" for v in values)
    label = " (computed)" if name in layers.COMPUTED else ""
    return (
        f"  {name:<44} median {statistics.median(values):.6g} {unit}{label}; "
        f"{tail_txt}; n={len(values)} [{samples}]"
    )


def _git_sha(root: str) -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_begin = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "holoflat", "cli.py")):
        print("error: run from the root of a holoflat checkout (src/holoflat/cli.py not found)", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        return _measure(args, workdir, t_begin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir: str, t_begin: float) -> int:
    env = _child_env()
    # Unmeasured warm-up: compiles bytecode and warms the file cache, so the
    # first operation's set-up is not an outlier.
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import holoflat.cli"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if warm.returncode != 0:
        print(f"error: cannot import holoflat.cli: {warm.stderr.strip()[-400:]}", file=sys.stderr)
        return 1

    op = workloads.build(args.workload, args.seed, workdir)
    ops: list[tuple[bool, list[Proc]]] = []
    deadline = time.monotonic() + args.seconds
    durations: list[float] = []
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        t_op = time.monotonic()
        procs = []
        for inv in op:
            remaining = HARD_LIMIT_S - (time.monotonic() - t_begin)
            mode = "trace" if traced else "run"
            procs.append(run_invocation(inv, workdir, mode, env, max(remaining, 1.0)))
        ops.append((traced, procs))
        durations.append(time.monotonic() - t_op)
        if any(p.error.startswith("timed out") for p in procs):
            break
        need_more = len(ops) < MIN_OPS
        estimate = statistics.median(durations)
        if not need_more and time.monotonic() + estimate > deadline:
            break
        if time.monotonic() + estimate > t_begin + HARD_LIMIT_S:
            break

    all_procs = [p for _, ps in ops for p in ps]
    attempted = len(all_procs)
    failed = sum(not p.ok for p in all_procs)
    for p in all_procs:
        if not p.ok:
            print(f"FAILED {args.workload}/{p.label}: {p.error}", file=sys.stderr)

    blas = next((p.blas for p in all_procs if p.blas), {})
    env_record = {
        "git_sha": _git_sha(os.getcwd()),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_versions(),
        "blas": blas,
        "load": "one benchmark process running its children one at a time",
        "workload": args.workload,
        "seed": args.seed,
        "validate_seed": "pinned inside holoflat.validation; --seed does not change it",
    }
    print(json.dumps({"env": env_record}, sort_keys=True))
    if blas.get("threads") and blas["threads"] > env_record["nproc"]:
        print(f"error: BLAS uses {blas['threads']} threads on {env_record['nproc']} CPUs", file=sys.stderr)
        return 1

    untraced = [ps for traced, ps in ops if not traced]
    good = [ps for ps in untraced if all(p.ok for p in ps)] or untraced
    per_op = {
        "wall_s": [sum(p.wall for p in ps) for ps in good],
        "setup_s": [sum(p.setup for p in ps) for ps in good],
        "solve_s": [sum(p.solve for p in ps) for ps in good],
        "peak_rss_mb": [max(p.rss_mb for p in ps) for ps in good],
    }
    # Set-up is short and noisy: with few operations, add import-only
    # processes (as many per sample as an operation has) to the set-up samples.
    probe = workloads.Invocation("probe", [], lambda *_: {})
    while len(per_op["setup_s"]) < MIN_SETUP_SAMPLES:
        if time.monotonic() - t_begin > HARD_LIMIT_S - 10:
            break
        probes = [run_invocation(probe, workdir, "import", env, 60.0) for _ in op]
        if not all(p.ok for p in probes):
            break
        per_op["setup_s"].append(sum(p.setup for p in probes))
    print(f"{args.workload}: {len(ops)} operations, {attempted} invocations, {failed} failed, "
          f"error_rate {failed / attempted:.6g}")
    for name, unit in END_TO_END:
        print(_describe(name, unit, per_op[name]))
    for ps in untraced[:1]:
        for p in ps:
            for crit, (value, tol) in p.values.items():
                print(f"  criterion {crit:<34} worst deviation {value:.3e} (tol {tol:g})")

    if args.trace:
        metrics = _layer_metrics(ops, per_op["wall_s"])
    else:
        metrics = {
            name: {"value": statistics.median(per_op[name]), "unit": unit} for name, unit in END_TO_END
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(ops, untraced_walls: list[float]) -> dict:
    traced = [ps for t, ps in ops if t]
    if not traced:  # the untraced operation timed out; its failure is counted
        return {name: {"value": 0.0, "unit": unit} for name, unit, _ in layers.METRICS}
    samples = []
    for ps in traced:
        values = {k: v for p in ps for k, v in p.values.items()}
        samples.append(layers.op_metrics([p.spans for p in ps], values))
    traced_wall = statistics.median(sum(p.wall for p in ps) for ps in traced)
    out = {}
    for name, unit, _ in layers.METRICS:
        vals = [s[name] for s in samples]
        if name == "trace.overhead_s":
            vals = [traced_wall - statistics.median(untraced_walls)]
        out[name] = {"value": statistics.median(vals), "unit": unit}
        print(_describe(name, unit, vals))
    return out


if __name__ == "__main__":
    sys.exit(main())
