"""Benchmark of the vhcplan pipeline.

    python3 bench/run.py --workload tictoc|family|rollout|all --seed N \
        --seconds S --trace 0|1

Runs one workload against the sources in `src/` (put first on sys.path, BLAS
pinned to one thread), repeats its op for S seconds, checks every op's
output and prints, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The traced run alternates untraced and traced ops, takes the per-layer
numbers from the traced ones and writes its spans to
`.bench/trace-<workload>-<seed>.json`. `--workload all` runs each workload in
its own process and prints one row per workload. Exits 2, printing no
result, when the sources are missing. See bench/README.md for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench"
SETUP_REPEATS = 3
# Every reported time is a wall time scaled to a fixed machine speed: PROBE_S
# is the time of _probe_seconds() on an idle 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4); see SpeedProbe and bench/README.md.
PROBE_S = 0.008
PROBE_INTERVAL_S = 0.5
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Runs in a fresh interpreter: times `import vhcplan.cli`, then scales it by
# probes taken right after (numpy must not be imported before the timing).
IMPORT_PROBE = ("import statistics, time; t = time.perf_counter(); import vhcplan.cli; "
                "t = time.perf_counter() - t; import run; "
                "print(t * run.PROBE_S / statistics.mean(run._probe_seconds() for _ in range(3)))")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tictoc", "family", "rollout", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git_sha():
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _meta(seed):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed}


def _import_seconds():
    """Scaled import time of vhcplan.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), str(ROOT / "bench"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def _run_all(args, spec):
    """Each workload in its own process, so set-up and peak memory are its own."""
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print("workload  " + "  ".join(f"{n:>14}" for n in names))
    for name, res in results.items():
        values = (res["metrics"][n]["value"] for n in names)
        print(f"{name:<9} " + "  ".join("{:>14}".format("-" if v is None else f"{v:.6g}")
                                        for v in values))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": v for w, r in results.items()
                    for n, v in r["metrics"].items()},
    }))
    return 0


def _probe_seconds():
    """Wall time of a short fixed kernel that does not use vhcplan.

    Fixed-step RK4 of a damped two-link pendulum on 2-vectors: the same mix
    of interpreter work and small-array numpy calls as the ops.
    """
    import numpy as np
    mass = np.array([[2.0, 0.1], [0.1, 1.0]])

    def f(y):
        force = np.array([-math.sin(y[0]), -math.sin(y[1])]) - 0.1 * y[2:]
        return np.concatenate([y[2:], np.linalg.solve(mass, force)])

    y = np.array([1.0, 0.0, 0.0, 0.0])
    dt = 1e-3
    t0 = time.perf_counter()
    for _ in range(200):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while a timed call runs.

    Every PROBE_INTERVAL_S of wall time a SIGALRM handler runs the probe
    kernel in the main thread, between two bytecodes of the timed call; one
    more probe runs after the call. The probes' own time is taken out of the
    call's wall time, and the call's speed factor is PROBE_S over the mean
    probe time.
    """

    def __init__(self):
        self._samples = []

    def _on_alarm(self, signum, frame):
        self._samples.append(_probe_seconds())

    def timed(self, fn):
        """Run `fn()`; return (its result, wall seconds, net seconds, speed factor)."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        net = wall - sum(self._samples)
        self._samples.append(_probe_seconds())
        return out, wall, net, PROBE_S / statistics.mean(self._samples)


def _measure(workload, seed, seconds, tracer, probe):
    """Run ops until `seconds` have passed; with a tracer, every other op is traced.

    Returns (op id, wall s, net s, speed factor, traced, problems, floquet) per op.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    ops = []
    start = time.perf_counter()
    while True:
        op = len(ops)
        traced = tracer is not None and op % 2 == 1
        workdir = OUT / "work" / f"{workload.name}-{os.getpid()}-{op}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)

        def run_op():
            with tracer.span("op", op=op) if traced else nullcontext():
                return workload.run(inp, workdir, tracer if traced else None)

        try:
            inp = workload.make_input(rng)
            with tracer.installed() if traced else nullcontext():
                result, wall, net, factor = probe.timed(run_op)
            problems, floquet = workload.check(result, workdir)
        except Exception:
            traceback.print_exc()
            wall = net = factor = floquet = float("nan")
            problems = ["raised"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for problem in problems:
            print(f"op {op} failed: {problem}", file=sys.stderr)
        ops.append((op, wall, net, factor, traced, problems, floquet))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(ops) >= 2):
            return ops


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    if not (SRC / "vhcplan" / "__init__.py").is_file():
        print(f"bench: no vhcplan sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return _run_all(args, spec)

    sys.path.insert(0, str(SRC))
    import vhcplan
    if Path(vhcplan.__file__).resolve().parent != SRC / "vhcplan":
        print(f"bench: imported vhcplan from {vhcplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    meta = _meta(args.seed)
    print("meta " + json.dumps(meta))
    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    unknown = [n for n in names if not tracing.known_metric(n)] if args.trace else []
    if unknown:
        print(f"bench: per-layer metrics the tracer cannot measure: {unknown}",
              file=sys.stderr)
        return 2

    # Traced runs report no set-up time, so they set up once, untimed.
    probe = SpeedProbe()
    if args.trace:
        workload.setup()
    else:
        import_s, setup_s = [], []
        for _ in range(SETUP_REPEATS):
            import_s.append(_import_seconds())
            _, _, net, factor = probe.timed(workload.setup)
            setup_s.append(net * factor)

    ops = _measure(workload, args.seed, args.seconds, tracer, probe)
    good = [op for op in ops if not op[5]]
    failed = len(ops) - len(good)
    op_seconds = {op[0]: op[2] * op[3] for op in good}
    print(f"{len(good)} good ops; wall s: " + " ".join(f"{op[1]:.4f}" for op in good)
          + "; speed factor: " + " ".join(f"{op[3]:.3f}" for op in good))
    if args.trace:
        traced = [op[0] for op in good if op[4]]
        # Span times include probe time; scale them so they add up to the op's.
        scales = {op[0]: op[3] * op[2] / op[1] for op in good}
        if traced and len(traced) < len(good):
            values = tracer.summary(names, traced, op_seconds, scales)
        else:
            values = {}
        tracer.write(OUT / f"trace-{workload.name}-{args.seed}.json", meta,
                     op_seconds, scales)
    else:
        values = {
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
            "ok_frac": len(good) / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if good:
            values["op_s"] = statistics.median(op_seconds.values())
            values["floquet_max"] = statistics.median(op[6] for op in good)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name in names:
        print(f"{workload.name} {name} = {values.get(name)} {units[name]}")
    correct = failed == 0 and set(values) >= set(names)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": values.get(n), "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
