"""Run one benchmark workload against the calma sources of this checkout.

    python3 perfbench/run.py --workload {sample,exact,table} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  calma is imported from ``src/``; nothing
is installed.  The workload is a closed loop: one caller, one op at a time,
in this process, with BLAS pinned to one thread.  The run builds its inputs
from ``--seed``, times cycles of ops for ``--seconds`` and checks every
output it times.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` its per-layer ones; the traced run also
writes every span as JSON lines under ``.bench_out/``.  The exit code is 0
only when every op passed its check.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
IMPORT_REPEATS = 7  # fresh interpreters per run
BUILD_REPEATS = 3  # input builds per run
MIN_CYCLES = 3
MAX_RUN_S = 150.0  # stop measuring past this, whatever --seconds says


def _median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); None below eleven samples."""
    if len(values) < 11:
        return None
    ranked = sorted(values)
    return ranked[len(ranked) - 11], 100.0 * (len(ranked) - 10) / len(ranked)


def reference_s() -> float:
    """Seconds taken by a fixed mix of interpreter loops, scalar and small
    numpy calls and a medium array sort: how fast the machine is right now.

    A shared machine changes speed by tens of percent from one minute to the
    next.  A timing divided by this figure, taken just before and after it,
    moves far less, so the gated timings are reported in these units.
    """
    import numpy as np

    xs = np.linspace(-1.0, 1.0, 21)
    ys = np.sin(3.0 * xs)
    small = np.arange(1000.0)
    big = np.linspace(0.0, 1.0, 20_000)
    start = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i
    acc = 0.0
    for i in range(300):
        acc += float(np.sum(small * small))
        v = float(np.interp(i / 300.0, xs, ys))
        acc += float(np.clip(np.asarray(v), -0.5, 0.5)) + float(np.min(np.abs(xs - v)))
    for _ in range(10):
        acc += float(np.sum(np.sort(big * 1.5 % 1.0)))
    return time.perf_counter() - start


def _blas_threads() -> str:
    """Threads the loaded OpenBLAS reports, read through its own API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_importtime(text: str) -> tuple[float, float]:
    """(scipy seconds, calma self seconds) from ``python -X importtime``.

    Entries come children first; read in reverse, each entry follows its
    parent, so a stack of depths tells which entries sit under a scipy import.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(self_us)))
    scipy_us = calma_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = (stack[-1][1] if stack else False) or name.split(".")[0] == "scipy"
        stack.append((depth, in_scipy))
        scipy_us += self_us if in_scipy else 0
        calma_us += self_us if name.split(".")[0] == "calma" else 0
    return scipy_us * 1e-6, calma_us * 1e-6


def import_once(importtime: bool) -> tuple:
    """Wall time of ``import calma.cli`` in a fresh interpreter; with
    ``importtime`` also its scipy and calma shares."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import calma.cli"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import calma.cli failed: {proc.stderr.strip()[-500:]}")
    return (wall,) + (parse_importtime(proc.stderr) if importtime else ())


def against_reference(fn):
    """fn() run between two reference timings: (its result, mean reference s)."""
    before = reference_s()
    result = fn()
    return result, (before + reference_s()) / 2.0


class Runner:
    """Runs cycles of a workload's ops, times and checks each op."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.warnings = 0
        self.problems: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.cycle_times: list[float] = []
        self.cycle_refs: list[float] = []  # cycle time / reference time
        self.traced_times: list[float] = []
        self.traced_ops: list[set] = []
        self.traced_warnings: list[int] = []

    def cycle(self, k: int, record: bool = True) -> tuple[float | None, int]:
        """Run cycle k; returns its op time (None if an op failed) and the
        number of warnings its ops raised."""
        total, caught_n = 0.0, 0
        for i, (kind, op, check) in enumerate(self.workload.cycle(k)):
            self.attempted += 1
            self.tracer.op = f"{k}:{i}:{kind}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    out = op()
                except Exception as exc:  # a failing op is counted, the run goes on
                    out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
                elapsed = time.perf_counter() - start
            caught_n += len(caught)
            self.warnings += len(caught)
            if out is not None:
                with self.tracer.paused():
                    try:
                        problems = check(out)
                    except Exception as exc:
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems += [f"cycle {k} {kind}: {p}" for p in problems]
                return None, caught_n
            total += elapsed
            if record:
                self.op_times.setdefault(kind, []).append(elapsed)
        return total, caught_n

    def measure(self, seconds: float, started: float, traced: bool, side_tasks=()) -> None:
        """Cycles 1, 2, ... until ``seconds`` have passed (cycle 0 warms up).

        The side tasks (fresh-interpreter imports, input rebuilds) run
        between cycles, spread evenly over the window, so that they sample
        the same machine state as the cycles.  Traced runs replay each cycle
        with the tracer on, on the same inputs.
        """
        tracer = self.tracer
        self.cycle(0, record=False)
        pending = list(side_tasks)
        begin = time.perf_counter()
        k = 1
        while k <= MIN_CYCLES or pending or time.perf_counter() < begin + seconds:
            if time.perf_counter() - started > MAX_RUN_S:
                break
            done = len(side_tasks) - len(pending)
            if pending and time.perf_counter() - begin >= seconds * done / len(side_tasks):
                pending.pop(0)()
                continue
            (t, _), ref = against_reference(lambda: self.cycle(k, record=not traced))
            if t is not None:
                self.cycle_times.append(t)
                self.cycle_refs.append(t / ref)
            if traced:
                first = len(tracer.spans)
                tracer.enabled = True
                t, caught = self.cycle(k, record=False)
                tracer.enabled = False
                if t is not None:
                    self.traced_times.append(t)
                    self.traced_ops.append({s[4] for s in tracer.spans[first:]})
                    self.traced_warnings.append(caught)
            k += 1


def _line(name, value, unit, note=""):
    print(f"{name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def end_to_end(runner: Runner, workload, args, started: float) -> dict:
    imports, import_refs, builds = [], [], []

    def build():
        start = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - start)

    def fresh_import():
        (wall,), ref = against_reference(lambda: import_once(False))
        imports.append(wall)
        import_refs.append(wall / ref)

    build()
    repeats = IMPORT_REPEATS if args.size == "full" else 1
    side = []
    for i in range(max(repeats, BUILD_REPEATS - 1)):
        if i < repeats:
            side.append(fresh_import)
        if i < BUILD_REPEATS - 1:
            side.append(build)
    runner.measure(args.seconds, started, traced=False, side_tasks=side)
    metrics = {
        "cycle_ref": (_median(runner.cycle_refs), "ref"),
        "setup_s": (_median(imports) + _median(builds), "s"),
        "import_ref": (_median(import_refs), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    _line("cycle_s", _median(runner.cycle_times), "s", f"median of {len(runner.cycle_times)} cycles after a warm-up")
    _line("import_s", _median(imports), "s", f"median of {len(imports)} fresh interpreters")
    _line("reference_s", _median([c / r for c, r in zip(runner.cycle_times, runner.cycle_refs)]), "s")
    _line("ops_failed_frac", runner.failed / runner.attempted, "ratio", f"{runner.failed} of {runner.attempted} ops")
    op_label = {"train": "train_s", "audit": "audit_s", "exact": "exact_s", "cell": "table_cell_s"}
    for kind, times in runner.op_times.items():
        _line(op_label[kind], _median(times), "s", f"median of {len(times)}")
        t = tail(times)
        tail_name = op_label[kind].replace("_s", "_tail_s")
        if t is None:
            print(f"{tail_name:<34} {'n/a':>14} {'s':<6} needs 11 samples, have {len(times)}")
        else:
            _line(tail_name, t[0], "s", f"p{t[1]:.0f} of {len(times)}")
    _line("warnings_per_op", runner.warnings / runner.attempted, "count", f"{runner.warnings} warnings caught")
    return metrics


def per_layer(runner: Runner, workload, args, started: float, tracing) -> dict:
    tracer = runner.tracer
    imports = []
    tracer.install()
    tracer.op = "setup"
    tracer.enabled = True
    workload.build()
    tracer.enabled = False
    side = [lambda: imports.append(import_once(True))] * (IMPORT_REPEATS if args.size == "full" else 1)
    runner.measure(args.seconds, started, traced=True, side_tasks=side)
    if not runner.traced_ops:
        raise RuntimeError("no traced cycle passed its checks")
    layers = tracing.layer_metrics(tracer.spans, "setup", runner.traced_ops)
    layers["import.scipy_s"] = (_median([r[1] for r in imports]), "s")
    layers["import.calma_self_s"] = (_median([r[2] for r in imports]), "s")
    layers["trace.overhead_frac"] = (_median(runner.traced_times) / _median(runner.cycle_times) - 1.0, "ratio")
    layers["audit.warnings"] = (runner.traced_warnings[0], "count")
    for name, (value, unit) in layers.items():
        _line(name, value, unit)
    _line("traced_cycles", len(runner.traced_times), "count")
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    tracer.write_jsonl(stem + ".spans.jsonl")
    with open(stem + ".layers.json", "w") as fh:
        json.dump({k: {"value": v, "unit": u} for k, (v, u) in layers.items()}, fh, indent=1)
    print(f"# spans in {stem}.spans.jsonl, all layer metrics in {stem}.layers.json")
    return layers


def run(args) -> int:
    import tracing
    import workloads

    started = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    env = environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer, args.size)
    runner = Runner(workload, tracer)
    left_wrapped: list[str] = []
    try:
        if args.trace:
            metrics = per_layer(runner, workload, args, started, tracing)
        else:
            metrics = end_to_end(runner, workload, args, started)
    finally:
        left_wrapped = tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        for problem in runner.problems[:20]:
            print("FAILED " + problem, file=sys.stderr)

    if left_wrapped:
        print("FAILED tracer left wrapped: " + ", ".join(left_wrapped), file=sys.stderr)
    correct = runner.failed == 0 and not left_wrapped
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sample", "exact", "table"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "calma", "__init__.py")):
        print(f"calma sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    import calma.cli  # noqa: F401

    if not os.path.abspath(calma.__file__).startswith(SRC + os.sep):
        print(f"imported calma from {calma.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
