"""End-to-end benchmark of the trace -> transform -> simulate pipeline.

All four workloads, a fixed number of ops each, then a traced pass::

    PYTHONPATH=src python -m benchmarks.e2e --seed 0 --out results.json
    PYTHONPATH=src python -m benchmarks.e2e --quick      # smoke-test sizes

One workload for a fixed time (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload paper-cold --seed 3 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  Any op
that fails or whose output disagrees with its oracle is counted, and the
command then exits 1.  Every run writes only below ``.bench_e2e/`` in
the checkout (plus ``--out``); its scratch directory is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("paper-cold", "paper-warm", "sweep-grid", "edit-loop")

#: ``(metric, unit)`` reported per workload from the untraced pass.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("op_cpu_s", "s"),
    ("accesses_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

#: Untimed ops before measuring, per workload.
WARMUP = {"full": 2, "quick": 1}
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPS = 3
#: Timed ops per workload when all four run; the traced pass runs
#: ``TRACED_OPS`` traced ops interleaved with as many untraced ones.
OPS = {
    "full": {"paper-cold": 50, "paper-warm": 100, "sweep-grid": 50, "edit-loop": 40},
    "quick": dict.fromkeys(WORKLOADS, 3),
}
TRACED_OPS = {"full": 10, "quick": 3}
#: A time-bounded run still measures at least this many ops.
MIN_OPS = 5
#: sweep-grid configs a time-bounded run checks against the fast kernel
#: (a seeded sample, so different seeds cover different configs).
TIMED_ORACLE_CONFIGS = 6
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 70, 60, 50)


def tail_percentile(values: Sequence[float]) -> tuple:
    """The highest percentile with at least ten samples above it
    (nearest rank), or the median when there are fewer than 20."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if rank and n - rank >= 10:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


# -- environment ---------------------------------------------------------------


def pin_environment(scratch: Path) -> Dict[str, str]:
    """Pin this process and return the environment for child processes.

    Children get the checkout's ``src`` as their only ``PYTHONPATH``, a
    bytecode cache under the scratch root (and never
    ``PYTHONDONTWRITEBYTECODE``, which would recompile ``repro`` on
    every CLI op), a scratch ``TMPDIR``, a fixed hash seed and no
    ``TDST_NO_*`` escape hatch, which would silently reroute their jobs.
    """
    for key in [k for k in os.environ if k.startswith("TDST_NO_")]:
        del os.environ[key]
    pycache = scratch / "pycache"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(pycache)
    sys.dont_write_bytecode = False
    tempfile.tempdir = str(tmp)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(pycache),
        TMPDIR=str(tmp),
        PYTHONHASHSEED="0",
    )
    return env


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    import numpy

    commit = dirty = None
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "bytecode": "per-run PYTHONPYCACHEPREFIX, bytecode writes on",
    }


# -- passes --------------------------------------------------------------------


def make_workloads(names: Sequence[str], bench: Any) -> List[Any]:
    from benchmarks.e2e import workloads as wl

    table = {
        "paper-cold": lambda: wl.Paper(bench, False),
        "paper-warm": lambda: wl.Paper(bench, True),
        "sweep-grid": lambda: wl.SweepGrid(bench),
        "edit-loop": lambda: wl.EditLoop(bench),
    }
    return [table[name]() for name in names]


def run_pass(
    workloads: List[Any],
    *,
    traced: bool,
    warmup: int,
    ops: Optional[Dict[str, int]] = None,
    seconds: Optional[float] = None,
) -> Dict[str, Dict[str, Any]]:
    """Set up every workload, then run ops round-robin, closed loop.

    Untraced passes repeat set-up ``SETUP_REPS`` times; traced passes
    set up once (traced) and alternate untraced and traced ops, so the
    tracing overhead is measured on neighbouring ops.  The pass ends per
    workload after ``ops[name]`` ops (traced: twice that, half traced),
    or for all after ``seconds`` (at least ``MIN_OPS`` ops, and a
    multiple of the workload's ``op_period``).
    """
    from benchmarks.e2e.workloads import OpResult

    recs: Dict[str, Dict[str, Any]] = {}
    try:
        for w in workloads:
            setups = [w.setup(traced) for _ in range(1 if traced else SETUP_REPS)]
            w.prepare()
            for _ in range(warmup):
                result = w.op(None, False)
                if result.error:
                    raise RuntimeError(f"{w.name} warm-up op failed: {result.error}")
            recs[w.name] = {"setup": setups, "ops": [], "maxrss_kib": 0}
        start = time.monotonic()
        active = list(workloads)
        while active:
            for w in list(active):
                done = recs[w.name]["ops"]
                n = len(done)
                if ops is not None:
                    finished = n >= ops[w.name] * (2 if traced else 1)
                else:
                    finished = (
                        n >= MIN_OPS
                        and n % w.op_period == 0
                        and time.monotonic() - start >= seconds
                    )
                if finished:
                    active.remove(w)
                    continue
                try:
                    result = w.op(n, traced and n % 2 == 1)
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    error = f"{type(exc).__name__}: {exc}"
                    result = OpResult(wall=0.0, cpu=0.0, error=error)
                done.append(result)
    finally:
        for w in workloads:
            rss = w.close()
            if w.name in recs:
                recs[w.name]["maxrss_kib"] = rss
    return recs


def end_to_end(rec: Dict[str, Any]) -> Dict[str, Any]:
    """End-to-end metrics of one workload's untraced pass."""
    ok = [r for r in rec["ops"] if r.error is None]
    failed = len(rec["ops"]) - len(ok)
    out: Dict[str, Any] = {
        "ops": len(rec["ops"]),
        "failed": failed,
        "tail_pct": 50,
        "op_walls": [r.wall for r in rec["ops"]],
        "setup_walls": [s.wall for s in rec["setup"]],
    }
    values = dict.fromkeys((m for m, _ in END_TO_END), 0.0)
    values["setup_s"] = statistics.median(s.wall for s in rec["setup"])
    if ok:
        walls = [r.wall for r in ok]
        out["tail_pct"], values["op_tail_s"] = tail_percentile(walls)
        values["op_p50_s"] = statistics.median(walls)
        values["op_cpu_s"] = statistics.median(r.cpu for r in ok)
        values["accesses_per_s"] = sum(r.accesses for r in ok) / sum(walls)
        peak = max([r.maxrss_kib for r in ok] + [rec["maxrss_kib"]])
        values["peak_rss_mib"] = peak / 1024
    units = dict(END_TO_END)
    out["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    out["metrics"]["failed_frac"] = {
        "value": failed / len(rec["ops"]) if rec["ops"] else 1.0,
        "unit": "ratio",
    }
    return out


def per_layer(name: str, rec: Dict[str, Any], out_stem: Path) -> Dict[str, Any]:
    """Per-layer metrics of one workload's traced pass; writes its spans."""
    from benchmarks.e2e import spans

    ok = [r for r in rec["ops"] if r.error is None]
    traced = []
    for i, r in enumerate(rec["ops"]):
        if r.trace is not None and r.error is None:
            traced.append(dict(r.trace, op=f"{name}/{i}"))
    setup = dict(rec["setup"][0].trace, op=f"{name}/setup")
    values = spans.layer_metrics(
        traced,
        setup,
        [r.wall for r in ok if r.trace is not None],
        [r.wall for r in ok if r.trace is None],
    )
    spans.write_traces([setup] + traced, out_stem)
    units = dict(spans.PER_LAYER_UNITS)
    return {
        "ops": len(rec["ops"]),
        "traced_ops": len(traced),
        "failed": len(rec["ops"]) - len(ok),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "spans": [f"{out_stem}.spans.jsonl", f"{out_stem}.trace.json"],
    }


def _print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<34s} {m['value']:>16.6g} {m['unit']}")


# -- entry point ---------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n")[0]
    )
    p.add_argument("--seed", type=int, default=0, help="input seed")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run only this workload for --seconds (default: all four)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time of a single-workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="single-workload run: 1 = traced pass, per-layer metrics")
    p.add_argument("--quick", action="store_true", help="smoke-test sizes, 3 ops each")
    p.add_argument("--out", type=Path, help="write the full results JSON here")
    return p.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Run as a script, this file's directory heads sys.path; import the
    # benchmark as a package from the checkout root instead.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    scratch = ROOT / ".bench_e2e" / f"run-{os.getpid()}"
    out_dir = args.out.parent if args.out else ROOT / ".bench_e2e" / "out"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        scratch.mkdir(parents=True)
        env = pin_environment(scratch)
        from benchmarks.e2e.workloads import SIZES, Bench, LineChild

        # Started before numpy and the program are imported here, so the
        # CLI processes it starts do not inherit this process's peak RSS.
        spawner = LineChild("spawner.py", env, scratch / "spawner.log")
        try:
            mode = "quick" if args.quick else "full"
            bench = Bench(args.seed, SIZES[mode], scratch, env, spawner)
            if args.workload:
                bench.oracle_configs = TIMED_ORACLE_CONFIGS
            return _run(args, mode, bench, out_dir)
        finally:
            spawner.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args: argparse.Namespace, mode: str, bench: Any, out_dir: Path) -> int:
    from benchmarks.e2e.spans import LAYER_MAP

    names = [args.workload] if args.workload else list(WORKLOADS)
    doc: Dict[str, Any] = {
        "schema": 1,
        "argv": sys.argv[1:],
        "mode": mode,
        "env": environment(args.seed),
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    stem = f"seed{args.seed}" + ("-quick" if args.quick else "")
    if args.workload:
        passes = [(bool(args.trace), {"seconds": args.seconds})]
    else:
        passes = [
            (False, {"ops": OPS[mode]}),
            (True, {"ops": dict.fromkeys(names, TRACED_OPS[mode])}),
        ]
    attempted = failed = 0
    for traced, budget in passes:
        workloads = make_workloads(names, bench)
        for w in workloads:
            doc["workloads"].setdefault(w.name, {"sizes": w.sizes()})
        recs = run_pass(workloads, traced=traced, warmup=WARMUP[mode], **budget)
        for name, rec in recs.items():
            entry = doc["workloads"][name]
            if traced:
                entry["per_layer"] = per_layer(name, rec, out_dir / f"{name}-{stem}")
                part = entry["per_layer"]
            else:
                entry["end_to_end"] = end_to_end(rec)
                part = entry["end_to_end"]
            attempted += part["ops"]
            failed += part["failed"]
            for r in rec["ops"]:
                if r.error:
                    print(f"FAILED {name}: {r.error}", file=sys.stderr)
    doc.update(attempted=attempted, failed=failed, correct=failed == 0)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    for name, entry in doc["workloads"].items():
        if "end_to_end" in entry:
            e2e = entry["end_to_end"]
            _print_metrics(
                f"{name}: end to end ({e2e['ops']} ops, tail = p{e2e['tail_pct']})",
                e2e["metrics"],
            )
        if "per_layer" in entry:
            layer = entry["per_layer"]
            _print_metrics(f"{name}: per layer ({layer['traced_ops']} traced ops)",
                           layer["metrics"])
    result: Dict[str, Any] = {
        "correct": failed == 0, "attempted": attempted, "failed": failed
    }
    if args.workload:
        entry = doc["workloads"][args.workload]
        if args.trace:
            result["metrics"] = entry["per_layer"]["metrics"]
        else:
            metrics = entry["end_to_end"]["metrics"]
            result["metrics"] = {m: metrics[m] for m, _ in END_TO_END}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
