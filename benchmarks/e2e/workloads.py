"""The four workloads: set-up, one timed operation, and its output check.

Every workload is a closed loop driven by one client: the next op starts
when the previous one (and its check) ended.

- ``paper-cold`` / ``paper-warm`` time the ``tdst campaign`` CLI as a
  subprocess, started and reaped (with ``wait4``, for the CPU time and
  peak memory of its whole process tree) by ``spawner.py``.
- ``sweep-grid`` / ``edit-loop`` time library calls inside an op server
  (``opserver.py``), a fresh process that holds only the program and the
  op's inputs, so its peak memory is the op's and not the set-up's.

Oracles are computed in the client, untimed, from routes the timed op
does not take: the per-record reference simulator, the single-config
fast kernel and the classic transform.
"""

from __future__ import annotations

import json
import random
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.e2e import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: An op that runs longer than this is killed and counted as failed.
OP_TIMEOUT_S = 90.0

#: Input sizes.  ``full`` is the benchmark; ``quick`` is the smoke test.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "paper_length": 1024,
        "list_nodes": 4096,
        "list_passes": 4,
        "edit_length": 256,
        "edit_reps": 2,
        "edit_structs": 4,
        "edit_chunk": 2048,
    },
    "quick": {
        "paper_length": 64,
        "list_nodes": 256,
        "list_passes": 2,
        "edit_length": 32,
        "edit_reps": 2,
        "edit_structs": 4,
        "edit_chunk": 128,
    },
}

#: Result fields of one cache config, in :func:`_row`'s argument order;
#: every paper grid point's payload must match them exactly.
RESULT_FIELDS = (
    "accesses",
    "hits",
    "misses",
    "evictions",
    "compulsory_misses",
    "by_variable_misses",
)


@dataclass
class Bench:
    """What every workload of one run shares."""

    seed: int
    sizes: Dict[str, int]
    #: per-run scratch root, removed when the run ends
    root: Path
    #: environment for every child process
    env: Dict[str, str]
    #: starts and reaps CLI processes (see ``spawner.py``)
    spawner: "LineChild"
    #: sweep-grid configs checked against the single-config fast kernel
    #: (a seeded sample; each LRU config costs about a second)
    oracle_configs: int = 24
    #: oracles shared by the workloads and passes of one run
    memo: Dict[Any, Any] = field(default_factory=dict)

    def fresh_dir(self, *parts: str) -> Path:
        path = self.root.joinpath(*parts)
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class OpResult:
    """One timed call: wall and CPU seconds plus what it produced."""

    wall: float
    cpu: float
    accesses: int = 0
    maxrss_kib: int = 0
    error: Optional[str] = None
    #: ``{"t0", "t1", "spans", "attrs"}`` when the call was traced
    trace: Optional[Dict[str, Any]] = None


def _row(config: str, accesses: int, hits: int, misses: int, evictions: int,
         compulsory: int, by_variable: Dict[str, int]) -> Dict[str, Any]:
    """One config's results, with zero-miss variables dropped."""
    return {
        "config": config,
        "accesses": int(accesses),
        "hits": int(hits),
        "misses": int(misses),
        "evictions": int(evictions),
        "compulsory_misses": int(compulsory),
        "by_variable_misses": {k: int(v) for k, v in sorted(by_variable.items()) if v},
    }


def _totals(row: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in row.items() if k != "by_variable_misses"}


def _reference_row(trace: Any, config: Any) -> Dict[str, Any]:
    from repro import api

    stats = api.simulate(trace, config, attribution="base").stats
    return _row(
        config.describe(), stats.accesses, stats.hits, stats.misses,
        stats.evictions, stats.compulsory_misses,
        {name: c.misses for name, c in stats.by_variable.items()},
    )


def _mismatch(what: str, got: Any, want: Any) -> str:
    def show(value: Any) -> str:
        return json.dumps(value, sort_keys=True)[:300]

    return f"{what}: got {show(got)} want {show(want)}"


def _in_process(traced: bool, fn: Callable[[], Any]) -> Tuple[Any, OpResult]:
    """Run ``fn`` in this process, timed, with layer wrappers if traced."""
    tracer = spans.Tracer() if traced else None
    restore = spans.install(tracer) if tracer is not None else None
    c0, t0 = time.process_time(), time.monotonic()
    try:
        value = fn()
    finally:
        t1, c1 = time.monotonic(), time.process_time()
        if restore is not None:
            restore()
    result = OpResult(wall=t1 - t0, cpu=c1 - c0)
    if tracer is not None:
        result.trace = {"t0": t0, "t1": t1, "spans": tracer.drain()}
    return value, result


# -- subprocesses --------------------------------------------------------------


class LineChild:
    """A helper process spoken to in JSON lines: one request, one reply."""

    def __init__(self, script: str, env: Dict[str, str], log: Path) -> None:
        self.log_path = log
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script)], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
        )

    def call(self, request: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.proc.terminate()
            log = self.log_path.read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"{self.proc.args[1]} gave no reply: {log[-400:]}")
        return json.loads(line)

    def close(self) -> Dict[str, Any]:
        """Ask the child to exit and wait for it; returns its last reply."""
        reply: Dict[str, Any] = {}
        if self.proc.poll() is None:
            try:
                reply = self.call({"cmd": "exit"}, timeout=30.0)
            except (RuntimeError, OSError, ValueError):
                self.proc.terminate()
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()
        return reply


def run_cli(bench: Bench, args: List[str], *, traced: bool, log: Path) -> OpResult:
    """Time one ``tdst`` invocation as a fresh process tree."""
    env = dict(bench.env)
    if traced:
        sink = bench.fresh_dir("spans")
        env["E2E_SPAN_DIR"] = str(sink)
        argv = [sys.executable, str(HERE / "tracedcli.py"), *args]
    else:
        argv = [sys.executable, "-m", "repro.cli", *args]
    done = bench.spawner.call(
        {"cmd": "run", "argv": argv, "env": env, "cwd": str(ROOT), "log": str(log),
         "timeout": OP_TIMEOUT_S},
        timeout=OP_TIMEOUT_S + 30.0,
    )
    t0, t1 = done["t0"], done["t1"]
    result = OpResult(wall=t1 - t0, cpu=done["cpu"], maxrss_kib=done["maxrss_kib"])
    if done["code"] != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
        if done["timed_out"]:
            reason = f"killed after {OP_TIMEOUT_S:.0f}s"
        else:
            reason = f"exit {done['code']}"
        result.error = f"tdst {args[0]}: {reason}: {tail}"
    if traced:
        found = spans.read_sink(sink)
        boot = [s for s in found if s["name"] == "bench.boot"]
        if boot:
            # Interpreter start-up before the bootstrap ran, and exit
            # after it returned, are the CLI process's own cost.
            lifetime = (("start", t0, boot[0]["t0"]), ("exit", boot[0]["t1"], t1))
            for sid, lo, hi in lifetime:
                found.append({"id": f"process.{sid}", "parent": None,
                              "name": "cli.process", "pid": done["pid"],
                              "t0": lo, "t1": hi})
        result.trace = {"t0": t0, "t1": t1, "spans": found}
    return result


class OpServer:
    """Client side of ``opserver.py`` for one in-process workload."""

    def __init__(self, bench: Bench, name: str, init: Dict[str, Any]) -> None:
        log = bench.root / f"{name}.server.log"
        self.child = LineChild("opserver.py", bench.env, log)
        reply = self.child.call(init, OP_TIMEOUT_S)
        if reply.get("error"):
            self.close()
            raise RuntimeError(f"{name} op server: {reply['error']}")

    def op(
        self, request: Dict[str, Any], traced: bool
    ) -> Tuple[OpResult, Dict[str, Any]]:
        """Run one op; returns its timing and the server's whole reply."""
        reply = self.child.call(dict(request, cmd="op", traced=traced), OP_TIMEOUT_S)
        result = OpResult(
            wall=reply["t1"] - reply["t0"], cpu=reply["cpu"], error=reply.get("error")
        )
        if traced:
            result.trace = {key: reply[key] for key in ("t0", "t1", "spans")}
            result.trace["attrs"] = reply.get("attrs") or {}
        return result, reply

    def close(self) -> int:
        """Stop the server; returns its peak RSS in KiB (0 if it died)."""
        return int(self.child.close().get("maxrss_kib", 0))


# -- paper-cold / paper-warm ---------------------------------------------------


def paper_grid(seed: int) -> List[Tuple[str, Tuple[str, str], bool]]:
    """The paper's T1/T2/T3 grid, entry order permuted by ``seed``:
    ``(kernel, (baseline, rule), on the PPC440 cache)``."""
    grid = [
        ("1a", ("baseline", "t1"), False),
        ("2a", ("baseline", "t2"), False),
        ("3a", ("baseline", "t3"), True),
    ]
    random.Random(seed).shuffle(grid)
    return grid


def paper_spec_text(length: int, seed: int) -> str:
    lines = [
        "[campaign]",
        f'name = "e2e-paper-s{seed}"',
        'attribution = ["base"]',
        "",
        "[[caches]]",
        "size = 32768",
        "block = 32",
        "assoc = 1",
    ]
    for kernel, rules, ppc440 in paper_grid(seed):
        lines += ["", "[[grid]]", f'kernel = "{kernel}"', f"length = {length}",
                  "rules = [" + ", ".join(f'"{r}"' for r in rules) + "]"]
        if ppc440:
            lines += ["[[grid.caches]]", "ppc440 = true"]
    return "\n".join(lines) + "\n"


def paper_expected(length: int, seed: int) -> Dict[Tuple[str, str, str], Any]:
    """Oracle: tracer -> classic transform -> reference simulator, keyed
    by ``(kernel, rule, config description)``."""
    from repro import api

    dm = api.CacheConfig.paper_direct_mapped()
    expected = {}
    for kernel, rules, ppc440 in paper_grid(seed):
        config = api.CacheConfig.ppc440() if ppc440 else dm
        trace = api.trace_program(api.paper_kernel(kernel, length=length))
        for rule in rules:
            target = trace
            if rule != "baseline":
                rules = api.paper_rule(rule, length=length)
                target = api.transform_trace(trace, rules).trace
            row = _reference_row(target, config)
            expected[(kernel, rule, row.pop("config"))] = row
    return expected


class Paper:
    """``tdst campaign`` on the paper grid: a fresh store, or a primed one."""

    #: a timed run stops on a multiple of this many ops
    op_period = 1

    def __init__(self, bench: Bench, warm: bool) -> None:
        self.bench = bench
        self.warm = warm
        self.name = "paper-warm" if warm else "paper-cold"
        self.length = bench.sizes["paper_length"]
        self.spec = bench.root / f"{self.name}.toml"
        self.log = bench.root / f"{self.name}.log"
        self.store: Optional[Path] = None
        self._n = 0

    def sizes(self) -> Dict[str, Any]:
        return {
            "length": self.length,
            "points": 6,
            "jobs": 2,
            "grid_order": [k for k, _, _ in paper_grid(self.bench.seed)],
        }

    def _campaign(self, directory: Path) -> List[str]:
        return ["campaign", str(self.spec), "--dir", str(directory), "--jobs", "2"]

    def setup(self, traced: bool) -> OpResult:
        """Write the permuted spec, then lint it (cold) or run the
        campaign once into a fresh store that warm ops re-read (warm)."""
        t0 = time.monotonic()
        spec = paper_spec_text(self.length, self.bench.seed)
        self.spec.write_text(spec, encoding="utf-8")
        if self.warm:
            self.store = self.bench.fresh_dir(self.name, "store")
            args = self._campaign(self.store)
        else:
            args = ["lint", str(self.spec)]
        result = run_cli(self.bench, args, traced=traced, log=self.log)
        if result.error:
            raise RuntimeError(f"{self.name} set-up: {result.error}")
        result.wall = time.monotonic() - t0
        if result.trace is not None:
            result.trace["t0"] = t0
        return result

    def prepare(self) -> None:
        memo = self.bench.memo
        if "paper" not in memo:
            memo["paper"] = paper_expected(self.length, self.bench.seed)
        self.expected = memo["paper"]

    def op(self, index: Optional[int], traced: bool) -> OpResult:
        if self.warm:
            directory = self.store
        else:
            self._n += 1
            directory = self.bench.fresh_dir(self.name, f"op{self._n}")
        args = self._campaign(directory)
        result = run_cli(self.bench, args, traced=traced, log=self.log)
        if result.error is None:
            result.accesses, result.error = self._check(directory / "manifest.jsonl")
        if not self.warm:
            shutil.rmtree(directory, ignore_errors=True)
        return result

    def _check(self, manifest: Path) -> Tuple[int, Optional[str]]:
        done: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
        for line in manifest.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            if row.get("event") == "job-failed":
                return 0, f"point {row.get('job_id')} failed: {row.get('error')}"
            payload = row.get("result") or {}
            if row.get("event") == "job-done" and payload.get("kind") == "simulation":
                head, rule = row["job_id"].split("/")[:2]
                done[(head.split("-L")[0], rule, payload["config"])] = payload
        if set(done) != set(self.expected):
            return 0, _mismatch("grid points", sorted(done), sorted(self.expected))
        for key, want in self.expected.items():
            got = _row("", *(done[key][f] for f in RESULT_FIELDS))
            got.pop("config")
            if got != want:
                return 0, _mismatch("/".join(key[:2]), got, want)
        return sum(int(p["accesses"]) for p in done.values()), None

    def close(self) -> int:
        return 0


# -- sweep-grid ----------------------------------------------------------------


def grid24() -> List[Any]:
    """``tdst simbatch``'s default grid: sets x ways x block sizes, LRU."""
    from repro import api

    return [
        api.CacheConfig(size=block * sets * ways, block_size=block,
                        associativity=ways, policy="lru")
        for block in (32, 64)
        for sets in (128, 256, 512)
        for ways in (1, 2, 4, 8)
    ]


def batch_rows(result: Any) -> List[Dict[str, Any]]:
    return [
        _row(config.describe(), counts.demand_accesses, counts.demand_hits,
             counts.demand_misses, counts.evictions, counts.counts.compulsory_misses,
             {name: counts.per_variable.get(vid, (0, 0))[1]
              for vid, name in enumerate(result.names)})
        for config, counts in zip(result.configs, result.results)
    ]


class SweepGrid:
    """``api.simulate_batch`` over a mapped columnar trace, 24 configs."""

    name = "sweep-grid"
    op_period = 1

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.path = bench.root / self.name / "list.tdst"
        self.server: Optional[OpServer] = None

    def sizes(self) -> Dict[str, Any]:
        sizes = self.bench.sizes
        return {"nodes": sizes["list_nodes"], "passes": sizes["list_passes"],
                "shuffled": True, "configs": 24, "attribution": "base"}

    def setup(self, traced: bool) -> OpResult:
        """Trace the shuffled linked-list traversal; save it as columnar v2."""
        from repro import api

        self.path.parent.mkdir(parents=True, exist_ok=True)

        def work() -> Any:
            program = api.linked_list_traversal(
                self.bench.sizes["list_nodes"], shuffled=True, seed=self.bench.seed,
                passes=self.bench.sizes["list_passes"],
            )
            trace = api.trace_program(program)
            api.save_columnar(trace, self.path)
            return trace

        self.trace, result = _in_process(traced, work)
        return result

    def prepare(self) -> None:
        """Oracles: totals from the single-config fast kernel on
        ``oracle_configs`` seeded configs (all 24 by default), and whole
        rows (per-variable misses too) from the reference simulator on 3
        seeded configs; then start the server.

        Per-variable counts come from the reference alone: the fast
        kernel's per-variable pass costs O(variables x accesses), and
        this trace has one variable per list node.
        """
        if "sweep" not in self.bench.memo:
            self.bench.memo["sweep"] = self._oracle()
        self.totals, self.reference = self.bench.memo["sweep"]
        self.trace = None  # ops read the columnar file; free the records
        init = {"cmd": "init", "workload": self.name, "path": str(self.path)}
        self.server = OpServer(self.bench, self.name, init)

    def _oracle(self) -> Tuple[Dict[int, Any], Dict[int, Any]]:
        import numpy as np
        from repro import api

        configs = grid24()
        data = [r for r in self.trace if r.op.value != "X"]
        addrs = np.fromiter((r.addr for r in data), dtype=np.uint64, count=len(data))
        sizes = np.fromiter((r.size for r in data), dtype=np.uint32, count=len(data))
        rng = random.Random(self.bench.seed)
        totals = {}
        for i in sorted(rng.sample(range(len(configs)), self.bench.oracle_configs)):
            c = api.fast_trace_counts(addrs, configs[i], sizes)
            totals[i] = _totals(_row(
                configs[i].describe(), c.demand_accesses, c.demand_hits,
                c.demand_misses, c.evictions, c.counts.compulsory_misses, {},
            ))
        picks = rng.sample(range(len(configs)), 3)
        reference = {i: _reference_row(self.trace, configs[i]) for i in picks}
        return totals, reference

    def op(self, index: Optional[int], traced: bool) -> OpResult:
        result, reply = self.server.op({"first": index == 0}, traced)
        if result.error is None:
            result.accesses = reply["accesses"]
            if index == 0:
                rows = reply["rows"]
                for i, want in self.totals.items():
                    if _totals(rows[i]) != want:
                        result.error = _mismatch("vs fast_trace_counts", rows[i], want)
                for i, want in self.reference.items():
                    if rows[i] != want:
                        result.error = _mismatch("grid vs reference", rows[i], want)
            elif index is not None and not reply["matches_first"]:
                result.error = f"op {index} differs from op 0"
        return result

    def close(self) -> int:
        return self.server.close() if self.server is not None else 0


# -- edit-loop -----------------------------------------------------------------


def edit_program(length: int, reps: int, structs: int) -> Any:
    """``structs`` structure-of-arrays, each swept ``reps`` times in its
    own phase, so a rule edit on one structure touches one phase's chunks."""
    from repro.ctypes_model.types import ArrayType, DOUBLE, INT, StructType
    from repro.tracer.expr import Cast, V
    from repro.tracer.program import Function, Program
    from repro.tracer.stmt import (
        Assign, DeclLocal, StartInstrumentation, StopInstrumentation, simple_for,
    )

    program = Program()
    body: List[Any] = []
    for s in range(structs):
        soa = StructType(f"SoA{s}", [("mX", ArrayType(INT, length)),
                                     ("mY", ArrayType(DOUBLE, length))])
        program.register_struct(f"SoA{s}", soa)
        body.append(DeclLocal(f"lS{s}", soa))
    body += [DeclLocal("lI", INT), DeclLocal("lR", INT), StartInstrumentation()]
    for s in range(structs):
        body += simple_for("lR", 0, reps, simple_for("lI", 0, length, [
            Assign(V(f"lS{s}").fld("mX")[V("lI")], Cast(INT, V("lI"))),
            Assign(V(f"lS{s}").fld("mY")[V("lI")], Cast(DOUBLE, V("lI"))),
        ]))
    body.append(StopInstrumentation())
    program.add_function(Function("main", body=body))
    return program


def edit_rules(length: int, outs: List[str]) -> str:
    """One SoA -> AoS rule per structure; ``outs`` names the out structs."""
    return "".join(
        f"in:\nstruct lS{s} {{\n    int mX[{length}];\n    double mY[{length}];\n}};\n"
        f"out:\nstruct {out} {{\n    int mX;\n    double mY;\n}}[{length}];\n"
        for s, out in enumerate(outs)
    )


def edit_configs() -> List[Any]:
    """8K direct-mapped, 16K 2-way LRU, 32K 4-way LRU (32-byte blocks)."""
    from repro import api

    return [
        api.CacheConfig(size=8 * 1024, block_size=32, associativity=1),
        api.CacheConfig(size=16 * 1024, block_size=32, associativity=2, policy="lru"),
        api.CacheConfig(size=32 * 1024, block_size=32, associativity=4, policy="lru"),
    ]


class EditLoop:
    """Rename one rule's out struct, then ``apply_rules`` + ``simulate_chain``."""

    name = "edit-loop"

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        s = bench.sizes
        self.length, self.structs = s["edit_length"], s["edit_structs"]
        self.op_period = self.structs
        self.server: Optional[OpServer] = None

    def sizes(self) -> Dict[str, Any]:
        s = self.bench.sizes
        return {"length": self.length, "reps": s["edit_reps"], "structs": self.structs,
                "chunk_records": s["edit_chunk"], "configs": 3}

    def setup(self, traced: bool) -> OpResult:
        """Trace the program, commit it in chunks, apply the first rule
        file and simulate it once, leaving the snapshots an edit loop
        starts from."""
        from repro import api

        store_dir = self.bench.fresh_dir(self.name, "store")
        outs = [f"lAoS{s}" for s in range(self.structs)]

        def work() -> Any:
            trace = api.trace_program(
                edit_program(self.length, self.bench.sizes["edit_reps"], self.structs)
            )
            store = api.TraceStore(store_dir)
            chunk = self.bench.sizes["edit_chunk"]
            base = store.commit_trace(trace, chunk_records=chunk)
            prev = api.apply_rules(store, base, edit_rules(self.length, outs)).commit
            for config in edit_configs():
                api.simulate_chain(store, prev, config)
            return trace, base, prev

        (self.trace, base, prev), result = _in_process(traced, work)
        self.init = {"cmd": "init", "workload": self.name, "store": str(store_dir),
                     "base": base.id, "prev": prev.id}
        self.outs = outs
        return result

    def prepare(self) -> None:
        self.rng = random.Random(self.bench.seed)
        self.cycle: List[int] = []
        self.server = OpServer(self.bench, self.name, self.init)

    def _next_rules(self, index: Optional[int]) -> str:
        # An edit's cost depends on where its structure sits: everything
        # after it is re-simulated.  Each aligned block of ``structs`` ops
        # edits every structure once, in a seeded order, and a timed run
        # stops on a multiple of ``op_period`` ops, so every run mixes
        # early and late edits alike.  Warm-up ops pick at random.
        if index is None:
            k = self.rng.randrange(self.structs)
        else:
            if index % self.structs == 0:
                self.cycle = self.rng.sample(range(self.structs), self.structs)
            k = self.cycle[index % self.structs]
        self.outs[k] = f"lAoS{k}_{self.rng.getrandbits(32):08x}"
        return edit_rules(self.length, self.outs)

    def op(self, index: Optional[int], traced: bool) -> OpResult:
        text = self._next_rules(index)
        result, reply = self.server.op({"rules": text}, traced)
        if result.error is None:
            rows = reply["rows"]
            result.accesses = sum(r["accesses"] for r in rows)
            if index is not None and (index < 3 or index % 10 == 0):
                from repro import api

                transformed = api.transform_trace(self.trace, text).trace
                want = [_reference_row(transformed, c) for c in edit_configs()]
                if rows != want:
                    result.error = _mismatch(f"op {index} vs classic route", rows, want)
        return result

    def close(self) -> int:
        return self.server.close() if self.server is not None else 0


# -- op-server side ------------------------------------------------------------


class SweepGridState:
    """Server state: the trace path and the grid, built once."""

    def __init__(self, request: Dict[str, Any]) -> None:
        self.path = request["path"]
        self.configs = grid24()
        self.first: Optional[List[Any]] = None

    def op(self, request: Dict[str, Any]) -> Any:
        from repro import api

        return api.simulate_batch(self.path, self.configs, attribution="base")

    def reply(self, value: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        """Rows for op 0; for later ops, whether every number equals op 0's."""
        numbers = [value.names] + [
            (c.demand_hits, c.demand_misses, c.evictions, c.counts.compulsory_misses,
             c.per_variable)
            for c in value.results
        ]
        out: Dict[str, Any] = {
            "accesses": sum(c.demand_accesses for c in value.results)
        }
        if request.get("first"):
            self.first = numbers
            out["rows"] = batch_rows(value)
        else:
            out["matches_first"] = numbers == self.first
        return out


class EditLoopState:
    """Server state: the store, the base commit and the previous edit."""

    def __init__(self, request: Dict[str, Any]) -> None:
        from repro import api

        self.store = api.TraceStore(request["store"])
        self.base = self.store.read_commit(request["base"])
        self.prev = self.store.read_commit(request["prev"])
        self.configs = edit_configs()

    def op(self, request: Dict[str, Any]) -> Any:
        from repro import api

        store = self.store
        applied = api.apply_rules(store, self.base, request["rules"], prev=self.prev)
        results = [api.simulate_chain(store, applied.commit, c) for c in self.configs]
        return applied, results

    def reply(self, value: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        applied, results = value
        self.prev = applied.commit
        rows = []
        for result in results:
            f = result.fields()
            rows.append(_row(f["config"], *(f[k] for k in RESULT_FIELDS)))
        return {"rows": rows}

    def disk_bytes(self) -> int:
        files = Path(self.store.root).rglob("*")
        return sum(p.stat().st_size for p in files if p.is_file())


SERVER_STATES = {"sweep-grid": SweepGridState, "edit-loop": EditLoopState}
