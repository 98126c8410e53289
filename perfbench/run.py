"""The repository benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload odin-ops --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root.  ``--workload all`` runs every workload in
turn.  Every measured segment runs in a fresh interpreter
(``perfbench/child.py``): a warm-up child first (fills the Seamless
kernel cache and byte-code caches), then

* ``--trace 0``: ``CHILDREN[workload]`` timed children split
  ``--seconds`` between them.  Latencies are pooled; set-up time is the
  median of their set-ups.
* ``--trace 1``: two untraced children and a traced one run the same
  fixed item count.  The untraced ones give the program's exact counts
  and report whether they repeated; the traced one gives the per-layer
  split, and its wall time minus the untraced one's is the tracing
  overhead.  ``--seconds`` does not apply: the item counts are fixed.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a human-readable table that also carries the
per-workload metric names (``ops_per_s``, ``solve_s``, ...), the plain
NumPy/SciPy reference time and the machine and software versions.  The
full result is also written to ``.bench_out/``.  The exit code is 1 when
any output mismatched its oracle, 2 when the program's sources are not
there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import PINNED
from tracing import layer_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("odin-ops", "krylov", "odin-bulk")
#: timed children per run: the machine's speed drifts by +-15% over
#: seconds, so a run averages over several fresh interpreters; krylov
#: uses fewer because each pays ~3 s of matrix assembly
CHILDREN = {"odin-ops": 6, "krylov": 3, "odin-bulk": 5}
#: items per --trace 1 run: a fixed amount of work, so counts repeat
TRACE_ITEMS = {"odin-ops": 3000, "krylov": 3, "odin-bulk": 40}
TINY_TRACE_ITEMS = {"odin-ops": 200, "krylov": 1, "odin-bulk": 3}
CHILD_TIMEOUT = 120


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    # REPRO_OBS_DUMP=off: a process-backend context's shutdown makes the
    # flight recorder dump a RankFailure it sees as workers exit; the
    # dumps only fill the temp directory
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               TMPDIR=str(tmp), PYTHONHASHSEED="0", REPRO_OBS_DUMP="off")
    return env


def run_child(workload: str, seed: int, *extra: str) -> dict:
    """Run one child interpreter in its own process group; on timeout the
    whole group (the child and any worker processes it forked) is killed
    and reaped."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
        except BaseException:  # timeout, or SIGTERM/SIGINT of run.py
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{workload} child exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# ----------------------------------------------------------------------
# end-to-end (--trace 0)
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, size: str) -> dict:
    n = CHILDREN[workload]
    parts = [run_child(workload, seed * 1000 + k, "--seconds",
                       repr(seconds / n), "--size", size)
             for k in range(n)]
    lat = [x for p in parts for x in p["lat"]]
    wall = sum(p["wall_s"] for p in parts)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in parts) / 1024.0,
                        "MB"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "items_per_s": (len(lat) / wall, "1/s"),
    }
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    named = {"setup_s": metrics["setup_s"],
             "peak_rss_mb": metrics["peak_rss_mb"],
             "error_rate": (failed / max(attempted, 1), "ratio")}
    ref = statistics.median(p["ref_s"] for p in parts)
    if workload == "odin-ops":
        sync = [x for p in parts for x in p["extra"]["sync_lat"]]
        named.update(
            ops_per_s=(metrics["items_per_s"][0], "1/s"),
            op_p50_us=(statistics.median(lat) * 1e6, "us"),
            op_p99_us=(quantile(lat, 99) * 1e6,
                       f"us (n={len(lat)})"),
            sync_op_p50_us=(statistics.median(sync) * 1e6, "us"),
            reference_op_us=(ref * 1e6, "us"))
    elif workload == "krylov":
        its = [x for p in parts for x in p["extra"]["iterations"]]
        named.update(
            solve_s=(statistics.median(lat), f"s (n={len(lat)})"),
            solve_p90_s=(quantile(lat, 90), f"s (n={len(lat)})"),
            cg_iterations_p50=(statistics.median(its), "count"),
            reference_solve_s=(ref, "s"))
    else:
        named.update(
            step_p50_ms=(metrics["item_p50_ms"][0], "ms"),
            step_p90_ms=(quantile(lat, 90) * 1e3, f"ms (n={len(lat)})"),
            reference_step_ms=(ref * 1e3, "ms"))
    children = [{"setup_s": p["setup_s"], "wall_s": p["wall_s"],
                 "items": len(p["lat"]),
                 "p50_ms": statistics.median(p["lat"]) * 1e3,
                 "p90_ms": quantile(p["lat"], 90) * 1e3} for p in parts]
    return {"metrics": metrics, "named": named, "attempted": attempted,
            "failed": failed, "correct": failed == 0, "children": children}


# ----------------------------------------------------------------------
# per-layer (--trace 1)
# ----------------------------------------------------------------------
def _sum(names: dict, prefix: str, col: int) -> float:
    return sum(v[col] for k, v in names.items() if k.startswith(prefix))


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer metrics: exact counts from the untraced run, times from
    the traced run normalized by that run's own counts."""
    c = plain["counts"]
    tc = traced["counts"]
    names = traced["layers"]["names"]
    items = len(traced["lat"])
    ops = c.get("control_ops", 0)
    t_ops = tc.get("control_ops", 0)
    coll = c["coll"]

    def per(x, n):
        return x / n if n else 0.0

    def calls(op):
        return sum(n for k, n in coll.items() if k.split(":")[0] == op)

    def setup_max(prefix):
        lanes = {}
        for key, sec in traced["layers"]["setup"].items():
            name, lane = key.split("@", 1)
            if name.startswith(prefix):
                lanes[lane] = lanes.get(lane, 0.0) + sec
        return max(lanes.values(), default=0.0)

    us = 1e6
    plan = c["plan_hits"] + c["plan_misses"]
    iters = c.get("iterations", 0)
    t_iters = tc.get("iterations", 0)
    overhead = traced["wall_s"] - plain["wall_s"]
    m = {
        "odin.driver.self_us_per_op":
            (per(_sum(names, "odin.driver.", 1) * us, t_ops), "us/op"),
        "odin.driver.cpu_us_per_op":
            (per(_sum(names, "odin.driver.", 2) * us, t_ops), "us/op"),
        "odin.driver.async_share":
            (per(ops - c.get("sync_ops", 0), ops), "ratio"),
        "odin.control.ops": (ops, "count"),
        "odin.control.bytes_per_op": (per(c.get("control_bytes", 0), ops),
                                      "B/op"),
        "odin.worker.bytes_per_step":
            (per(c.get("worker_bytes", 0), items), "B/item"),
        "odin.worker.busy_us": (per(_sum(names, "odin.worker.", 0) * us,
                                    items), "us/item"),
        "odin.worker.plan_cache_hit_ratio":
            (per(c["plan_hits"], plan), "ratio"),
        "seamless.compile_s": (setup_max("seamless.compile"), "s/setup"),
        "mpi.coll.select.self_us":
            (per(_sum(names, "mpi.coll.select", 1) * us, items), "us/item"),
        "mpi.coll.algorithms": (len(coll), "count"),
        "mpi.transport.msgs": (c["msgs"], "count"),
        "mpi.transport.bytes": (c["bytes"], "B"),
        "mpi.transport.send_us":
            (per(_sum(names, "mpi.transport.send", 1) * us, items),
             "us/item"),
        "mpi.transport.recv_wait_us":
            (per(_sum(names, "mpi.transport.recv", 1) * us, items),
             "us/item"),
        "tpetra.assemble_s": (setup_max("tpetra.assemble."), "s/setup"),
        "tpetra.import.us_per_call":
            (per(_sum(names, "tpetra.import", 0) * us,
                 _sum(names, "tpetra.import", 3)), "us/call"),
        "tpetra.spmv.self_us":
            (per(_sum(names, "tpetra.spmv", 1) * us, items), "us/item"),
        "solvers.cg.iterations": (iters, "count"),
        "solvers.cg.self_us_per_iter":
            (per(_sum(names, "solvers.cg", 1) * us, t_iters), "us/iter"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_pct": (100.0 * per(overhead, plain["wall_s"]), "%"),
    }
    for op in ("bcast", "gather", "Allreduce", "alltoall"):
        m[f"mpi.coll.{op}.calls"] = (calls(op), "count")
        m[f"mpi.coll.{op}.self_us"] = (
            per(_sum(names, f"mpi.coll.{op}", 1) * us, items), "us/item")
    return m


def layer_table(names: dict, items: int) -> list:
    totals = {}
    for name, (wall, self_wall, self_cpu, n) in names.items():
        t = totals.setdefault(layer_of(name), [0.0, 0.0, 0])
        t[0] += self_wall
        t[1] += self_cpu
        t[2] += n
    rows = []
    for layer, (wall, cpu, n) in sorted(totals.items(),
                                        key=lambda kv: -kv[1][0]):
        rows.append(f"  {layer:<15} self {wall * 1e6 / items:10.1f} us/item"
                    f"   cpu {cpu * 1e6 / items:10.1f} us/item"
                    f"   spans {n}")
    return rows


def measure_traced(workload: str, seed: int, size: str) -> dict:
    """Two untraced runs and one traced run of the same fixed items.

    Counts come from the untraced runs and must repeat exactly between
    them.  The traced run is not compared: its wrappers allocate, which
    moves the cyclic garbage collector and with it the points where
    freed arrays' deletes ride the control stream.
    """
    n = (TINY_TRACE_ITEMS if size == "tiny" else TRACE_ITEMS)[workload]
    spans_out = ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl"
    plain, again = (run_child(workload, seed, "--items", str(n),
                              "--size", size) for _ in range(2))
    traced = run_child(workload, seed, "--items", str(n), "--size", size,
                       "--trace", "--spans-out", str(spans_out))
    repeat = plain["counts"] == again["counts"]
    metrics = layer_metrics(plain, traced)
    failed = plain["failed"] + again["failed"] + traced["failed"]
    rows = layer_table(traced["layers"]["names"], len(traced["lat"]))
    rows.append(f"  collective algorithms (op:algorithm -> calls): "
                f"{json.dumps(plain['counts']['coll'])}")
    rows.append(f"  exact counts repeat across two untraced runs: {repeat}")
    if not repeat:
        rows.append(f"    first  {json.dumps(plain['counts'])}")
        rows.append(f"    second {json.dumps(again['counts'])}")
    rows.append(f"  spans: {spans_out.relative_to(ROOT)}")
    return {"metrics": metrics, "named": {}, "rows": rows,
            "attempted": plain["attempted"] + again["attempted"]
            + traced["attempted"],
            "failed": failed, "correct": failed == 0}


# ----------------------------------------------------------------------
def versions() -> dict:
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "pinned_to_one_cpu": ",".join(sorted(PINNED))}
    if (ROOT / ".git").exists():
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True).stdout.strip()
    else:  # an exported tree: identify the sources by content
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.read_bytes())
        info["commit"] = "src-sha256:" + digest.hexdigest()[:16]
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the smoke test")
    args = ap.parse_args()
    # a terminated run still stops and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    info = versions()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for wl in workloads:
        t0 = time.perf_counter()
        run_child(wl, args.seed, "--items", "1", "--size", "tiny")
        if args.trace:
            res = measure_traced(wl, args.seed, args.size)
        else:
            res = measure(wl, args.seed, args.seconds, args.size)
        res["elapsed_s"] = time.perf_counter() - t0
        results[wl] = res
        print(f"== {wl}  seed {args.seed}  trace {args.trace}  "
              f"{'OK' if res['correct'] else 'FAILED'}  "
              f"({res['attempted']} attempted, {res['failed']} failed)")
        for name, (value, unit) in {**res["metrics"], **res["named"]}.items():
            print(f"  {name:<34} {value:>16.6g}  {unit}")
        for row in res.get("rows", ()):
            print(row)
    print("  " + "  ".join(f"{k}={v}" for k, v in info.items()))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "info": info, "results": {
        wl: {k: v for k, v in r.items() if k != "rows"}
        for wl, r in results.items()}}
    (out_dir / f"result-{args.workload}-{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    correct = all(r["correct"] for r in results.values())
    final = {"correct": correct,
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values())}
    fmt = {wl: {k: {"value": v, "unit": u.split(" ")[0]}
                for k, (v, u) in r["metrics"].items()}
           for wl, r in results.items()}
    final["metrics"] = fmt[workloads[0]] if len(workloads) == 1 else fmt
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
