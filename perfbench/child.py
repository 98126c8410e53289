"""One measured segment of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last stdout line::

    python3 perfbench/child.py --workload odin-ops --seed 1 \\
        (--seconds 3 | --items 2000) [--trace [--spans-out F]] [--size tiny]

``--seconds`` runs a timed window and reports every item's latency.
``--items`` runs a fixed number of items and reports the program's exact
counts over them; with ``--trace`` it also records spans and reports the
per-layer split.  Setup (imports, context start, inputs, warm-up) is
timed on its own and never inside the window.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# thread-backend workloads serialize on the GIL anyway; one CPU keeps
# cross-core wake-ups (which made per-process medians differ by up to
# 2.5x on a 2-core box) out of the measurement
PINNED = {"odin-ops", "krylov"}

TINY = {"odin-ops": 512, "krylov": 24, "odin-bulk": 4096}


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for key, val in after.items():
        if isinstance(val, dict):
            d = {k: n - before[key].get(k, 0) for k, n in val.items()}
            out[key] = {k: n for k, n in sorted(d.items()) if n}
        else:
            out[key] = val - before[key]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--items", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    if args.workload in PINNED and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    kwargs = {"size": TINY[args.workload]} if args.size == "tiny" else {}
    wl = cls(args.seed, **kwargs)

    rec = collect = None
    if args.trace:
        import tracing
        rec = tracing.SpanRecorder(f"{args.workload}/{args.seed}/"
                                   f"{os.getpid()}")
        collect = tracing.install(rec)

    out = {"workload": args.workload, "seed": args.seed}
    try:
        wl.setup()
        t_ready = time.perf_counter()
        out["setup_s"] = t_ready - T_START
        if args.items is not None:
            plan0 = wl.plan_stats()
            c0 = wl.counts()
        lat = []
        t0 = time.perf_counter()
        if args.items is None:
            while time.perf_counter() - t0 < args.seconds:
                lat.append(wl.step())
        else:
            for _ in range(args.items):
                lat.append(wl.step())
        wl.finish()
        t1 = time.perf_counter()
        out.update(wall_s=t1 - t0, lat=lat, extra=wl.extra())
        if args.items is not None:
            c1 = wl.counts()
            plan1 = wl.plan_stats()
            counts = _delta(c1, c0)
            counts["plan_hits"] = plan1[0] - plan0[0]
            counts["plan_misses"] = plan1[1] - plan0[1]
            out["counts"] = counts
        if rec is not None:
            spans = rec.finished()
            if wl.remote_workers:
                for part in collect(wl.any_array()):
                    spans.extend(part)
            if args.spans_out:
                tracing.write(args.spans_out, spans)
            out["layers"] = summarize(spans, (T_START, t_ready), (t0, t1))
        out["peak_rss_kb"] = wl.peak_rss_kb()
    finally:
        wl.close()
    attempted, failed, ref_s = wl.verify()
    out.update(attempted=attempted, failed=failed, ref_s=ref_s)
    print(json.dumps(out))
    return 0


def summarize(spans, setup_window, window) -> dict:
    """Per-span-name totals inside *window* (wall, self wall, self cpu,
    calls) plus setup-phase totals per name and rank lane."""
    from tracing import self_times
    selfs = self_times(spans)
    names = {}
    setup = {}
    for s, (sw, sc) in zip(spans, selfs):
        if window[0] <= s[4] <= window[1]:
            agg = names.setdefault(s[2], [0.0, 0.0, 0.0, 0])
            agg[0] += s[5] - s[4]
            agg[1] += sw
            agg[2] += sc
            agg[3] += 1
        elif setup_window[0] <= s[4] <= setup_window[1]:
            key = f"{s[2]}@{s[3]}"
            setup[key] = setup.get(key, 0.0) + s[5] - s[4]
    return {"names": names, "setup": setup}


if __name__ == "__main__":
    sys.exit(main())
