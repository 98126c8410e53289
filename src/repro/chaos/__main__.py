"""Replayable conformance sweeps: ``python -m repro.chaos``.

Every run is a pure function of its flags -- the same command line
produces byte-identical output on consecutive runs (no timestamps, no
process-salted hashing), which is what makes the printed REPLAY lines
trustworthy.

Examples::

    # fixed-seed differential sweep, no faults
    python -m repro.chaos --seed 1234 --programs 50 --nranks 1,2,3,4

    # same programs under benign chaos (delay/slowdown/reorder):
    # results must still match the NumPy oracle exactly
    python -m repro.chaos --seed 1234 --programs 50 --nranks 2,4 --chaos benign

    # destructive faults: typed MPI errors accepted, wrong answers never
    python -m repro.chaos --seed 1234 --programs 20 --nranks 3 --chaos crash

    # fault recovery: the crash is detected, the worker pool shrinks,
    # state restores from partner checkpoints + op-log replay, and the
    # result must STILL match the oracle (needs nranks >= 2)
    python -m repro.chaos --seed 1234 --programs 20 --nranks 2,3,4 \
        --chaos crash --recover
"""

from __future__ import annotations

import argparse
import json
import sys

from .conformance import CHAOS_MODES, run_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic differential conformance sweeps for the "
                    "ODIN runtime, optionally under injected faults.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; program i uses seed+i (default 0)")
    parser.add_argument("--programs", type=int, default=20,
                        help="number of generated programs (default 20)")
    parser.add_argument("--nranks", default="1,2,3,4",
                        help="comma-separated worker counts (default 1,2,3,4)")
    parser.add_argument("--chaos", default="none", choices=CHAOS_MODES,
                        help="fault-plan template applied per program")
    parser.add_argument("--max-steps", type=int, default=10,
                        help="max steps per generated program (default 10)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="substrate deadlock timeout seconds (default 30)")
    parser.add_argument("--strict", action="store_true",
                        help="count typed MPI errors as failures even under "
                             "destructive chaos modes")
    parser.add_argument("--recover", action="store_true",
                        help="enable fault recovery (shrink + checkpoint/"
                             "replay): crashes must yield oracle-conformant "
                             "results instead of typed errors")
    parser.add_argument("--backend", default=None,
                        choices=("thread", "process"),
                        help="transport backend for the ODIN contexts "
                             "(default: REPRO_MPI_BACKEND or thread)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failures to minimal programs")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many failures (default 5)")
    parser.add_argument("--repro-out", default=None, metavar="FILE",
                        help="write the first shrunk failure as JSON "
                             "(CI artifact)")
    args = parser.parse_args(argv)

    try:
        nranks_list = [int(x) for x in args.nranks.split(",") if x.strip()]
    except ValueError:
        parser.error(f"--nranks must be comma-separated ints, "
                     f"got {args.nranks!r}")
    if not nranks_list or any(n < 1 for n in nranks_list):
        parser.error("--nranks needs at least one positive worker count")

    if args.recover and any(n < 2 for n in nranks_list):
        parser.error("--recover needs every --nranks >= 2: a sole "
                     "worker's crash leaves no survivors to recover onto")

    print(f"chaos conformance sweep: seed={args.seed} "
          f"programs={args.programs} nranks={nranks_list} "
          f"chaos={args.chaos}"
          f"{' strict' if args.strict else ''}"
          f"{' recover' if args.recover else ''}"
          f"{f' backend={args.backend}' if args.backend else ''}")

    failures = run_sweep(args.seed, args.programs, nranks_list,
                         chaos_mode=args.chaos, max_steps=args.max_steps,
                         timeout=args.timeout, strict=args.strict,
                         shrink=not args.no_shrink,
                         max_failures=args.max_failures,
                         log=print, recover=args.recover,
                         backend=args.backend)

    checked = args.programs * len(nranks_list)
    if failures:
        print(f"RESULT: {len(failures)} failure(s) out of {checked} "
              f"program-runs")
        if args.repro_out:
            doc = failures[0].to_dict()
            # attach the crash flight recording: the window covers the
            # post-shrink replay of the minimal program, and last_fault
            # carries the causal op_id + per-rank pending snapshot taken
            # at the moment the injected fault fired
            from ..trace import TRACER
            flight_path = None
            if TRACER.recording:
                try:
                    flight_path = TRACER.dump(args.repro_out
                                              + ".flight.json")
                except OSError:
                    flight_path = None
            doc["flight_dump"] = flight_path
            doc["last_fault"] = TRACER.last_fault
            with open(args.repro_out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True, default=str)
            print(f"shrunk repro written to {args.repro_out}")
            if flight_path:
                print(f"flight recorder dump written to {flight_path}")
        return 1
    print(f"RESULT: OK ({checked} program-runs conformant)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
