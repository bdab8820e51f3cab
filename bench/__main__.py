"""Command line of the benchmark: ``run``, ``trace``, ``compare``, ``selftest``."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench import spec

sys.path.insert(0, str(spec.ROOT / "src"))


def run_one(args):
    """One workload in this process (so peak RSS and GC state are its
    own); the last line of stdout is the driver's result object."""
    from bench import harness

    runner = harness.traced if args.trace else harness.measure
    result = runner(args.workload, args.seed, args.seconds, quick=args.quick)
    if args.out:
        Path(args.out).write_text(json.dumps(result))
    harness.render(args.workload, result)
    print(json.dumps(harness.contract_line(result, args.trace)))
    return 0 if result["correct"] else 1


def merged(untraced, traced):
    """One workload's entry of the result file: the untraced run's
    end-to-end metrics and counts, the traced run's times and spans."""
    entry = {**traced, **untraced}
    entry["per_layer"] = {**traced["per_layer"], **untraced["per_layer"]}
    entry["attempted"] = untraced["attempted"] + traced["attempted"]
    entry["failed"] = untraced["failed"] + traced["failed"]
    entry["failures"] = untraced["failures"] + traced["failures"]
    entry["correct"] = untraced["correct"] and traced["correct"]
    entry["noisy"] = untraced["noisy"] or traced["noisy"]
    return entry


def run_all(args):
    """Every workload, untraced then traced, one child process each; the
    result file is what ``compare`` reads."""
    from bench import harness

    spec.RESULTS.mkdir(exist_ok=True)
    tag = "quick" if args.quick else "run"
    out = Path(args.out or spec.RESULTS / f"{tag}-seed{args.seed}.json")
    results = {
        "schema": 1,
        "stamp": harness.stamp(args.seed, args.seconds, args.quick),
        "workloads": {},
    }
    for name in spec.WORKLOADS:
        parts = []
        for trace_mode in (0, 1):
            part = spec.RESULTS / f".{name}.{trace_mode}.json"
            command = [
                sys.executable, "-m", "bench", "run", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace_mode), "--out", str(part),
            ] + (["--quick"] if args.quick else [])
            child = subprocess.run(command, cwd=spec.ROOT, capture_output=True, text=True)
            if not part.exists():
                sys.stderr.write(child.stdout + child.stderr)
                print(f"{name}: the {'traced' if trace_mode else 'untraced'} run died "
                      f"(exit {child.returncode})")
                return 1
            parts.append(json.loads(part.read_text()))
            part.unlink()
        results["workloads"][name] = entry = merged(*parts)
        harness.render(name, entry)
    out.write_text(json.dumps(results, indent=1))
    print(f"results written to {out}")
    return 0 if all(w["correct"] for w in results["workloads"].values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure one workload or all of them")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced run (per-layer metrics) instead of the untraced one")
    tracecmd = commands.add_parser("trace", help="traced run of one workload")
    tracecmd.add_argument("--workload", required=True)
    tracecmd.set_defaults(trace=1, all=False)
    for sub in (run, tracecmd):
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=int, default=10,
                         help="measured length the trials are sized for")
        sub.add_argument("--quick", action="store_true",
                         help="smoke run: 1 trial of one-tenth the ops")
        sub.add_argument("--out", help="write the result JSON here")

    compare = commands.add_parser("compare", help="verdict per (workload, metric)")
    compare.add_argument("a")
    compare.add_argument("b")
    commands.add_parser("selftest", help="harness self-checks, no timing assertions")

    args = parser.parse_args(argv)
    if not (spec.ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: the program under test is missing ({spec.ROOT / 'src' / 'repro'})")
    if args.command == "compare":
        from bench import compare as compare_module

        return compare_module.main(args.a, args.b)
    if args.command == "selftest":
        from bench import selftest

        return selftest.main()
    if not args.all and args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(spec.WORKLOADS)}")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
