"""One pass of one workload in a fresh interpreter, as a CLI user pays it.

Usage: python3 passrun.py --workload NAME --inp DIR --out DIR --seed N
                          --trace 0|1 --result FILE [--cpu K]

The pass first times ``import phraseseg.cli`` (the set-up every CLI call
pays), then runs the workload's commands in-process through
``phraseseg.cli.main(argv)``, one after another, and writes a JSON result:
per-command seconds and exit codes, sha256 of every output file, output
check problems, peak RSS and, when traced, per-layer metrics and spans.
"""

import os
import sys
import time

if "--cpu" in sys.argv:  # pin before anything is timed
    os.sched_setaffinity(0, {int(sys.argv[sys.argv.index("--cpu") + 1])})

_t0 = time.perf_counter()
import phraseseg.cli as cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _time_steps(samples: list):
    """The one thin wrapper of an untraced pass: per-call Tracker.step latency."""
    from phraseseg import tracker

    step = tracker.Tracker.step

    def timed(self, *args, **kwargs):
        t = time.perf_counter()
        try:
            return step(self, *args, **kwargs)
        finally:
            samples.append(time.perf_counter() - t)

    tracker.Tracker.step = timed


def run_pass(workload, inp: str, out: str, seed: int, traced: bool) -> dict:
    with open(os.path.join(inp, "facts.json"), encoding="utf-8") as f:
        facts = json.load(f)
    tracer = tracing.Tracer() if traced else None
    step_s: list[float] = []
    if tracer:
        tracer.install()
    else:
        _time_steps(step_s)

    commands = []
    failed_at = None
    for step in workload.steps(inp, out, seed):
        if failed_at is not None:
            if isinstance(step, workloads.Command):
                commands.append({"label": step.label, "rc": None, "seconds": None})
            continue
        if not isinstance(step, workloads.Command):
            try:
                step()
            except Exception:
                traceback.print_exc()
                failed_at = "glue"
            continue
        t = time.perf_counter()
        try:
            rc = cli.main(list(step.argv))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - t
        record = {"label": step.label, "rc": rc, "seconds": seconds, "digests": {}}
        if rc == 0:
            record["digests"] = {os.path.basename(p): _sha256(p) for p in step.outputs}
        else:
            failed_at = step.label
        commands.append(record)

    problems = []
    if failed_at is None:
        try:
            problems = workload.check(out, facts)
        except Exception as exc:  # a malformed report is a wrong output
            traceback.print_exc()
            problems = [(commands[-1]["label"], f"output check raised {exc!r}")]

    result = {
        "traced": traced,
        "setup_s": SETUP_S,
        "commands": commands,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_s": step_s,
        "phraseseg_file": os.path.abspath(sys.modules["phraseseg"].__file__),
    }
    if tracer:
        tracer.uninstall()
        wall_s = sum(c["seconds"] or 0.0 for c in commands)
        result["layers"] = tracing.layer_metrics(tracer, wall_s)
        result["trace_missing"] = tracer.missing
        tracer.save(os.path.join(out, "spans.npz"))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--cpu", type=int, help="run pinned to this CPU")
    args = p.parse_args(argv)
    result = run_pass(workloads.WORKLOADS[args.workload], args.inp, args.out, args.seed,
                      bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
