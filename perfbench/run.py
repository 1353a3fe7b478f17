"""Seeded end-to-end and per-layer benchmark of the phraseseg CLI.

Run from the repository root:

    python3 perfbench/run.py --workload image-crowded --seed 1 --seconds 36 --trace 0

Inputs are generated from the seed (``workloads.py``); then passes of the
workload's commands run one after another, each in a fresh interpreter
(``passrun.py``), until ``--seconds`` of passes have been measured. With
``--trace 0`` the passes are untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported. Every metric is printed by name with its
unit; the last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A command counts as failed on a nonzero exit, a failed output check, or an
output whose sha256 differs from the reference: ``digests.json`` for the
default seed, the run's first pass for any other seed.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
RUN_LIMIT_S = 170  # a run, passes included, must end before the 180 s cap

TAIL_SAMPLES = 10  # a percentile is reported only with this many samples beyond it


def percentile(samples, pct: int) -> tuple[float, int]:
    """Nearest-rank ``pct``-th percentile and the number of samples above its
    rank. Integer arithmetic keeps the rank exact: with 200 samples the 95th
    percentile is the 190th smallest and 10 samples lie beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], n - rank


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "loadavg_at_start": _read_first("/proc/loadavg"),
    }


def _run_pass(workload: str, inp: str, out: str, seed: int, cpu: int, traced: bool,
              timeout: float) -> dict:
    os.makedirs(out)
    result_path = out + ".json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload,
            "--inp", inp, "--out", out, "--seed", str(seed), "--trace", str(int(traced)),
            "--result", result_path, "--cpu", str(cpu)]
    t = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, timeout=timeout, stdout=subprocess.DEVNULL)
        rc = proc.returncode
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        rc = "timeout"
    elapsed = time.perf_counter() - t
    result = None
    if rc == 0:
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
        if not result["phraseseg_file"].startswith(SRC + os.sep):
            raise SystemExit(f"pass imported phraseseg from {result['phraseseg_file']}")
    spans = os.path.join(out, "spans.npz")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(os.path.dirname(out), "spans-last-traced.npz"))
    shutil.rmtree(out)
    return {"rc": rc, "elapsed": elapsed, "cpu": cpu, "traced": traced, "result": result}


def _judge(passes: list, labels: list, expected) -> tuple[int, int, list]:
    """Count attempted and failed commands over every pass. ``expected`` maps
    output file names to sha256; None pins the first digest seen instead."""
    reference = {} if expected is None else expected
    attempted = failed = 0
    notes = []
    for k, p in enumerate(passes):
        if p["result"] is None:
            attempted += len(labels)
            failed += len(labels)
            notes.append(f"pass {k}: interpreter exited with {p['rc']}")
            continue
        bad = dict(p["result"]["problems"])
        for cmd in p["result"]["commands"]:
            attempted += 1
            label = cmd["label"]
            if cmd["rc"] != 0:
                bad.setdefault(label, f"exit code {cmd['rc']}")
            for name, digest in cmd.get("digests", {}).items():
                want = reference.setdefault(name, digest) if expected is None \
                    else reference.get(name)
                if digest != want:
                    bad.setdefault(label, f"{name} sha256 {digest} != reference {want}")
            if label in bad:
                failed += 1
                kind = "traced" if p["traced"] else "untraced"
                notes.append(f"pass {k} ({kind}) {label}: {bad[label]}")
    return attempted, failed, notes


def _load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def _median(values):
    return statistics.median(values) if values else 0.0


def _wall(result: dict) -> float:
    """Seconds inside the pass's CLI commands; benchmark glue is excluded."""
    return sum(c["seconds"] or 0.0 for c in result["commands"])


def _run_passes(wl, inp: str, work: str, seed: int, trace: bool, seconds: float,
                started: float) -> list:
    # The CPUs of a shared machine can differ in speed for many seconds at a
    # time, so untraced passes go in rounds of one pass pinned to each CPU and
    # a median over whole rounds weighs every CPU equally. Traced and untraced
    # passes share one CPU, so their ratio compares like with like.
    cpus = sorted(os.sched_getaffinity(0))
    schedule = [(cpus[0], False), (cpus[0], True)] if trace else [(c, False) for c in cpus]
    passes = []
    t0 = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for cpu, traced in schedule:
            budget = RUN_LIMIT_S - (time.perf_counter() - started)
            passes.append(_run_pass(wl.name, inp, os.path.join(work, f"pass-{len(passes)}"),
                                    seed, cpu, traced, budget))
            if passes[-1]["result"] is None:
                return passes
        now = time.perf_counter()
        round_s = now - round_start
        if now - t0 + round_s > seconds or now - started + round_s > RUN_LIMIT_S:
            return passes


def _end_to_end(untraced: list) -> dict:
    return {
        "setup_s": (_median([r["setup_s"] for r in untraced]), "s"),
        "wall_s": (_median([_wall(r) for r in untraced]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in untraced]), "MB"),
    }


def _per_layer(traced: list, untraced: list) -> dict:
    from tracing import PER_LAYER_UNITS

    values = {name: _median([r["layers"][name] for r in traced])
              for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    untraced_wall = _median([_wall(r) for r in untraced])
    values["trace.overhead_frac"] = (
        _median([_wall(r) for r in traced]) / untraced_wall - 1.0 if untraced_wall else 0.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def _printed_only(untraced: list, labels: list, attempted: int, failed: int) -> dict:
    """Per-command and per-frame figures. They are printed but are not JSON
    metrics, because each exists on one workload only."""
    out = {}
    for label in labels:
        secs = [c["seconds"] for r in untraced for c in r["commands"]
                if c["label"] == label and c["seconds"] is not None]
        out[f"{label}_s"] = (_median(secs), "s")
    steps = [s for r in untraced for s in r["step_s"]]
    if steps:
        out["track_step_samples"] = (len(steps), "count")
        for pct in (50, 95):
            value, beyond = percentile(steps, pct)
            if beyond >= TAIL_SAMPLES:
                out[f"track_step_p{pct}_ms"] = (1000.0 * value, "ms")
    out["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    return out


def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (imports phraseseg lazily, from SRC)

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests as the default-seed reference")
    args = p.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "phraseseg", "cli.py")):
        print(f"benchmark: no phraseseg sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    facts = machine_facts()
    work = os.path.join(WORK, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    inp = os.path.join(work, "inputs")
    os.makedirs(inp)
    # Bytecode is compiled once at install time for a CLI user, so compile it
    # here too instead of charging it to the first pass's set-up.
    compileall.compile_dir(os.path.join(SRC, "phraseseg"), quiet=1)
    inputs = wl.generate(args.seed, inp)
    with open(os.path.join(inp, "facts.json"), "w", encoding="utf-8") as f:
        json.dump(inputs, f)

    passes = _run_passes(wl, inp, work, args.seed, bool(args.trace), args.seconds, started)
    labels = [s.label for s in wl.steps(inp, work, args.seed) if isinstance(s, workloads.Command)]
    expected = None  # other seeds: every pass must match the first
    if args.seed == workloads.DEFAULT_SEED and not args.record_digests:
        expected = _load_digests().get(wl.name, {})
    attempted, failed, notes = _judge(passes, labels, expected)

    ok = [q["result"] for q in passes if q["result"] is not None]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    digests = {n: d for c in (ok[0]["commands"] if ok else []) for n, d in c["digests"].items()}
    metrics = _per_layer(traced, untraced) if args.trace else _end_to_end(untraced)
    printed = _printed_only(untraced, labels, attempted, failed)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace} "
          f"passes {len(untraced)} untraced, {len(traced)} traced")
    print("why " + wl.why)
    print("facts " + json.dumps(facts, sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    for name, digest in sorted(digests.items()):
        print(f"digest {name} {digest}")
    for note in notes:
        print("FAILED " + note)
    missing = sorted({m for r in traced for m in r["trace_missing"]})
    if missing:
        print("trace targets not found: " + ", ".join(missing))
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"metric {name} {value!r} {unit}")

    if args.record_digests and args.seed == workloads.DEFAULT_SEED and failed == 0:
        table = _load_digests()
        table[wl.name] = digests
        with open(DIGESTS, "w", encoding="utf-8") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")

    summary = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "facts": facts,
               "inputs": inputs, "digests": digests, "failures": notes,
               "metrics": metrics, "printed": printed, "passes": passes}
    with open(os.path.join(work, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
