"""The vorfeld benchmark: closed-loop passes over three workloads.

    python3 perfbench/run.py --workload corpus|adjunct|trace
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports the parser from
``src`` and builds nothing.  One client, one process, one thread: each
pass runs the workload's whole input set once in a fresh interpreter
(``worker.py``), and the next pass starts when it has finished.  Passes
repeat while the next one is expected to end within ``--seconds``; at
least one always runs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of traced passes, which alternate with untraced ones so that the
tracing overhead (traced minus untraced pass wall time) is measured in the
same run.  Outputs are checked after every sentence, outside its timed
region; a failed check counts in ``failed``.  Everything a run measured,
including its generated sentences and span aggregates, is written to
``perfbench/results/``.  See ``perfbench/README.md`` for the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Optional

import reference
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("corpus", "adjunct", "trace")
PASS_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(samples: list[float]) -> Optional[tuple[float, float]]:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[int(n * p / 100.0)]
    return None


def host_scale(p: dict) -> tuple[float, float]:
    """Factors that bring a pass's wall and CPU timings to the reference host speed."""
    return tuple(reference.NOMINAL_MS / statistics.median(ms for point in p[key] for ms in point)
                 for key in ("ref_wall_ms", "ref_cpu_ms"))


def run_worker(workload: str, inputs: dict, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    job = json.dumps({"workload": workload, "inputs": inputs, "traced": traced})
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=job,
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    outcome = json.loads(proc.stdout)
    outcome["pass_wall_s"] = time.perf_counter() - started
    outcome["traced"] = traced
    return outcome


def run_passes(workload: str, inputs: dict, seconds: float, traced: bool) -> list[dict]:
    """Closed loop of fresh-interpreter passes; traced runs alternate with untraced."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        want_traced = traced and len(passes) % 2 == 1
        passes.append(run_worker(workload, inputs, want_traced))
        elapsed = time.perf_counter() - start
        expected = statistics.median([p["pass_wall_s"] for p in passes])
        enough = not traced or any(p["traced"] for p in passes)
        if enough and elapsed + expected > seconds:
            return passes


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Metrics users see, from untraced passes, and details printed beside them.

    Every timing is first scaled to the reference host speed with its own
    pass's factors (``host_scale``); then a sentence's time, the set-up time
    and the CPU time are each the median over the run's passes.
    """
    plain = [p for p in passes if not p["traced"]]
    scales = [host_scale(p) for p in plain]
    scaled = [[ms * wall for ms in p["wall_ms"]] for p, (wall, _cpu) in zip(plain, scales)]
    per_sentence = [statistics.median(times) for times in zip(*scaled)]
    pooled = [ms for times in scaled for ms in times]
    p50 = statistics.median(per_sentence)
    percentile, tail_ms = tail(pooled) or (50.0, p50)
    sentences = len(per_sentence)
    attempted = sum(len(p["wall_ms"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] * wall
                                      for p, (wall, _cpu) in zip(plain, scales)), "s"),
        "sentences_per_s": (sentences / (sum(per_sentence) / 1000.0), "1/s"),
        "cpu_ms_per_sentence": (statistics.median(p["cpu_ms"] * cpu
                                                  for p, (_wall, cpu) in zip(plain, scales))
                                / sentences, "ms"),
        "sentence_ms_p50": (p50, "ms"),
        "sentence_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        "passed_ratio": (1.0 - failed / attempted, "ratio"),
    }
    raw_per_sentence = [statistics.median(times) for times in zip(*(p["wall_ms"] for p in plain))]
    details = {"tail_percentile": percentile, "latency_samples": len(pooled),
               "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
               "untraced_passes": len(plain),
               "host_scale_median": statistics.median(wall for wall, _cpu in scales),
               "raw_sentence_ms_p50": statistics.median(raw_per_sentence),
               "raw_setup_s": statistics.median(p["setup_s"] for p in plain)}
    return metrics, details


def per_layer(workload: str, passes: list[dict]) -> tuple[dict, list[str]]:
    """Metrics of traced passes: counts must agree, times are medians."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    problems = []
    per_pass = [tracer.layer_metrics(p["setup"], p["work"]) for p in traced]
    for p in traced:
        missing = tracer.missing_spans(workload, p["setup"], p["work"])
        if missing:
            problems.append("no spans for predicted layers: " + ", ".join(missing))
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "ms":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (value, unit)
    traced_ms = statistics.median(sum(p["wall_ms"]) * host_scale(p)[0] for p in traced)
    plain_ms = statistics.median(sum(p["wall_ms"]) * host_scale(p)[0] for p in plain)
    metrics["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_ms - plain_ms) / plain_ms, "%")
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    inputs = workloads.make_inputs(workload, seed)
    passes = run_passes(workload, inputs, seconds, traced)
    e2e, details = end_to_end(passes)
    problems = [f for p in passes for f in p["problems"]]
    layers = {}
    if traced:
        layers, tracer_problems = per_layer(workload, passes)
        problems.extend(tracer_problems)

    readings = details["readings"] = passes[0]["readings"]  # empty in trace mode
    for sentence, count in zip(inputs.get("sentences", []), readings):
        print(f"  {count:3d} readings  {' '.join(sentence['tokens'])}")
    with_readings = f" ({sum(r > 0 for r in readings)} with readings)" if readings else ""
    print(f"workload {workload}  seed {seed}  sentences {len(passes[0]['wall_ms'])}"
          f"{with_readings}  untraced passes {details['untraced_passes']}  "
          f"traced passes {len(passes) - details['untraced_passes']}")
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "sentence_ms_tail":
            note = (f"  (p{details['tail_percentile']:g} of "
                    f"{details['latency_samples']} latency samples)")
        elif name in ("setup_s", "sentences_per_s", "cpu_ms_per_sentence", "sentence_ms_p50"):
            note = f"  (median of {details['untraced_passes']} passes)"
        print(f"  {name:24s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_ratio':24s} {details['failed_ratio']:14.6g} ratio")
    print(f"  unscaled: sentence_ms_p50 {details['raw_sentence_ms_p50']:.6g} ms, "
          f"setup_s {details['raw_setup_s']:.6g} s; host scale {details['host_scale_median']:.4g} "
          f"(reference chunk {reference.NOMINAL_MS / details['host_scale_median']:.4g} ms, "
          f"nominal {reference.NOMINAL_MS:g} ms)")
    for name, (value, unit) in layers.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")

    chosen = layers if traced else e2e
    result = {
        "correct": not problems,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
                   "inputs": inputs, "result": result, "details": details,
                   "end_to_end": {k: v[0] for k, v in e2e.items()},
                   "problems": problems, "passes": passes}, handle, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vorfeld", "__init__.py")):
        print(f"error: no vorfeld sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
