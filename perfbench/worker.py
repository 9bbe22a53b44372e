"""One measured pass of a workload, in the fresh interpreter it runs in.

Reads a job (workload name, inputs, traced flag) as JSON on stdin and
writes one JSON result on stdout.  Set-up is timed as what a user pays
before the first sentence: ``import vorfeld`` plus ``load_fragment()``.
Every pass gets its own interpreter, so module-level state such as the
trace-mode memo in ``vorfeld.grammar`` starts cold, as it does for a CLI
user.  Chunks of ``reference.py`` are timed before set-up and during the
pass (see ``workloads.run_pass``), so that ``run.py`` can scale the pass's
timings to a fixed host speed.  Run by ``run.py`` with ``src`` on ``PYTHONPATH``.
"""
import json
import resource
import sys
import time

import reference


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    host = {}
    reference.sample(host)
    start = time.perf_counter()
    import vorfeld  # noqa: F401  (part of the timed set-up)
    if job["traced"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.active = True
    from vorfeld import lexicon as lexicon_module

    lexicon = lexicon_module.load_fragment()
    setup_s = time.perf_counter() - start

    traced_setup = None
    if tracer is not None:
        tracer.active = False
        traced_setup = tracer.take()
    import vorfeld.cli  # noqa: F401  (imported by the CLI before any parse)
    import workloads

    outcome = workloads.run_pass(job["workload"], job["inputs"], lexicon, host, tracer)
    outcome["setup_s"] = setup_s
    outcome["ref_wall_ms"] = host["wall_ms"]
    outcome["ref_cpu_ms"] = host["cpu_ms"]
    outcome["setup"] = traced_setup
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(outcome, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
