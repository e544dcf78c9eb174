"""One workload iteration: a fresh process that sets up, then runs one command.

Usage: python3 bench/workload.py JOB.json   (run.py writes the job file)

The job names the space, the ``qk`` arguments and the files to use.  The
process imports qkcomin, builds or loads the restriction tables of X and of
every Y_d in both orientations (the timed set-up), then runs the command
through ``qkcomin.cli.main`` and writes the sha256 of every output line,
its timings and, when traced, its layer metrics to the job's result file.
Run with ``PYTHONPATH=src`` and a private ``QK_CACHE_DIR``.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import time
import traceback


def setup_shapes(space) -> list:
    """X and every Y_d the degree series can reach, without repeats."""
    from qkcomin.quantum import kernel_span_shapes

    shapes = [space.shape]
    for d in range(1, max(space.m, space.n - space.m) + 2):
        y = kernel_span_shapes(space, d)[0]
        if y not in shapes:
            shapes.append(y)
    return shapes


def cache_files(cache_dir: str) -> list:
    return sorted(os.path.basename(p) for p in glob.glob(os.path.join(cache_dir, "restrict_*.json")))


def line_digests(text: str) -> list:
    return [hashlib.sha256(line.encode()).hexdigest() for line in text.splitlines()]


def main(job_path: str) -> None:
    t0 = time.perf_counter()
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    cache_dir = os.environ["QK_CACHE_DIR"]
    result = {"cache_before": cache_files(cache_dir)}

    from qkcomin import cli
    from qkcomin.gkm import OPPOSITE, PLAIN
    from qkcomin.quantum import get_space

    import_s = time.perf_counter() - t0
    m, n = job["space"]
    space = get_space(m, n, job["equivariant"], True)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer, space, job["worker_dir"])

    shapes = setup_shapes(space)
    for shape in shapes:
        model = space.model if shape == space.shape else space.submodel(shape)
        model.table(PLAIN)
        model.table(OPPOSITE)
    result["setup_s"] = time.perf_counter() - t0
    result["tables_built"] = 2 * len(shapes)

    if job["mode"] == "run":
        if tracer is not None:
            tracer.root_s = 0.0
        buf = io.StringIO()
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(job["argv"])
        except Exception:
            traceback.print_exc()
            code = "exception"
        command_s = time.perf_counter() - t1
        text = buf.getvalue()
        if job.get("out_path") and os.path.exists(job["out_path"]):
            with open(job["out_path"], encoding="utf-8") as fh:
                text = fh.read()
        result.update(exit_code=code, command_s=command_s, import_s=import_s,
                      lines=line_digests(text))
        if tracer is not None:
            snaps = [tracer.snapshot()]
            for path in sorted(glob.glob(os.path.join(job["worker_dir"], "worker-*.json"))):
                with open(path, encoding="utf-8") as fh:
                    snaps.append(json.load(fh))
            merged = tracing.merge(snaps)
            result["layers"] = tracing.layer_metrics(merged, command_s, tracer.root_s, import_s)
            tracing.write_spans(merged["spans"], job["spans_path"])
    result["cache_after"] = cache_files(cache_dir)
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
