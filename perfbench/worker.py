"""Closed-loop op runner: one process, one thread, next op after the last returns.

    python3 worker.py SPEC.json

SPEC names the crsdiag source directory, the ops, a results file and either
a time budget ("seconds") or an op count ("limit"); the ops repeat in order
until one of them is reached.  Each op is one crsdiag.cli.main(argv) call
with stdout and stderr captured; only that call is timed, both in wall-clock
time ("wall") and in this thread's CPU time ("cpu").  A fixed piece of
reference work (refwork.py) is timed in CPU time just before each op
("ref").  One JSON line per op goes to the results file.  A summary JSON object goes to stdout;
with "trace" set it carries the per-layer metrics and the spans are
written to "spans".
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from refwork import reference_work


def peak_rss_kb():
    """This process's peak resident set, in KiB.

    VmHWM belongs to the address space, which exec replaces; ru_maxrss
    also keeps the peak of the parent that forked this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(spec):
    sys.path.insert(0, spec["src"])
    import crsdiag.cli as cli

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    ops = spec["ops"]
    seconds, limit = spec.get("seconds"), spec.get("limit")
    stdout_bytes = 0
    done = 0
    cycle_peak = None
    with open(spec["results"], "w", encoding="utf-8") as results:
        start = time.perf_counter()
        while True:
            if limit is not None and done >= limit:
                break
            if limit is None and time.perf_counter() - start >= seconds:
                break
            op = ops[done % len(ops)]
            t_ref = time.thread_time()
            reference_work()
            ref = time.thread_time() - t_ref
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = done
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0, c0 = time.perf_counter(), time.thread_time()
                try:
                    rc, exc = cli.main(op["argv"]), None
                except SystemExit as stop:
                    rc, exc = stop.code, "SystemExit"
                except Exception as error:  # an escaping exception is a failed op
                    rc, exc = None, type(error).__name__
                cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
            text = out.getvalue()
            stdout_bytes += len(text.encode())
            if op.get("save") and rc == 0:
                with contextlib.suppress(ValueError, KeyError, TypeError):
                    with open(op["save"], "w", encoding="utf-8") as handle:
                        handle.write(json.loads(text)["dsl"])
            results.write(json.dumps({"i": done, "op": done % len(ops), "rc": rc, "exc": exc,
                                      "ref": ref, "cpu": cpu, "wall": wall,
                                      "out": text}) + "\n")
            done += 1
            if done == len(ops):
                cycle_peak = peak_rss_kb()
        wall = time.perf_counter() - start

    # the resident set creeps by about a MB per cycle as the heap fragments,
    # so the peak is taken over the first cycle, which every op is part of
    summary = {"ops": done, "wall": wall, "peak_rss_kb": cycle_peak or peak_rss_kb()}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["cli.stdout_bytes"] = stdout_bytes
        summary["layers"] = layers
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            for name, start_ns, end_ns, _outer, parent, op_id in tracer.spans:
                handle.write(f"{name},{start_ns},{end_ns},{parent},{op_id}\n")
    return summary


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        print(json.dumps(run(json.load(handle))))
