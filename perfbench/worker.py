"""One workload run in a fresh interpreter: a closed loop over CLI calls.

Usage: python3 worker.py SPEC_JSON RESULT_JSON, from the run's work
directory with the program's `src` on PYTHONPATH. run.py writes the spec
and reads the result; the inputs already exist when this starts.

Untraced, the loop runs the spec's ops in order, one at a time, and
keeps cycling through them until `seconds` have passed and every op has
run once. Traced, it runs the first op three times: untraced, traced,
untraced again, so the tracing overhead is measured against the same
call on both sides.
"""

import json
import resource
import sys
import time
import traceback

import codel.cli as cli

from tracer import Tracer


def cpu_seconds():
    """CPU time of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_op(main, argv, out_dir):
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        code = main([*argv, "--out-dir", out_dir])
    except Exception:
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, cpu_seconds() - cpu, code


def capture_rr(sink):
    """Keep each record's recovered intervals for the accuracy check."""
    original = cli.signal_to_rr

    def signal_to_rr(*args, **kwargs):
        rr = original(*args, **kwargs)
        sink.append(rr.intervals.tolist())
        return rr

    cli.signal_to_rr = signal_to_rr
    return original


def main(spec_path, result_path):
    with open(spec_path) as f:
        spec = json.load(f)
    ops = spec["ops"]
    result = {"walls": [], "cpus": [], "codes": [], "out_dirs": [], "rr": []}

    def record(argv, main_fn=cli.main):
        out_dir = f"out/op{len(result['walls'])}"
        wall, cpu, code = run_op(main_fn, argv, out_dir)
        result["walls"].append(wall)
        result["cpus"].append(cpu)
        result["codes"].append(code)
        result["out_dirs"].append(out_dir)
        return wall

    if spec["trace"]:
        argv = ops[0]
        untraced = [record(argv)]
        tracer = Tracer()
        traced_main = tracer.install()
        traced = record(argv, traced_main)
        tracer.uninstall()
        untraced.append(record(argv))
        result["layers"] = tracer.layer_metrics(traced, sum(untraced) / len(untraced))
        result["unwrapped"] = tracer.missing + sorted(tracer.unobserved)
        tracer.write_spans(spec["spans_out"])
    else:
        deadline = time.perf_counter() + spec["seconds"]
        original = capture_rr(result["rr"]) if spec["capture_rr"] else None
        for argv in ops:
            record(argv)
        if original is not None:
            cli.signal_to_rr = original
        while time.perf_counter() < deadline:
            record(ops[len(result["walls"]) % len(ops)])

    result["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
