"""Run one `qgal` command with the host speed sampler, and optionally the
layer tracer, installed.

    python3 perfbench/qgal_child.py [--trace] <out file> <operation id> <qgal args...>
    python3 perfbench/qgal_child.py <out file> --ready

It does what the `qgal` console script does, `sys.exit(qgal.cli.main())`.
With --ready it only imports qgal.cli and prints `ready`, which is the
set-up run.py times.  At exit it writes the kernel runs of the host
speed sampler, and with --trace its spans and counts, to the out file
for run.py to read.
"""

import json
import sys
import time

import hostspeed


def main():
    args = sys.argv[1:]
    traced = args[0] == "--trace"
    if traced:
        args = args[1:]
    out_path, op_id, argv = args[0], args[1], args[2:]
    sampler = hostspeed.Sampler()
    sampler.start()
    tracer = None
    if traced:
        from tracer import IMPORT_SPAN, Tracer

        tracer = Tracer(op_id + ":")
        tracer.begin(op_id)
    start = time.perf_counter()
    import qgal.cli

    code = 0
    try:
        if op_id == "--ready":
            print("ready", flush=True)
        else:
            if tracer:
                tracer.record(IMPORT_SPAN, start, time.perf_counter())
                tracer.install()
            code = qgal.cli.main(argv)
    finally:
        sampler.stop()
        out = {"calib": sampler.samples}
        if tracer:
            tracer.sample_memo()
            tracer.end()
            out.update(tracer.export())
        with open(out_path, "w") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
