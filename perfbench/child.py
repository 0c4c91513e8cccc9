"""Run one ``gwsim`` CLI invocation and time ``cli.main`` from inside it.

    python3 child.py [--trace TRACE_PATH] [--provenance] SIDE_PATH -- ARGS...

The report goes to stdout exactly as ``gwsim ARGS...`` prints it. Afterwards
the child writes a JSON side file holding the ``cli.main`` time (stdout
flushed inside it), where ``gwsim`` was imported from and the numpy version;
with ``--provenance`` also numpy's BLAS build, and with ``--trace`` the spans
go to TRACE_PATH. ``run.py`` starts this script with ``PYTHONPATH`` pointing
at the checkout's ``src``.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, gwsim_args = argv[:split], argv[split + 1 :]
    trace_path = None
    provenance = False
    while len(options) > 1:
        flag = options.pop(0)
        if flag == "--trace":
            trace_path = options.pop(0)
        elif flag == "--provenance":
            provenance = True
        else:
            raise SystemExit(f"child.py: unknown option {flag!r}")
    (side_path,) = options

    import gwsim
    from gwsim import cli

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    status = cli.main(gwsim_args)
    sys.stdout.flush()
    main_s = time.perf_counter() - start

    import numpy as np

    side = {"main_s": main_s, "gwsim_file": gwsim.__file__, "numpy": np.__version__}
    if provenance:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        side["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
        side["python"] = sys.version.split()[0]
    if tracer is not None:
        tracer.dump(trace_path)
    with open(side_path, "w") as fh:
        json.dump(side, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
