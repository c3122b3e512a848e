"""Run one ``holoflat`` CLI invocation in this fresh process and record timings.

Usage: ``python3 benchmarks/child.py RESULT.json MODE ARG...`` from the root
of a checkout, with MODE ``run``, ``trace`` or ``import``.  ``ARG...`` is
passed to ``holoflat.cli.run`` unchanged; the process exits with its return
code.  RESULT.json receives the monotonic clock reading when ``import
holoflat.cli`` returned, the span of ``run``, the BLAS in use and, in
``trace`` mode, every recorded span.  ``import`` mode stops after the import
and records only its time.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import holoflat.cli  # noqa: E402

T_IMPORTED = time.monotonic()


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "import":
        with open(result_path, "w") as fh:
            json.dump({"rc": 0, "imported": T_IMPORTED}, fh)
        return 0
    rec = None
    if mode == "trace":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    t0 = time.monotonic()
    rc = holoflat.cli.run(argv)
    t1 = time.monotonic()
    record = {
        "rc": rc,
        "imported": T_IMPORTED,
        "run_start": t0,
        "run_end": t1,
        "blas": _blas(),
    }
    if rec is not None:
        record["spans"] = rec.spans
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
