"""Fresh-interpreter probe, run by ``run.py`` to time set-up and to check
that a new process writes the same bytes.

Usage: ``python3 -B probe.py PACKAGE_PARENT ARGV_JSON``. Times the import of
``shale_adsorb.cli`` from PACKAGE_PARENT and then the one ``cli.main`` call
given as a JSON list, then samples the reference kernel of ``calibrate.py``
once, and prints ``{"import_s", "first_op_s", "code", "kernel_s"}`` as JSON
on standard output.
"""

import contextlib
import io
import json
import sys
import time


def main() -> None:
    package_parent, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, package_parent)
    start = time.perf_counter()
    from shale_adsorb import cli
    imported = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    done = time.perf_counter()
    if not cli.__file__.startswith(package_parent):
        raise SystemExit(f"imported {cli.__file__}, not the copy under {package_parent}")
    import calibrate  # only now, so that its numpy import is not timed above
    cal = calibrate.Calibrator()
    cal.sample()
    print(json.dumps({"import_s": imported - start, "first_op_s": done - imported, "code": code,
                      "kernel_s": cal.samples[0]}))


if __name__ == "__main__":
    main()
