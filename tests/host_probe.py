"""The host arithmetic that the golden bytes rest on, as named results on fixed inputs.

Every golden output file depends on this host's BLAS and libm rounding:
the FMA chain of a short ``np.dot``, OpenBLAS's syrk order, the C
library's ``sin``, ``cos``, ``asin``, ``pow``, ``log`` and ``exp``, and the
per-element kernel ``dataset.elementwise`` rounding as they do. The
``validation_summary.csv`` files also depend on SciPy's ``stdtrit``, which
is not correctly rounded.
:func:`probe` evaluates each of these on fixed inputs and returns its result
as hex floats or a boolean. ``golden/host_probe.json`` holds the results of
the host that captured the goldens, and ``test_golden`` compares them before
any output byte, so that on another host a golden test names the assumption
that fails rather than a byte that moved. Print this host's results, in the
form of that file, with::

    PYTHONPATH=src python tests/host_probe.py
"""

from __future__ import annotations

import json
import math
import platform
from fractions import Fraction

import numpy as np

from shale_adsorb.dataset import elementwise

#: Each kernel ufunc, the ``math`` or builtin call it must round as, and a
#: seeded argument drawer over the ranges the package reaches.
KERNEL_CASES = {
    "arcsin": (np.arcsin, math.asin, lambda rng, n: rng.uniform(0.0, 1.0, n)),
    "sin": (np.sin, math.sin, lambda rng, n: rng.uniform(-math.pi, math.pi, n)),
    "cos": (np.cos, math.cos, lambda rng, n: rng.uniform(-math.pi / 2, math.pi / 2, n)),
    "log": (np.log, math.log, lambda rng, n: np.exp(rng.uniform(-12.0, 12.0, n))),
    "exp": (np.exp, math.exp, lambda rng, n: rng.uniform(-50.0, 50.0, n)),
}


def fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, as a fused multiply-add rounds it."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def kernel_mismatches(ufunc: np.ufunc, call, args: np.ndarray, *exponent: float) -> list[float]:
    """The arguments on which ``elementwise(ufunc, args, *exponent)`` differs in bits from ``call`` of each.

    Where ``call`` raises instead, the kernel must give what it gives: an
    infinity for an ``OverflowError`` (or the ``ZeroDivisionError`` of
    ``0.0 ** -1``), NaN or ``-inf`` for a ``ValueError`` (``log(0.0)``).
    """
    mismatches = []
    for x, value in zip(args.tolist(), elementwise(ufunc, args, *exponent).tolist()):
        try:
            same = call(x).hex() == value.hex()
        except (OverflowError, ZeroDivisionError):
            same = math.isinf(value)
        except ValueError:
            same = math.isnan(value) or value == -math.inf
        if not same:
            mismatches.append(x)
    return mismatches


def _hex(values) -> str:
    return " ".join(float(value).hex() for value in np.ravel(values))


def probe() -> dict[str, str | bool]:
    """Each assumption of the goldens, by name, evaluated on fixed seeded inputs."""
    rng = np.random.default_rng(16)
    rows, w = rng.normal(size=(1000, 3)) * [1.0, 30.0, 0.01], rng.normal(size=3)
    x700 = rng.normal(size=(700, 4)) * [1.0, 1e3, 1e-3, 7.0]
    x1500 = rng.normal(size=(1500, 3)) * [1.0, 1e2, 1e-2]
    wide = np.pad(x1500, ((0, 0), (0, 1)))
    results: dict[str, str | bool] = {
        "np.dot of 3-vectors equals the FMA chain": all(
            float(np.dot(row, w)) == fma(row[2], w[2], fma(row[1], w[1], row[0] * w[0])) for row in rows.tolist()),
        "syrk of 700x4": _hex((x700.T @ x700)[np.triu_indices(4)]),
        "syrk of 700x4 equals gemm on a transposed copy": bool(np.array_equal(x700.T @ x700,
                                                                              x700.T.copy() @ x700)),
        "padded syrk block of 1500x3 equals its 3-column syrk": bool(np.array_equal((wide.T @ wide)[:3, :3],
                                                                                    x1500.T @ x1500)),
    }
    args = rng.uniform(0.05, 0.95, 8)
    for name, (_, call, _) in KERNEL_CASES.items():
        results[f"math.{call.__name__}"] = _hex([call(x) for x in (args * 3.0 if name == "log" else args).tolist()])
    results["pow"] = _hex([pow(d, e) for d in (args * 1e6).tolist() for e in (-2.0, 3.0)])
    for name, (ufunc, call, draw) in KERNEL_CASES.items():
        results[f"elementwise {name} equals math.{call.__name__}"] = not kernel_mismatches(ufunc, call,
                                                                                          draw(rng, 4096))
    for e in (2.0, 3.0, -2.0):
        results[f"elementwise power {e!r} equals pow"] = not kernel_mismatches(
            np.power, lambda x, e=e: x ** e, rng.uniform(-1e4, 1e4, 4096), e)
    from scipy.special import stdtrit

    results["scipy.special.stdtrit"] = _hex([stdtrit(df, p) for df in (1, 4, 29, 47, 300, 1e6)
                                             for p in (0.55, 0.95, 0.995)])
    return results


def versions() -> dict[str, str]:
    """The Python, NumPy, BLAS and SciPy versions, named in a failure message only."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "scipy": scipy.__version__}


if __name__ == "__main__":
    print(json.dumps({"probes": probe(), "versions": versions()}, indent=2))
