"""Print, as one JSON line, the library versions and BLAS threading a child sees.

It imports `lslkit.cli` and parses the config given as its argument, so
running it first also leaves the byte-code caches warm for the timed
set-up runs.
"""

import ctypes
import json
import platform
import sys

import numpy
import scipy

import lslkit.cli
from lslkit.config import parse_config

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_threads() -> tuple[str | None, int | None]:
    """Loaded BLAS library and its thread count, read through ctypes."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle
                       if "blas" in line.lower() or "mkl_rt" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                return path.rsplit("/", 1)[-1], int(getattr(lib, symbol)())
    return (libs[0].rsplit("/", 1)[-1] if libs else None), None


def main() -> None:
    parse_config(sys.argv[1])
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    library, threads = blas_threads()
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lslkit": lslkit.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": library,
        "blas_threads": threads,
    }))


if __name__ == "__main__":
    main()
