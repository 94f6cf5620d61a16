"""Noise control and machine description.  Imports neither numpy nor repro.

Measured on the 2-core reference box: with default BLAS threading
``soi_fft`` at N=2^16 spreads 6-140 ms call to call; with the three
thread pins below it is 8.3-9.9 ms.  The pins only take effect when set
before numpy loads its BLAS, hence :func:`prepare` refuses to run late.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: glibc ``mallopt`` settings (parameter number, value): keep freed blocks of
#: up to 32 MiB (the most glibc allows) in the heap and never trim it, so a
#: warm program stops taking page faults.  On the reference VM the cost of a
#: fault moves by two orders of magnitude: ``seq_soi_batch`` spent 0-48% of a
#: burst in the kernel and ran 240-720 ms/op without these, 240-290 with.
MALLOPT = {
    "M_MMAP_THRESHOLD": (-3, 32 << 20),
    "M_TRIM_THRESHOLD": (-1, 1 << 30),
    "M_TOP_PAD": (-2, 128 << 20),
}
_malloc_state: dict[str, int] = {}


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: no program to measure: {SRC / 'repro'} is missing")


def prepare() -> None:
    """Pin BLAS threads, tune malloc and put ``src/`` on the path; exits
    non-zero when there is no program or numpy is already loaded."""
    require_program()
    if "numpy" in sys.modules:
        sys.exit("ledger: numpy is already loaded; the BLAS thread pins would be ignored")
    for var in PINNED:
        os.environ[var] = "1"
    _tune_malloc()
    sys.path.insert(0, str(SRC))


def _tune_malloc() -> None:
    """Apply :data:`MALLOPT` where the C library has ``mallopt`` (glibc)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    for name, (param, value) in MALLOPT.items():
        if mallopt(param, value) == 1:
            _malloc_state[name] = value


def prefault(nbytes: int = 512 << 20) -> None:
    """Touch *nbytes* of heap and hand it back to malloc (not to the OS).

    Chunks stay under the 32 MiB mmap threshold, so with trimming off the
    pages remain mapped and whatever is allocated next takes no page
    fault.  The ``cold`` children do this before their timed set-up: on the
    reference VM the same 4258 faults cost 0.03 to 4.1 s, which would
    otherwise be most of ``setup_s`` and all of its run-to-run movement.
    """
    chunk = 24 << 20
    held = [bytearray(chunk) for _ in range(nbytes // chunk)]
    del held


def import_program() -> float:
    """Seconds a fresh interpreter spends in ``import repro`` (numpy included)."""
    t0 = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - t0


def child_command(*args: str) -> list[str]:
    """Command line of a fresh interpreter running this package."""
    return [sys.executable, "-m", "ledger", *args]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def llc_bytes() -> int:
    """Size of the largest cache level the OS reports for cpu0 (0 if unknown)."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * mult)
    return best


def mem_available_bytes() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def header(seed: int) -> dict:
    """What a reader needs to know before comparing two ledgers."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "seed": seed,
        "pinned": {var: os.environ.get(var) for var in PINNED},
        "mallopt": dict(_malloc_state),
    }
