"""Where the benchmark finds the program, how it builds it once per checkout,
and the environment block recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"   # build log and stamp
OUT = ROOT / ".bench_out"       # inputs, journals, spans and result files

# A budget from the environment would turn certified verdicts into
# "inconclusive"; the benchmark never sets one and keeps it from children.
BUDGET_VARS = ("PMHGRAPH_MAX_NODES",)


def check_tree():
    """Exit non-zero unless the checkout holds the pmhgraph sources."""
    if not (SRC / "pmhgraph" / "__init__.py").is_file() or \
            not (ROOT / "setup.py").is_file():
        raise SystemExit(f"perfbench: no pmhgraph source tree under {ROOT}")


def build():
    """Build whatever extension setup.py builds, once per checkout.

    Without a compiler toolchain for the extension this builds nothing and
    the pure kernel runs; the backend that ran is recorded either way.
    """
    stamp = BUILD / "built"
    if stamp.exists():
        return
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "w") as log:
        rc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
             "--build-temp", str(BUILD / "temp")],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=800,
        ).returncode
    if rc != 0:
        raise SystemExit(f"perfbench: build failed, see {BUILD / 'build.log'}")
    stamp.touch()


def use_source_tree():
    """Import pmhgraph from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in BUDGET_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def environment(seed):
    import pmhgraph
    return {
        "backend": pmhgraph.kernel_backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }
