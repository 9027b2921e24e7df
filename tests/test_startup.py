"""What importing crahnsim starts and loads, each read in a fresh process.

crahnsim sets OPENBLAS_NUM_THREADS to 1 before numpy loads, unless the caller
set it, so that OpenBLAS starts no idle worker thread; and the CLI loads no
module of the network stack."""

import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

from crahnsim.situation import _escape

SRC = Path(__file__).resolve().parents[1] / "src"

# variables OpenBLAS reads for its thread count, in its order of precedence
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code: str, **preset: str) -> list[str]:
    """Lines that `code` prints in a new interpreter that finds crahnsim in
    src/ and sees none of THREAD_VARIABLES but those in `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(preset, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


REPORT_THREADS = ("import os, crahnsim\n"
                  "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
                  "print(len(os.listdir('/proc/self/task')))\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_sets_one_blas_thread_and_starts_no_other():
    assert _fresh(REPORT_THREADS) == ["1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_keeps_a_thread_count_the_caller_set():
    value, threads = _fresh(REPORT_THREADS, OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    assert 1 <= int(threads) <= 2


def test_cli_import_loads_no_network_module():
    network = ("urllib.request", "http.client", "ssl", "socket", "email")
    code = ("import sys, crahnsim.cli\n"
            f"print(sorted(m for m in {network!r} if m in sys.modules))\n")
    assert _fresh(code) == ["[]"]


def test_situation_escape_matches_saxutils():
    text = "a < b && c > d; <tag attr='x'>&amp;</tag> \"q\""
    assert _escape(text) == escape(text)
    assert _escape("plain") == "plain"
