#!/usr/bin/env python3
"""Reference work that does not touch the package: the yardstick for the host's speed.

    python3 perfbench/reference.py    # prints the seconds of one reference set-up

The reference kernel is fixed pure-Python work (about 10 ms).  The reference
set-up imports a fixed list of standard-library modules and runs the kernel
ten times (about 0.2 s); run in a fresh interpreter right after a set-up, it
moves with the host's import and CPU speed as that set-up does.
"""

from __future__ import annotations

import importlib
import math
import time

now = time.perf_counter

MODULES = (
    "asyncio", "calendar", "configparser", "difflib", "email.mime.multipart", "ftplib",
    "http.client", "imaplib", "mailbox", "optparse", "pdb", "plistlib", "pydoc", "shelve",
    "smtplib", "sqlite3", "ssl", "tarfile", "tomllib", "unittest", "uuid", "wave",
    "xml.dom.minidom", "xml.etree.ElementTree",
)
NOMINAL_SETUP_S = 0.2  # setup_s is reported in seconds at this reference set-up time


def kernel() -> float:
    """Tuple-keyed dict updates and float arithmetic, as the package's tables do."""
    table: dict = {}
    total = 0.0
    for i in range(20_000):
        key = (i % 61, i % 7)
        value = table.get(key, 0.0) + math.sqrt(i) * 0.5
        table[key] = value
        total += value
    return total


def kernel_s() -> float:
    t0 = now()
    kernel()
    return now() - t0


def setup_s() -> float:
    t0 = now()
    for name in MODULES:
        importlib.import_module(name)
    for _ in range(10):
        kernel()
    return now() - t0


if __name__ == "__main__":
    print(setup_s())
