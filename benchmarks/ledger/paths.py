"""Where things are.  Importing this module puts the repository's ``src/``
on ``sys.path`` — every entry script imports it first, so the benchmark
runs from a bare checkout (nothing installed) and fails fast, with a
non-zero exit, in a directory that has no ``src/`` at all."""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
#: Scratch output (results, traces, temporary durability directories);
#: git-ignored, created on demand.
OUT = HERE / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
