"""Rewrite the golden files that tests/test_golden.py compares, and
build.txt, the arithmetic version and the numpy, scipy and BLAS build
that wrote them.

    PYTHONPATH=src python tests/golden/regen.py

Regenerate only for a change that means to move these outputs, which
bumps certattack.ARITHMETIC_VERSION, on the build that build.txt names,
and say so in the change's notes.
"""
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (FILES, GOLDEN, MODES, build,  # noqa: E402
                         evasion_outputs, training_outputs, write_outputs)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for mode in MODES:
            out = write_outputs(Path(tmp), mode)
            (GOLDEN / mode).mkdir(exist_ok=True)
            for name in FILES:
                shutil.copyfile(out / name, GOLDEN / mode / name)
    for name, text in {**evasion_outputs(), **training_outputs()}.items():
        (GOLDEN / name).write_text(text)
    (GOLDEN / "build.txt").write_text(build())


if __name__ == "__main__":
    main()
