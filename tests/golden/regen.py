"""Rewrite the golden files that tests/test_golden.py compares, and
build.txt, the arithmetic version and the numpy, scipy and BLAS build
that wrote them.

    PYTHONPATH=src python tests/golden/regen.py [--check]

Before it writes anything, it prints per golden file what this build
moved: the rows, counts or digests that differ, and for label counts the
largest count shift.  With --check it only reports, and exits 1 if
anything moved.

Regenerate only for a change that means to move these outputs, which
bumps certattack.ARITHMETIC_VERSION, on the build that build.txt names,
and say so in the change's notes.
"""
import argparse
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (FILES, GOLDEN, SWEEPS,  # noqa: E402
                         attack_outputs, build, evasion_outputs,
                         training_outputs, write_outputs)

SHOWN = 10  # differing lines printed per file


def outputs() -> dict:
    """Golden path, relative to tests/golden -> the bytes this build
    writes there."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in SWEEPS:
            out = write_outputs(Path(tmp), sweep)
            for name in FILES:
                texts[f"{sweep}/{name}"] = (out / name).read_bytes()
        (Path(tmp) / "attack").mkdir()
        texts.update(attack_outputs(Path(tmp) / "attack"))
    for name, text in {**evasion_outputs(), **training_outputs(),
                       "build.txt": build()}.items():
        texts[name] = text.encode()
    return texts


def count_shift(header: str, pairs) -> int:
    """Largest change of any count_* column over the (old, new) CSV row
    pairs."""
    columns = [i for i, name in enumerate(header.split(","))
               if name.startswith("count_")]
    return max((abs(int(old.split(",")[i]) - int(new.split(",")[i]))
                for old, new in pairs for i in columns), default=0)


def report(name: str, old: bytes, new: bytes) -> list:
    """Lines saying what moved in one golden file; none if nothing did."""
    if old == new:
        return []
    old_lines = old.decode().splitlines()
    new_lines = new.decode().splitlines()
    changed = [(a, b) for a, b in zip_longest(old_lines, new_lines)
               if a != b]
    unit = ("digests" if name.endswith(".sha256")
            else "lines" if name.endswith(".txt") else "rows")
    summary = f"{name}: {len(changed)} of {len(new_lines)} {unit} differ"
    if len(old_lines) != len(new_lines):
        summary += f" ({len(old_lines)} before)"
    if old_lines[:1] == new_lines[:1] and "count_" in new_lines[0]:
        summary += ", largest count shift " + str(count_shift(
            new_lines[0], [(a, b) for a, b in changed if a and b]))
    lines = [summary]
    for a, b in changed[:SHOWN]:
        if a is not None:
            lines.append(f"  - {a}")
        if b is not None:
            lines.append(f"  + {b}")
    if len(changed) > SHOWN:
        lines.append(f"  ... {len(changed) - SHOWN} more")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="report what moved; write nothing, exit 1 if "
                             "anything did")
    args = parser.parse_args(argv)
    texts = outputs()
    moved = []
    for name, text in texts.items():
        path = GOLDEN / name
        lines = report(name, path.read_bytes() if path.exists() else b"",
                       text)
        print("\n".join(lines) if lines else f"{name}: unchanged")
        moved += lines[:1]
    if args.check:
        return 1 if moved else 0
    for name, text in texts.items():
        (GOLDEN / name).parent.mkdir(exist_ok=True)
        (GOLDEN / name).write_bytes(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
