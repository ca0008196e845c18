"""Golden outputs: on the criterion-10 config, in both modes, the sweep's
raw_results.csv and summary.csv and `certify`'s certificates.csv match
the files in tests/golden byte for byte.

tests/golden/regen.py wrote them on the numpy, scipy and BLAS build that
tests/golden/build.txt names.  Another build may round differently; a
mismatch there is a finding to report, not a reason to regenerate.
"""
from pathlib import Path

import numpy as np
import pytest
import scipy

from certattack.cli import main
from test_experiment import write_config

GOLDEN = Path(__file__).resolve().parent / "golden"
MODES = ("evasion", "poisoning")
FILES = ("raw_results.csv", "summary.csv", "certificates.csv")


def build() -> str:
    """The numpy, scipy and BLAS build of this process, one per line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}\nscipy {scipy.__version__}\n"
            f"blas {blas['name']} {blas['version']}\n")


def write_outputs(tmp_path: Path, mode: str) -> Path:
    """The directory holding the sweep and `certify` outputs of the
    criterion-10 config (write_config's defaults) in `mode`."""
    config = write_config(tmp_path, name=f"{mode}.ini", out=tmp_path / mode)
    config.write_text(config.read_text().replace("mode = evasion",
                                                 f"mode = {mode}"))
    codes = [main([command, "--config", str(config)])
             for command in ("sweep", "certify")]
    assert codes == [0, 0]
    return tmp_path / mode


@pytest.mark.parametrize("mode", MODES)
def test_outputs_match_golden_files(tmp_path, mode):
    out = write_outputs(tmp_path, mode)
    for name in FILES:
        golden = (GOLDEN / mode / name).read_bytes()
        assert (out / name).read_bytes() == golden, (
            f"{mode}/{name} differs from the golden file; written on\n"
            f"{(GOLDEN / 'build.txt').read_text()}run on\n{build()}")
