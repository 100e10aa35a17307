"""Which work loads scipy: only a dense exponential of a block of size 2 and up does.

Each case runs in a fresh interpreter with ``PYTHONPATH=src``, so no module
imported by the test session can hide an import at start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

IN_FAMILY = {
    "m": 4,
    "phi": 0.0,
    "gates": [
        {"kind": "BS", "i": 1, "j": 2, "theta": 0.3},
        {"kind": "PS", "i": 3, "theta": 0.2},
        {"kind": "FSWAP", "i": 2, "j": 3},
        {"kind": "BS", "i": 3, "j": 4, "theta": -0.7},
        {"kind": "PA", "i": 1, "j": 2, "theta": 0.4},
    ],
}

# phase shifters and mode swaps only: every dense block is 1 x 1, and np.exp exponentiates it
PS_FSWAP = {
    "m": 4,
    "phi": 0.0,
    "gates": [
        {"kind": "PS", "i": 1, "theta": 0.3},
        {"kind": "FSWAP", "i": 1, "j": 3},
        {"kind": "PS", "i": 4, "theta": -1.2},
        {"kind": "FSWAP", "i": 2, "j": 3},
    ],
}

REPORT = "import json, sys; print(json.dumps(sorted(name for name in sys.modules if name.startswith('scipy'))))"


def scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """The ``scipy*`` modules loaded after ``code`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


RUN = "from anyonsim.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize(
    "code",
    [
        "import anyonsim.cli",
        RUN.format(argv=["run", "--preset", "split-pair", "--circuit", "circuit.json", "--engine", "fastpath", "--out", "amps.csv"]),
        RUN.format(argv=["schmidt", "--preset", "two-slater", "--out", "pairs.json"]),
        RUN.format(argv=["run", "--preset", "split-pair", "--circuit", "ps-fswap.json", "--engine", "dense", "--out", "amps.csv"]),
    ],
    ids=["import", "run-fastpath", "schmidt", "run-dense-ps-fswap"],
)
def test_scipy_stays_unloaded(tmp_path, code):
    (tmp_path / "circuit.json").write_text(json.dumps(IN_FAMILY))
    (tmp_path / "ps-fswap.json").write_text(json.dumps(PS_FSWAP))
    assert scipy_modules_after(code, tmp_path) == []


def test_dense_run_loads_scipy(tmp_path):
    (tmp_path / "circuit.json").write_text(json.dumps(IN_FAMILY))
    argv = ["run", "--preset", "split-pair", "--circuit", "circuit.json", "--engine", "dense", "--out", "amps.csv"]
    assert "scipy.linalg" in scipy_modules_after(RUN.format(argv=argv), tmp_path)
    assert (tmp_path / "amps.csv").read_text().startswith("occ,re,im\n")


def test_bogoliubov_pair_as_the_first_exponential(tmp_path):
    code = "\n".join(
        [
            "import sys",
            "import numpy as np",
            "from anyonsim.optics import BogoliubovPair",
            "assert 'scipy.linalg' not in sys.modules",
            "a = np.array([[0.3, 0.2j, 0.0], [-0.2j, -0.1, 0.5], [0.0, 0.5, 0.2]])",
            "b = np.array([[0.0, 0.4, 0.1j], [-0.4, 0.0, 0.0], [-0.1j, 0.0, 0.0]])",
            "pair = BogoliubovPair.from_generator(a, b)",
            "pair.validate()",
            "assert 'scipy.linalg' in sys.modules",
            "from scipy.linalg import expm",
            "big = expm(1j * np.block([[a.T, b.conj()], [-b, -a]]))",
            "assert pair.u.tobytes() == big[:3, :3].tobytes() and pair.v.tobytes() == big[:3, 3:].tobytes()",
        ]
    )
    scipy_modules_after(code, tmp_path)


def test_rotation_stays_off_scipy(tmp_path):
    code = "\n".join(
        [
            "import numpy as np",
            "from anyonsim import BogoliubovPair, apply_induced_bogoliubov, basis_state, reconstruct_from_slater, slater_decompose",
            "q, _ = np.linalg.qr(np.arange(25.0).reshape(5, 5) + 1j * np.eye(5))",
            "out = apply_induced_bogoliubov(basis_state('10010', 1.3), BogoliubovPair.from_rotation(q))",
            "assert abs(out.norm() - 1.0) < 1e-12",
            "rec = reconstruct_from_slater(slater_decompose(out), 5)",
            "assert max(abs(rec.amplitude(k) - out.amplitude(k)) for k in range(32)) < 1e-12",
        ]
    )
    assert scipy_modules_after(code, tmp_path) == []
