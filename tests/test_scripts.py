import os
import subprocess
import sys
from pathlib import Path

import laacoex

REPO = Path(__file__).resolve().parent.parent
SRC_DIR = Path(laacoex.__file__).resolve().parent.parent
FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig12_class4",
           "fig13", "fig14")


def test_reproduce_figures_matches_golden_csvs(tmp_path):
    # the script writes one CSV per figure sweep; each must equal the
    # checked-in golden sweep output apart from the version line
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "reproduce_figures.py"),
         str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(FIGURES)
    for name in FIGURES:
        written = (tmp_path / f"{name}.csv").read_text(encoding="utf-8")
        golden = (REPO / "bench" / "golden" / f"{name}.csv").read_text(
            encoding="utf-8")
        assert written.startswith("# laacoex ")
        assert written.split("\n", 1)[1] == golden.split("\n", 1)[1], name
