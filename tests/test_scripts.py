import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import laacoex

REPO = Path(__file__).resolve().parent.parent
SRC_DIR = Path(laacoex.__file__).resolve().parent.parent
FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig12_class4",
           "fig13", "fig14")


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300)


def golden_rows(name):
    lines = (REPO / "bench" / "golden" / f"{name}.csv").read_text(
        encoding="utf-8").splitlines()[1:]
    return list(csv.DictReader(lines))


def test_reproduce_figures_matches_golden_csvs(tmp_path):
    # the script writes one CSV per figure sweep; each must equal the
    # checked-in golden sweep output apart from the version line
    proc = run_script("reproduce_figures.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(FIGURES)
    for name in FIGURES:
        written = (tmp_path / f"{name}.csv").read_text(encoding="utf-8")
        golden = (REPO / "bench" / "golden" / f"{name}.csv").read_text(
            encoding="utf-8")
        assert written.startswith("# laacoex ")
        assert written.split("\n", 1)[1] == golden.split("\n", 1)[1], name


def test_reproduce_tables_prints_finite_golden_numbers():
    proc = run_script("reproduce_tables.py")
    assert proc.returncode == 0, proc.stderr
    numbers = re.findall(r"[-+]?\d+(?:\.\d+)?|\b(?:nan|inf)\b", proc.stdout)
    assert numbers
    assert all(math.isfinite(float(n)) for n in numbers)
    # the first class-3 line is 1+1 at 9/7.8 Mbps, the table4_case3 preset
    wifi, laa = re.search(r"class-3 .*: wifi +(\S+) +laa +(\S+)",
                          proc.stdout).groups()
    (row,) = golden_rows("table4_case3")
    assert (wifi, laa) == (f"{float(row['tput_wifi_mbps']):.2f}",
                           f"{float(row['tput_laa_mbps']):.2f}")
