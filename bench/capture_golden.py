"""Write the golden CSV of every bundled preset into bench/golden/.

Sweep presets are captured with ``laacoex sweep NAME``, scenario presets with
``laacoex run NAME`` (analytic engine). The analytic-sweeps workload compares
its output with these files byte for byte, apart from the version line.
Regenerate them only when a change to the CSV output is intended and named.

Usage, from the root of a checkout::

    python3 bench/capture_golden.py
"""
from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout

from workloads import GOLDEN_DIR, RUN_PRESETS, SWEEP_PRESETS, use_checkout_src


def main() -> int:
    use_checkout_src()
    from laacoex import cli

    GOLDEN_DIR.mkdir(exist_ok=True)
    for command, names in (("sweep", SWEEP_PRESETS), ("run", RUN_PRESETS)):
        for name in names:
            sink = io.StringIO()
            with redirect_stdout(sink):
                code = cli.main([command, name])
            text = sink.getvalue()
            if code != 0:
                print(f"error: laacoex {command} {name} exited {code}",
                      file=sys.stderr)
                return 1
            cells = {c.lower() for line in text.splitlines()[2:]
                     for c in line.split(",")}
            if cells & {"nan", "inf", "-inf"}:
                print(f"error: {name} has a non-finite cell", file=sys.stderr)
                return 1
            (GOLDEN_DIR / f"{name}.csv").write_text(text, encoding="utf-8")
            print(f"wrote {name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
