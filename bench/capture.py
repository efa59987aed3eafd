"""Capture bench/reference.json: run every benchmark command once and keep its outputs.

    python3 bench/capture.py

Run from the root of the checkout whose outputs are the reference (the seed
commit). The checks in checks.py compare later runs against this file.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
from run import WORKLOADS, Launcher


def main() -> int:
    root = Path.cwd()
    workdir = root / ".bench_out" / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    launcher = Launcher(root, workdir)
    reference = {}
    for commands in WORKLOADS.values():
        for args in commands:
            res = launcher.run(args)
            if res.get("exit_code") != checks.EXPECTED_EXIT[args[0]]:
                print(f"error: {' '.join(args)} exited {res.get('exit_code')!r}",
                      file=sys.stderr)
                return 1
            reference[args[0]] = {"args": list(args), "exit_code": res["exit_code"],
                                  **checks.observe(args[0], Path(res["outdir"]))}
    checks.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
