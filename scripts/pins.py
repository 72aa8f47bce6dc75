#!/usr/bin/env python3
"""Hash the output of every pinned command of this checkout.

Runs each pinned command line in a child of the running interpreter, with
this checkout's ``src`` first on ``PYTHONPATH``, and prints one line per
pin: the sha256 of its stdout, its exit code, and the command.  A pin of
several commands (the scan script over all eleven types) hashes their
outputs concatenated and reports the last nonzero exit code.  Two
checkouts, or two interpreters, agree on every pin when the outputs of
this script are equal:

    python3.12 scripts/pins.py > pins-3.12.txt

Standard library only, so it runs on any interpreter the package runs on.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The curve types in the published order.
TYPE_KEYS = ("4|0", "3|0", "2|0", "1|0", "0|0", "1|1", "|||", "0|1", "0|2", "0|3", "0|4")

CLI = ("-m", "conelines")
SCAN = ("scripts/scan_realizability.py",)

#: Each pin: the argument lists (after the interpreter) whose outputs it hashes.
PINS: tuple[tuple[tuple[str, ...], ...], ...] = (
    *(((*CLI, "verify", "--seed", seed),) for seed in ("0", "42")),
    *(((*CLI, "verify", "--format", "json", "--seed", seed),) for seed in ("0", "42")),
    ((*CLI, "verify", "--fault", "gram"),),
    *(((*CLI, "tables", "all", "--format", fmt),) for fmt in ("md", "csv", "json")),
    ((*CLI, "tables", "line-classes"),),
    *(((*CLI, "classify", key, "--format", "json"),) for key in TYPE_KEYS),
    ((*CLI, "act", "K#T2", "0,1,0,0,0", "0,0,0,1"),),
    ((*CLI, "act", "K#T2", "0,1,0,0,0", "0,0,1,0,0,0,1", "--mod2"),),
    ((*CLI, "act", "K#T2", "-3,-1,1,0,0", "1,0,1,1"),),
    ((*CLI, "act", "K#4T2", "0,0,0,0,0,0,1,0", "0,0,0,0,0,0,0,0,0,1"),),
    ((*CLI, "act", "K+K", "1,1,0,1", "1,0,1,1,0,1", "--mod2"),),
    ((*CLI, "act", "K+2S2", "3,-1", "1,1"),),
    tuple((*SCAN, "--type", key) for key in TYPE_KEYS),
    (SCAN,),
)


def run_pin(pin: tuple[tuple[str, ...], ...], env: dict[str, str]) -> tuple[str, int]:
    digest = hashlib.sha256()
    code = 0
    for argv in pin:
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, check=False
        )
        digest.update(done.stdout)
        code = done.returncode or code
    return digest.hexdigest(), code


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for pin in PINS:
        digest, code = run_pin(pin, env)
        print(digest, code, "; ".join(shlex.join(argv) for argv in pin), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
