#!/usr/bin/env python3
"""Run every pinned command line of this checkout against its pin.

``PINS`` is the one table of outputs that must not change: per pin, the
command lines (the arguments after the interpreter), their exit code (the
last nonzero one) and the sha256 of their concatenated stdout.  Each line
runs in a child of the running interpreter with this checkout's ``src``
first on ``PYTHONPATH``.  The script prints ``sha256 exit command`` and
``ok`` or ``MISMATCH`` per pin, and exits 1 when any pin differs:

    python3.12 scripts/pins.py

The test suite runs the same table in process.  Standard library only,
so it runs on any interpreter the package runs on.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The curve types in the published order.
TYPE_KEYS = ("4|0", "3|0", "2|0", "1|0", "0|0", "1|1", "|||", "0|1", "0|2", "0|3", "0|4")

CLI = ("-m", "conelines")
SCAN = ("scripts/scan_realizability.py",)

Commands = tuple[tuple[str, ...], ...]

#: Each pin: the command lines, their exit code and the sha256 of their stdout.
PINS: tuple[tuple[Commands, int, str], ...] = (
    (((*CLI, "verify", "--seed", "0"),), 0, "9993914964acb8ee7dc4b3c3ede119a3bdfc99fd41e99c26f64bae8b5a938c42"),
    (((*CLI, "verify", "--seed", "42"),), 0, "9993914964acb8ee7dc4b3c3ede119a3bdfc99fd41e99c26f64bae8b5a938c42"),
    (((*CLI, "verify", "--format", "json", "--seed", "0"),), 0, "99ab9bc72ef8cd9dcd1fdc8a9b0e9bc8f79dc4a4a142ff4b8e1ce1a322c4a622"),
    (((*CLI, "verify", "--format", "json", "--seed", "42"),), 0, "e1d7deb25b501f20290816fe6781a5db5b8cd7925a1aadab84585438b4a6a58a"),
    (((*CLI, "verify", "--fault", "gram"),), 1, "f99c9b38f1b8989add4056e9616b3c42f5abe388f9f6738b5d540d29eed91ab2"),
    (((*CLI, "tables", "all", "--format", "md"),), 0, "c6e871f9d74ca177fa7ebc571e6b6a0d8d4e46c5422a86e399f941e1f7c12258"),
    # the csv rendering joins the reports with a blank line
    (((*CLI, "tables", "all", "--format", "csv"),), 0, "5f0a7ed6d4d6edd79110a5a5f061ec2024f39105655581d5c94d2e4c374f1e5a"),
    (((*CLI, "tables", "all", "--format", "json"),), 0, "47b5e1916c44375d3a0bc586c5ec8860956bc84b1bf84018630d58c518f512e7"),
    (((*CLI, "tables", "line-classes"),), 0, "6ee765fc0a1701b71b3a185597f596e200aee3ce990776a6487b1b6b8f6ae081"),
    (((*CLI, "classify", "4|0", "--format", "json"),), 0, "8275cf8a0708de02f37150e9f54c3dabcf1cc415b0206539967fb8c1f82f6a5e"),
    (((*CLI, "classify", "3|0", "--format", "json"),), 0, "ead7a1ae5fb5059ccf66a2293d3d698e8273cd5023ec402275b1b194724ba1d0"),
    (((*CLI, "classify", "2|0", "--format", "json"),), 0, "3347407ae87d1993f8ddb0cc4552e028a765ee268c1660da5a6cf1da3f0cbc56"),
    (((*CLI, "classify", "1|0", "--format", "json"),), 0, "43a5906ca8d2ea33dbe407699c54578777bf0a1eb5cb5ba38d2ee3f81238b0d9"),
    (((*CLI, "classify", "0|0", "--format", "json"),), 0, "4242b7eefe542ddd0404faf9c91227dee57d29901113837be47ee0c1e2ffa996"),
    (((*CLI, "classify", "1|1", "--format", "json"),), 0, "c29638ea8f2dce66e590b09a7ab0648e4b4bf21108a2e6262cc4dd652b47a4af"),
    (((*CLI, "classify", "|||", "--format", "json"),), 0, "72b3ca10351573065d2907ed5228b378cb44439974672f10d43656681ee7bc7e"),
    (((*CLI, "classify", "0|1", "--format", "json"),), 0, "2562a8c2df3e7bfeb61489b6654642e5fbcc7ed3ebb7c865952431d01fa7f24e"),
    (((*CLI, "classify", "0|2", "--format", "json"),), 0, "866f83fb35ded5cf16b3a9394fe32d0850751cf6135826ce6eb7f3a65b1f5c39"),
    (((*CLI, "classify", "0|3", "--format", "json"),), 0, "b68a82dcad3e6661454282b939ba2e55645abc304ec128e1c12c855bb3c238f9"),
    (((*CLI, "classify", "0|4", "--format", "json"),), 0, "ce1c9a9c59ca36672ad907ea01a577f2d46756bc5daa6317d1213e683cfa7750"),
    # the README examples
    (((*CLI, "act", "K#T2", "0,1,0,0,0", "0,0,0,1"),), 0, "235548e59382fed9e379216ae6fd4b93152b25fd1c9826c24144d277d962356e"),
    (((*CLI, "act", "K#T2", "0,1,0,0,0", "0,0,1,0,0,0,1", "--mod2"),), 0, "369dfb5b364e2e9f8c9310f42af330bb65a9fe7f36de8acf5d1284a658a636fe"),
    (((*CLI, "act", "K#T2", "-3,-1,1,0,0", "1,0,1,1"),), 0, "901f33356fc71b44f1503f11df7125bcc2bfc9f66048b514727feed96736034f"),
    # the last half twist carries into the first handle's fiber twist
    (((*CLI, "act", "K#4T2", "0,0,0,0,0,0,1,0", "0,0,0,0,0,0,0,0,0,1"),), 0, "2fe069e20f116b01bce74fcc2f80af44986921caa8bbf0e14b4edc3d44b90a12"),
    (((*CLI, "act", "K+K", "1,1,0,1", "1,0,1,1,0,1", "--mod2"),), 0, "b89108cf981bf836f5a0349a4b24eb321f7632cb42638a37c206590f094c2bf6"),
    (((*CLI, "act", "K+2S2", "3,-1", "1,1"),), 0, "583bcc240972a5146e1fecbe6601190dae93c5e16459a40ee9f736cd555e62b4"),
    (tuple((*SCAN, "--type", key) for key in TYPE_KEYS), 0, "54ce0d90476cf837f9843a35124a8b0671e5016eba23fc86b3c9a1f03adbf03b"),
    ((SCAN,), 0, "56889d97564d48be738db4c3e988a0e7969c3fe884fa4c178e40474822a6d1e1"),
)


def command_text(commands: Commands) -> str:
    return "; ".join(shlex.join(argv) for argv in commands)


def run_pin(commands: Commands, run: Callable[[tuple[str, ...]], tuple[bytes, int]]) -> tuple[str, int]:
    """The sha256 of the commands' concatenated stdout and their last
    nonzero exit code; ``run`` gives one command's stdout and exit code."""
    digest = hashlib.sha256()
    code = 0
    for argv in commands:
        out, status = run(argv)
        digest.update(out)
        code = status or code
    return digest.hexdigest(), code


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))

    def run(argv: tuple[str, ...]) -> tuple[bytes, int]:
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, check=False)
        return done.stdout, done.returncode

    mismatched = False
    for commands, code, sha256 in PINS:
        got = run_pin(commands, run)
        ok = got == (sha256, code)
        mismatched |= not ok
        print(*got, command_text(commands), "ok" if ok else "MISMATCH", flush=True)
    return int(mismatched)


if __name__ == "__main__":
    sys.exit(main())
