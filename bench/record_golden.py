"""Re-record bench/golden/*.out, the expected stdout of every cli_demo verb.

    python3 bench/record_golden.py

Run it only when a change means to alter CLI output, and say so in that
change: cli_demo counts every byte of difference as a failed operation.
"""

import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gen  # noqa: E402
import ops  # noqa: E402


def main():
    os.makedirs(ops.GOLDEN, exist_ok=True)
    for name, argv in gen.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "kquant.cli", *argv],
                              cwd=ops.ROOT, env=ops.cli_env(), capture_output=True,
                              check=True)
        with open(os.path.join(ops.GOLDEN, f"{name}.out"), "wb") as fh:
            fh.write(proc.stdout)
        print(f"{name}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
