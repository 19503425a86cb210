#!/usr/bin/env python3
"""`csdf lint --client cartesian --fixed-np N` on Figure 1's gather-to-root
loop must be clean: exit 0 and no possible-deadlock finding, since every
one of the N - 1 sends is received.

Usage: pinned_np_lint.py <path-to-csdf>
"""
import os
import subprocess
import sys
import tempfile

GATHER_TO_ROOT = """\
# Figure 1 (mdcask), phase 1: gather to root.
if id == 0 then
  for i = 1 to np - 1 do
    recv y <- i;
  end
else
  x = id * 10;
  send x -> 0;
end
"""


def main():
    csdf = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gather_to_root.mpl")
        with open(path, "w") as f:
            f.write(GATHER_TO_ROOT)
        for np in (4, 8):
            lint = subprocess.run(
                [csdf, "lint", path, "--client", "cartesian", "--fixed-np",
                 str(np)], capture_output=True, text=True, timeout=60)
            out = lint.stdout + lint.stderr
            assert lint.returncode == 0, (np, lint.returncode, out)
            assert "possible-deadlock" not in out, (np, out)
        run = subprocess.run([csdf, "run", path, "--np", "8"],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, (run.returncode, run.stdout, run.stderr)
    print("pinned-np lint: clean")


if __name__ == "__main__":
    main()
