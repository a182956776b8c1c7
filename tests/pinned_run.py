"""Run one ``zf`` command in this process and check it against its pins.

Usage: PYTHONPATH=src python tests/pinned_run.py [--exit CODE] MAX_RSS_MB SHA256 ZF_ARG...

The command writes its output to a temporary file through ``--out``.  The
run fails when the command exits with another code than CODE (default 0),
when the process's peak resident set size exceeds MAX_RSS_MB, or when the
output's sha256 digest is not SHA256.  A run that stops early peaks low,
so the exit code is checked too.  The elapsed seconds are printed for the
record and not checked.  pytest does not collect this file.
"""

import os
import resource
import sys
import tempfile
import time

from zeroforcing import cli


def main(argv) -> int:
    expected = 0
    if argv[:1] == ["--exit"]:
        expected, argv = int(argv[1]), argv[2:]
    bound, digest, *command = argv
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        began = time.perf_counter()
        code = cli.main([*command, "--out", out])
        elapsed = time.perf_counter() - began
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"exit code {code}, {elapsed:.1f} s, peak RSS {peak_mb:.0f} MB (bound {bound} MB)")
        if code != expected or peak_mb > float(bound):
            return 1
        # imported after the measurement: loading OpenSSL adds about 4 MB
        import hashlib

        sha = hashlib.sha256()
        with open(out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
    matches = sha.hexdigest() == digest
    print(f"sha256 {sha.hexdigest()}: {'OK' if matches else 'FAILED, pinned ' + digest}")
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
