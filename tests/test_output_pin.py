"""One SHA-256 over the stdout of a fixed set of CLI calls.

The set covers every bounds export format at small, medium and large
segment counts, both targets and scales from the standard one to
|mu|/sigma = 1e8.  A change that moves output bytes on purpose updates
PINNED_SHA256 and says so in CHANGES.md; any other change keeps it.
"""

import hashlib
import io
from contextlib import redirect_stdout

from losslin.cli import main

SEGMENTS = (*range(2, 32), 100, 1000)
TARGETS = ("closs", "loss")
SCALES = (("0", "1"), ("-12.3", "0.37"), ("20", "5"), ("1e6", "1e-2"), ("-0.0", "1"))
FORMATS = (("--format", "json"), ("--format", "lp"), ("--format", "csv"),
           ("--format", "plot", "--n-points", "201"))

PINNED_SHA256 = "568329d7ae8240e5d033f3e3d749277011c983f62f5037d6760c648ae4031fc7"


def pinned_argv():
    for segments in SEGMENTS:
        for target in TARGETS:
            for mu, sigma in SCALES:
                for fmt in FORMATS:
                    yield ("bounds", "--segments", str(segments), "--target", target,
                           "--mu", mu, "--sigma", sigma, *fmt)


def output_sha256() -> str:
    digest = hashlib.sha256()
    for argv in pinned_argv():
        out = io.StringIO()
        with redirect_stdout(out):
            status = main(list(argv))
        assert status == 0, argv
        digest.update(out.getvalue().encode("utf-8"))
    return digest.hexdigest()


def test_cli_output_bytes_are_pinned():
    assert output_sha256() == PINNED_SHA256
