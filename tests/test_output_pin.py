"""One SHA-256 over the stdout of a fixed set of CLI calls, and a digest per call.

The set covers every bounds export format at small, medium and large
segment counts, both targets and scales from the standard one to
|mu|/sigma = 1e8, and holds each distinct output once: a CSV table is the
partition's alone, so it is pinned once per segment count, and a mean of -0.0
prints as 0 (tests/test_cli.py checks both).  A change that moves output bytes
on purpose updates PINNED_SHA256 and the per-call digests in DIGESTS, and says
so in CHANGES.md; any other change keeps them.  `python tests/test_output_pin.py`
prints the SHA-256 and rewrites DIGESTS; a failing digest test names the calls
that moved.
"""

import hashlib
import io
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

from losslin.cli import main

SEGMENTS = (*range(2, 32), 100, 1000)
TARGETS = ("closs", "loss")
SCALES = (("0", "1"), ("-12.3", "0.37"), ("20", "5"), ("1e6", "1e-2"))
FORMATS = (("--format", "json"), ("--format", "lp"), ("--format", "csv"),
           ("--format", "plot", "--n-points", "201"))

PINNED_SHA256 = "a565e76df2decb6e68f3ff674772fcaa1007544b0f93d995e8663bc22fbb7a79"

# the first 16 hex digits of each call's SHA-256, one a line, in pinned_argv() order
DIGESTS = Path(__file__).with_name("output_pin_digests.txt")


def pinned_argv():
    for segments in SEGMENTS:
        for target in TARGETS:
            for mu, sigma in SCALES:
                for fmt in FORMATS:
                    if fmt[1] == "csv" and (target, (mu, sigma)) != (TARGETS[0], SCALES[0]):
                        continue
                    yield ("bounds", "--segments", str(segments), "--target", target,
                           "--mu", mu, "--sigma", sigma, *fmt)


@cache
def output_digests() -> tuple[str, tuple[str, ...]]:
    """The SHA-256 over every call's stdout, and each call's digest."""
    digest, each = hashlib.sha256(), []
    for argv in pinned_argv():
        out = io.StringIO()
        with redirect_stdout(out):
            status = main(list(argv))
        assert status == 0, argv
        data = out.getvalue().encode("utf-8")
        digest.update(data)
        each.append(hashlib.sha256(data).hexdigest()[:16])
    return digest.hexdigest(), tuple(each)


def test_cli_output_bytes_are_pinned():
    assert output_digests()[0] == PINNED_SHA256


def test_no_two_calls_write_the_same_bytes():
    each = output_digests()[1]
    repeats = len(each) - len(set(each))
    assert repeats == 0, f"{repeats} of {len(each)} calls write bytes another call pins"


def test_each_call_keeps_its_digest():
    pinned = DIGESTS.read_text().split()
    got = output_digests()[1]
    assert len(pinned) == len(got)
    moved = [" ".join(argv) for argv, a, b in zip(pinned_argv(), got, pinned) if a != b]
    assert not moved, f"{len(moved)} of {len(got)} outputs moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    total, each = output_digests()
    DIGESTS.write_text("".join(d + "\n" for d in each))
    print(total)
