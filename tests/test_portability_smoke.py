"""The portability smoke's output, pinned.

tests/portability_smoke.py prints the same text under every supported
Python; this pins that text, so a change to any artifact it digests (golden
trace, long run, cut language, refined partition, parity quotient) shows up
in the regular suite as well.
"""

import hashlib

import portability_smoke

SMOKE_SHA256 = "b28353c38b093129247a587900bd1f9d830509e5347007fdb4464ea189f5645d"


def test_portability_smoke_output_is_pinned(capsys):
    assert portability_smoke.main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SMOKE_SHA256
