"""Standard-library-only smoke run for interpreters without pytest.

    python3.X tests/portability_smoke.py

Prints the golden trace, a digest of a 200-symbol run and of the cut
language to length 10, and checks that every analog value is a canonical
Fraction. The printed text must be the same under every supported Python.
"""

import hashlib
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import anet  # noqa: E402


def canonical(x) -> bool:
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def main() -> int:
    net = anet.build_cut_acceptor(anet.cut_params(Fraction(27, 8), Fraction(1, 4)))
    print(anet.trace_tsv(anet.run_online(net, "101"), net), end="")
    word = "".join(random.Random(200).choice("01") for _ in range(200))
    trace = anet.run_online(net, word)
    bad = sum(1 for _, cfg in trace.rows if not canonical(cfg.analog))
    text = anet.trace_tsv(trace, net)
    print("run 200: %d rows, %d non-canonical, sha256 %s" % (
        len(trace.rows), bad, hashlib.sha256(text.encode()).hexdigest()))
    words = sorted(anet.enumerate_language(net, 10), key=lambda w: (len(w), w))
    print("enum 10: %d words, sha256 %s" % (
        len(words), hashlib.sha256("\n".join(words).encode()).hexdigest()))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
