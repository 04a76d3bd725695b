"""Standard-library-only smoke run for interpreters without pytest.

    python3.X tests/portability_smoke.py

Prints the golden trace, digests of a 200-symbol run, of the cut language
to length 10, of a refined partition and of a quotient network file, and
checks that every analog value is a canonical Fraction. The printed text
must be the same under every supported Python.
"""

import hashlib
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import anet  # noqa: E402


PARITY_TSV = "e\t0\te\t-\t1\ne\t1\to\t-\t1\no\t0\to\t-\t0\no\t1\te\t-\t0\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(x) -> bool:
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def main() -> int:
    net = anet.build_cut_acceptor(anet.cut_params(Fraction(27, 8), Fraction(1, 4)))
    print(anet.trace_tsv(anet.run_online(net, "101"), net), end="")
    word = "".join(random.Random(200).choice("01") for _ in range(200))
    trace = anet.run_online(net, word)
    bad = sum(1 for _, cfg in trace.rows if not canonical(cfg.analog))
    text = anet.trace_tsv(trace, net)
    print("run 200: %d rows, %d non-canonical, sha256 %s" % (len(trace.rows), bad, digest(text)))
    words = sorted(anet.enumerate_language(net, 10), key=lambda w: (len(w), w))
    print("enum 10: %d words, sha256 %s" % (len(words), digest("\n".join(words))))
    part = anet.build_partition_refined(net, ("0", "1"))
    intervals = "\n".join(str(iv) for iv in part.partition.intervals)
    print("refined 7: %d intervals, sha256 %s" % (part.interval_count, digest(intervals)))
    parity, _ = anet.compile_mealy(anet.machine_from_tsv(PARITY_TSV))
    spec = anet.QuotientSpec(base=parity, first="1", second="1", mode=anet.SECOND_MINUS_FIRST)
    quotient = anet.network_to_text(anet.build_quotient_network(spec).network)
    print("quotient parity: %d lines, sha256 %s" % (quotient.count("\n"), digest(quotient)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
