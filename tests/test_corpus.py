"""The output corpus: seeded artifacts of the lab's constructions, pinned by digest.

Each family builds its artifacts from fixed seeds, as text, and
tests/corpus.json holds the md5 of every artifact, family by family. A change
that leaves the outputs alone leaves every digest alone; on a mismatch the
test names the first artifact that differs. The digests were generated from
the tree before the change that added this file. A change that moves an
output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_corpus.py

and says which family moved and why.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from anet.cli import _cmd_qp, build_parser
from anet.cutlang import build_cut_acceptor, cut_params
from anet.errors import AnetError
from anet.mealy import compile_mealy, machine_from_tsv
from anet.network import network_to_text
from anet.partition import build_partition_exhaustive, build_partition_refined, extrapolation_table, fire_states
from anet.protocol import Alphabet, enumerate_language, run_online, trace_tsv
from anet.quotient import FIRST_MINUS_SECOND, SECOND_MINUS_FIRST, QuotientSpec, build_quotient_network
from anet.rationals import format_rational
from anet.reduction import ReductionSpec, build_reduction
from conftest import make_protocol_net, make_skeleton_net

CORPUS = Path(__file__).with_name("corpus.json")

SUFFIX_PAIRS = (("1", "1"), ("1", "0"), ("0", "10"))


def _cut_bases(count: int = 40) -> list[tuple[F, F]]:
    """Distinct pairs of a cube base (a/b)^3, 1 <= b < a <= 6 coprime, and a threshold n/d, d <= 12."""
    rng = random.Random(1501)
    bases = [(a, b) for a in range(2, 7) for b in range(1, a) if gcd(a, b) == 1]
    out: dict[tuple[F, F], None] = {}
    while len(out) < count:
        a, b = rng.choice(bases)
        d = rng.randint(2, 12)
        out[F(a**3, b**3), F(rng.randint(1, d - 1), d)] = None
    return list(out)


def _machines(count: int = 20) -> list[tuple[str, str]]:
    """(name, TSV) of two-state machines over 0 and 1: seeded transitions, acceptance and emissions."""
    rng = random.Random(1502)
    out = []
    for _ in range(count):
        accepting = {s: rng.randint(0, 1) for s in "pq"}
        rows = [(s, c, rng.choice("pq"), rng.choice(("-", "0", "1", "10")), accepting[s]) for s in "pq" for c in "01"]
        name = "machine " + ", ".join(" ".join(map(str, row)) for row in rows)
        out.append((name, "".join("%s\t%s\t%s\t%s\t%d\n" % row for row in rows)))
    return out


def _name(base: F, threshold: F) -> str:
    return "cut %s %s" % (format_rational(base), format_rational(threshold))


def _raised(build) -> str:
    """build()'s text, or the class and message of the AnetError it raises."""
    try:
        return build()
    except AnetError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def cut_acceptor_texts() -> dict[str, str]:
    return {_name(*bt): network_to_text(build_cut_acceptor(cut_params(*bt))) for bt in _cut_bases()}


def compiled_machine_texts() -> dict[str, str]:
    return {name: network_to_text(compile_mealy(machine_from_tsv(tsv))[0]) for name, tsv in _machines()}


def quotient_texts() -> dict[str, str]:
    """30 bases, the first 15 cut acceptors and the first 15 machines, 3 suffix pairs, both modes."""
    bases = [(_name(*bt), build_cut_acceptor(cut_params(*bt))) for bt in _cut_bases()[:15]]
    bases += [(name, compile_mealy(machine_from_tsv(tsv))[0]) for name, tsv in _machines()[:15]]
    out = {}
    for name, base in bases:
        for first, second in SUFFIX_PAIRS:
            for mode in (SECOND_MINUS_FIRST, FIRST_MINUS_SECOND):
                spec = QuotientSpec(base=base, first=first, second=second, mode=mode)
                out["%s | %s %s %s" % (name, first, second, mode)] = _raised(
                    lambda: network_to_text(build_quotient_network(spec).network)
                )
    return out


def fire_states_and_refined_pairs() -> dict[str, str]:
    """make_protocol_net 0-199: the fire states, and the refined pairs over 1 and 01 from them."""
    out = {}
    for seed in range(200):
        net = make_protocol_net(seed)

        def text():
            starts = fire_states(net)
            pairs = build_partition_refined(net, ("1", "01"), starts=starts).pairs
            fire = " ".join("".join(map(str, bits)) for bits in starts)
            return "%s\n%s" % (fire, " ".join("%s,%d" % (format_rational(p.a), p.b) for p in pairs))

        out["protocol net %d" % seed] = _raised(text)
    return out


def reduction_texts() -> dict[str, str]:
    """Criterion 7's three reductions."""
    from test_acceptance import ALL_TSV, MOD3_TSV, PARITY_TSV

    parity = compile_mealy(machine_from_tsv(PARITY_TSV))[0]
    quotient = build_quotient_network(QuotientSpec(base=parity, first="1", second="1", mode=SECOND_MINUS_FIRST))
    specs = {
        "accept-all": (compile_mealy(machine_from_tsv(ALL_TSV))[0], ("0000",) * 5, None),
        "mod-3": (
            compile_mealy(machine_from_tsv(MOD3_TSV))[0],
            ("aaaa", "aaaa", "bbbb", "bbbb", "bbbb"),
            Alphabet.of("ab"),
        ),
        "parity quotient": (quotient.network, ("1110", "0110", "1000", "1011", "0001"), None),
    }
    return {
        name: network_to_text(build_reduction(ReductionSpec(inner=inner, words=words, alphabet=alpha)).network)
        for name, (inner, words, alpha) in specs.items()
    }


def languages() -> dict[str, str]:
    """Accepted words to length 8 of the cut acceptors, and to length 6 of make_protocol_net 0-59."""
    nets = [(_name(*bt), build_cut_acceptor(cut_params(*bt)), 8) for bt in _cut_bases()]
    nets += [("protocol net %d" % seed, make_protocol_net(seed), 6) for seed in range(60)]
    return {
        name: _raised(lambda: " ".join(sorted(enumerate_language(net, n), key=lambda w: (len(w), w))))
        for name, net, n in nets
    }


def traces() -> dict[str, str]:
    """anet trace's text of seeded words of lengths 0, 5, ..., 40 on the cut acceptors and the machines."""
    rng = random.Random(1503)
    nets = [(_name(*bt), build_cut_acceptor(cut_params(*bt))) for bt in _cut_bases()]
    nets += [(name, compile_mealy(machine_from_tsv(tsv))[0]) for name, tsv in _machines()]
    out = {}
    for name, net in nets:
        for n in range(0, 41, 5):
            word = "".join(rng.choice("01") for _ in range(n))
            out["%s | %s" % (name, word or "eps")] = _raised(lambda: trace_tsv(run_online(net, word), net))
    return out


def _tables(net, res, words) -> str:
    """res's pairs, then per word the word and its table rows as bits, interval index and verdict."""
    lines = [" ".join("%s,%d" % (format_rational(p.a), p.b) for p in res.pairs)]
    for word in words:
        lines.append(word)
        rows = sorted(extrapolation_table(net, res, word).rows.items())
        lines += ["%s %d %d" % ("".join(map(str, bits)), idx, v) for (bits, idx), v in rows]
    return "\n".join(lines)


def extrapolation_tables() -> dict[str, str]:
    """make_skeleton_net 0-59, refined over 0 and 00 and exhaustive at horizon 2 for 0; make_protocol_net
    0-59, refined from the fire states over 1 and 01."""
    out = {}
    for seed in range(60):
        net = make_skeleton_net(seed)
        out["skeleton net %d | refined 0,00" % seed] = _raised(
            lambda: _tables(net, build_partition_refined(net, ("0", "00")), ("0", "00"))
        )
        out["skeleton net %d | exhaustive 2" % seed] = _raised(
            lambda: _tables(net, build_partition_exhaustive(net, 2), ("0",))
        )
    for seed in range(60):
        net = make_protocol_net(seed)
        out["protocol net %d | refined 1,01" % seed] = _raised(
            lambda: _tables(net, build_partition_refined(net, ("1", "01"), starts=fire_states(net)), ("1", "01"))
        )
    return out


def qp_outputs() -> dict[str, str]:
    """anet qp's stdout at the default depth for the cut pairs, and for two pairs near its bounds."""
    pairs = [(format_rational(b), format_rational(t)) for b, t in _cut_bases()]
    pairs += [("2305843009213693952/2305843009213693951", "1/3"), ("9/8", "2/3")]
    return {"qp %s %s" % pair: _raised(lambda: _cmd_qp(build_parser().parse_args(["qp", *pair]))) for pair in pairs}


FAMILIES = {
    "cut acceptor texts": cut_acceptor_texts,
    "compiled machine texts": compiled_machine_texts,
    "quotient texts": quotient_texts,
    "fire states and refined pairs": fire_states_and_refined_pairs,
    "reduction texts": reduction_texts,
    "languages": languages,
    "traces": traces,
    "extrapolation tables": extrapolation_tables,
    "qp outputs": qp_outputs,
}


def digests(family: str) -> dict[str, str]:
    return {name: hashlib.md5(text.encode()).hexdigest() for name, text in FAMILIES[family]().items()}


def first_difference(got: dict[str, str], want: dict[str, str]) -> str | None:
    """The first artifact, in the committed order, whose digest differs or that is missing or new."""
    for name, digest in want.items():
        if got.get(name) != digest:
            return "%r: %s, committed %s" % (name, got.get(name, "missing"), digest)
    extra = [name for name in got if name not in want]
    return "%r: not in the committed corpus" % extra[0] if extra else None


@pytest.mark.parametrize("family", FAMILIES)
def test_corpus_is_unchanged(family):
    want = json.loads(CORPUS.read_text(encoding="utf-8"))[family]
    assert first_difference(digests(family), want) is None


def test_first_difference_names_the_artifact():
    want = {"a": "1", "b": "2", "c": "3"}
    assert first_difference(dict(want), want) is None
    assert first_difference({"a": "1", "b": "9", "c": "8"}, want) == "'b': 9, committed 2"
    assert first_difference({"a": "1", "c": "3"}, want) == "'b': missing, committed 2"
    assert first_difference({**want, "d": "4"}, want) == "'d': not in the committed corpus"


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({family: digests(family) for family in FAMILIES}, indent=1) + "\n", encoding="utf-8")
