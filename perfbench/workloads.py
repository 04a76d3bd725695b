"""The four seeded workloads, their inputs and their oracles.

A job is one construction plus its language check. Jobs are grouped in
rounds; a run executes whole rounds, so a workload whose jobs come in two
kinds (quotient, deep) always measures them in equal numbers. Round 0 holds
the anchor job: the acceptance criterion's own input, the same for every
seed. Round k > 0 is drawn from ``random.Random("<workload>/<seed>/<k>")``,
so the same seed gives the same inputs whatever the run length.

Every oracle is independent of the construction it checks:

- cut-tree: ``reversal_member`` on every word of the tree;
- reduction-cli: ``accepts_word`` on a ``MealyMachine`` built directly from
  the generated table, through ``word_scheme``;
- quotient: ``quotient_difference_language`` on the base network;
- deep: the qp orbit replayed with integer arithmetic here, and each prefix
  verdict from an exact incremental value of the reversed prefix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import anet
from anet import cli

CUT_TREE_LEN = 13
REDUCTION_ENUM_LEN = 14
QUOTIENT_ENUM_LEN = 10
QP_DEPTH = 1000
# Word lengths of the deep jobs. For base 27/8 the analog denominator is
# 3**t at step t (three steps per symbol), so a trace passes Python's
# 4,300-digit int-to-str limit near 3,004 symbols: SHORT stays under the
# limit and LONG passes it.
DEEP_SHORT = (2750, 2900)
DEEP_LONG = (3100, 3300)

WORKLOADS = ("cut-tree", "reduction-cli", "quotient", "deep")


@dataclass
class Outcome:
    """What one job produced and how it compared with its oracle."""

    verdicts_ok: int  # verdicts decided by the network and equal to the oracle
    verdicts: int  # verdicts the oracle expected
    digest: str  # sha256 of the job's full output, for tracer neutrality
    error: str | None = None  # exception raised by the code under test

    @property
    def ok(self) -> bool:
        return self.error is None and self.verdicts_ok == self.verdicts


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _binary_words(max_len: int) -> list[str]:
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + d for w in frontier for d in "01"]
        words.extend(frontier)
    return words


def _tree_size(q: int, max_len: int) -> int:
    return sum(q**k for k in range(max_len + 1))


def _set_outcome(got: set[str], want: set[str], universe: int, *parts: str) -> Outcome:
    return Outcome(
        verdicts_ok=universe - len(got ^ want),
        verdicts=universe,
        digest=_digest(*parts, "\n".join(sorted(got, key=lambda w: (len(w), w)))),
    )


# -- cut-tree ----------------------------------------------------------------


class CutTree:
    """Eight-unit cut acceptors enumerated to length 13, checked word by word."""

    speed = "interpreter"  # the calibration its job times are scaled by (run.py)

    def __init__(self):
        self.universe = _binary_words(CUT_TREE_LEN)

    def round(self, k: int, rng: random.Random | None):
        if rng is None:
            return [anet.cut_params(Fraction(27, 8), Fraction(1, 4))]
        # cube base (a/b)^3 with 1 <= b < a <= 5 coprime, threshold n/d in (0, 1)
        a = rng.randint(2, 5)
        b = rng.choice([b for b in range(1, a) if gcd(a, b) == 1])
        d = rng.randint(2, 12)
        return [anet.cut_params(Fraction(a**3, b**3), Fraction(rng.randint(1, d - 1), d))]

    def run(self, params, workdir) -> Outcome:
        net = anet.build_cut_acceptor(params)
        got = anet.enumerate_language(net, CUT_TREE_LEN)
        want = {w for w in self.universe if anet.reversal_member(w, params)}
        return _set_outcome(got, want, len(self.universe))


# -- reduction-cli -----------------------------------------------------------

MOD3_ROWS = (
    ("S", "a", "qa1", 0), ("S", "b", "D", 0),
    ("qa1", "a", "qa2", 0), ("qa1", "b", "qb0", 0),
    ("qa2", "a", "qa0", 0), ("qa2", "b", "qb1", 0),
    ("qa0", "a", "qa1", 1), ("qa0", "b", "qb2", 1),
    ("qb0", "a", "D", 1), ("qb0", "b", "qb2", 1),
    ("qb1", "a", "D", 0), ("qb1", "b", "qb0", 0),
    ("qb2", "a", "D", 0), ("qb2", "b", "qb1", 0),
    ("D", "a", "D", 0), ("D", "b", "D", 0),
)
MOD3_WORDS = ("aaaa", "aaaa", "bbbb", "bbbb", "bbbb")


def _machine(rows) -> "anet.MealyMachine":
    states = tuple(dict.fromkeys(r[0] for r in rows))
    return anet.MealyMachine(
        states=states,
        input_symbols=tuple(dict.fromkeys(r[1] for r in rows)),
        transitions={(s, c): t for s, c, t, _ in rows},
        emissions={(s, c): "" for s, c, _, _ in rows},
        initial=rows[0][0],
        accepting=frozenset(s for s, _, _, acc in rows if acc),
    )


def _tsv(rows) -> str:
    return "".join("%s\t%s\t%s\t-\t%d\n" % row for row in rows)


class ReductionCli:
    """Transducer table -> compile-fa -> reduce -> enum 14, all through anet.cli.main."""

    speed = "interpreter"

    def round(self, k: int, rng: random.Random | None):
        if rng is None:
            return [(MOD3_ROWS, MOD3_WORDS)]
        states = ["s%d" % k for k in range(rng.randint(3, 8))]
        accepting = {s: rng.randint(0, 1) for s in states}
        rows = tuple((s, c, rng.choice(states), accepting[s]) for s in states for c in "ab")
        words = tuple(
            "".join(rng.choice("ab") for _ in range(rng.randint(4, 6))) for _ in range(5)
        )
        return [(rows, words)]

    def run(self, job, workdir) -> Outcome:
        rows, words = job
        tsv = os.path.join(workdir, "machine.tsv")
        inner = os.path.join(workdir, "inner.anet")
        spec = os.path.join(workdir, "front.spec")
        outer = os.path.join(workdir, "outer.anet")
        with open(tsv, "w", encoding="utf-8") as fp:
            fp.write(_tsv(rows))
        with open(spec, "w", encoding="utf-8") as fp:
            fp.write("inner=inner.anet\nalphabet=ab\n")
            fp.writelines("v%d=%s\n" % (k + 1, w) for k, w in enumerate(words))
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [
                cli.main(["compile-fa", tsv, inner]),
                cli.main(["reduce", spec, outer]),
            ]
            built = out.getvalue()
            out.seek(0)
            out.truncate()
            codes.append(cli.main(["enum", outer, str(REDUCTION_ENUM_LEN)]))
        if codes != [0, 0, 0]:
            return Outcome(0, 1, _digest(err.getvalue()), "exit codes %r: %s" % (codes, err.getvalue()))
        got = {"" if line == "eps" else line for line in out.getvalue().split("\n") if line}
        machine = _machine(rows)
        n = REDUCTION_ENUM_LEN
        want = {
            "0" * zeros + "1" * ones
            for zeros in range(1, n)
            for ones in range(1, n + 1 - zeros)
            if anet.accepts_word(machine, anet.word_scheme(words, zeros, ones))
        }
        with open(outer, encoding="utf-8") as fp:
            outer_text = fp.read()
        return _set_outcome(got, want, _tree_size(2, n), built, outer_text, out.getvalue())


# -- quotient ------------------------------------------------------------------

PARITY_ROWS = (("e", "0", "e", 1), ("e", "1", "o", 1), ("o", "0", "o", 0), ("o", "1", "e", 0))
MODES = (anet.SECOND_MINUS_FIRST, anet.FIRST_MINUS_SECOND)
SUFFIX_LENGTHS = ((1, 2), (2, 1), (1, 1))


class Quotient:
    """Quotient networks over a compiled 2-state transducer and over a cut acceptor.

    Each round holds one job of each kind. Seeded round k uses suffix lengths
    SUFFIX_LENGTHS[(k - 1) % 3] for both jobs, so the first seeded round,
    which every run holds, costs about the same whatever the seed: a first
    suffix of length 2 makes the transducer job up to twice as slow. Seeded
    cut bases are integer cubes a^3: their jobs take 2.7 to
    3.2 s, while a fractional base such as 64/27 takes up to 5.4 s and would
    make the run's median depend on which bases the seed drew. The anchor
    round keeps the fractional base 27/8 in every run.
    """

    speed = "interpreter"

    def round(self, k: int, rng: random.Random | None):
        if rng is None:
            # criterion 6: parity with suffixes 1, 1 and the 27/8, 3/8 cut base
            cut_base = anet.cut_params(Fraction(27, 8), Fraction(3, 8))
            return [
                (PARITY_ROWS, "1", "1", anet.SECOND_MINUS_FIRST),
                (cut_base, "1", "0", anet.SECOND_MINUS_FIRST),
            ]
        accepting = {s: rng.randint(0, 1) for s in "pq"}
        rows = tuple((s, c, rng.choice("pq"), accepting[s]) for s in "pq" for c in "01")
        d = rng.randint(2, 12)
        cut = anet.cut_params(Fraction(rng.randint(2, 5) ** 3), Fraction(rng.randint(1, d - 1), d))
        lengths = SUFFIX_LENGTHS[(k - 1) % len(SUFFIX_LENGTHS)]
        return [(rows,) + self._suffixes(rng, lengths), (cut,) + self._suffixes(rng, lengths)]

    @staticmethod
    def _suffixes(rng, lengths):
        first_len, second_len = lengths
        first = "".join(rng.choice("01") for _ in range(first_len))
        second = "".join(rng.choice("01") for _ in range(second_len))
        return first, second, rng.choice(MODES)

    def run(self, job, workdir) -> Outcome:
        base_in, first, second, mode = job
        if isinstance(base_in, anet.CutParams):
            base = anet.build_cut_acceptor(base_in)
        else:
            base, _ = anet.compile_mealy(_machine(base_in))
        build = anet.build_quotient_network(anet.QuotientSpec(base, first, second, mode))
        got = anet.enumerate_language(build.network, QUOTIENT_ENUM_LEN)
        want = anet.quotient_difference_language(base, first, second, mode, QUOTIENT_ENUM_LEN)
        return _set_outcome(
            got, want, _tree_size(2, QUOTIENT_ENUM_LEN), anet.network_to_text(build.network)
        )


# -- deep ----------------------------------------------------------------------

DEEP_BASE = Fraction(27, 8)


class Deep:
    """qp_explore at depth 1000, then one run of 2,750-3,300 symbols rendered as TSV.

    Each round holds one SHORT and one LONG word, so exactly half of the jobs
    produce a trace that passes Python's int-to-str digit limit.
    """

    # Most of a job is big-integer arithmetic and int-to-str conversion in C,
    # whose speed does not follow the interpreter's: scaled by the
    # interpreter calibration, the same job varied more than unscaled.
    speed = "bigint"

    def round(self, k: int, rng: random.Random | None):
        if rng is None:
            # "10" repeated has as many digits per row as random bits, so this
            # short word sets the run's peak memory whatever the seed draws
            params = anet.cut_params(DEEP_BASE, Fraction(1, 4))
            return [(params, "10" * (DEEP_SHORT[1] // 2)), (params, "1" + "0" * 3200)]
        jobs = []
        for lo, hi in (DEEP_SHORT, DEEP_LONG):
            d = rng.randint(3, 16)
            num = rng.choice([n for n in range(1, d, 2) if gcd(n, d) == 1])
            params = anet.cut_params(DEEP_BASE, Fraction(num, d))
            jobs.append((params, self._word(rng, rng.randint(lo, hi))))
        return jobs

    @staticmethod
    def _word(rng, length):
        shape = rng.randrange(3)
        if shape == 0:
            return "".join(rng.choice("01") for _ in range(length))
        if shape == 1:
            return "1" + "0" * (length - 1)
        period = "1" + "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))
        return (period * (length // len(period) + 1))[:length]

    def run(self, job, workdir) -> Outcome:
        params, word = job
        outcome = anet.qp_explore(params, depth=QP_DEPTH)
        qp_text = "%s|%s|%s|%s" % (outcome.kind, outcome.growth_prime, outcome.explored_depth, outcome.detail)
        qp_ok = self._qp_matches(params, outcome)
        net = anet.build_cut_acceptor(params)
        trace = anet.run_online(net, word)
        want = _prefix_verdicts(params, word)
        try:
            text = anet.trace_tsv(trace, net)
        except ValueError as exc:
            return Outcome(0, len(want), _digest(qp_text, repr(exc)), "ValueError: %s" % exc)
        got = _rendered_verdicts(text)
        ok = sum(1 for g, w in zip(got, want) if g == w) if len(got) == len(want) else 0
        if not qp_ok:
            ok = 0
        return Outcome(ok, len(want), _digest(qp_text, text))

    @staticmethod
    def _qp_matches(params, outcome) -> bool:
        """Replay the all-zero orbit r_n = c * base^n and check the growth witness."""
        if (outcome.kind, outcome.growth_prime, outcome.explored_depth) != (
            "not_quasi_periodic_witness", 2, QP_DEPTH
        ):
            return False
        p, q = params.threshold.numerator, params.threshold.denominator
        a, b = params.base.numerator, params.base.denominator
        if len(outcome.orbit) != QP_DEPTH + 1:
            return False
        num, den = p, q
        for r in outcome.orbit:
            if r.numerator * den != num * r.denominator or r.numerator % 2 == 0:
                return False
            num, den = num * a, den * b
        return True


def _prefix_verdicts(params, word: str) -> list[bool]:
    """v_n = (v_{n-1} + x_n) / base, the value of the reversed prefix; accept iff v_n < c.

    With base = A/B, v_n = P_n / A^n and P_n = (P_{n-1} + x_n A^(n-1)) B.
    """
    A, B = params.base.numerator, params.base.denominator
    p, q = params.threshold.numerator, params.threshold.denominator
    P, A_prev = 0, 1
    out = [0 < p]
    for ch in word:
        if ch == "1":
            P += A_prev
        P *= B
        A_prev *= A
        out.append(P * q < p * A_prev)
    return out


def _rendered_verdicts(text: str) -> list[bool]:
    """Prefix verdicts in the order trace_tsv prints them in its note column."""
    got = []
    for line in text.split("\n")[1:]:
        note = line.rpartition("\t")[2]
        if not note:
            continue
        for entry in note.split("; "):
            if entry.endswith(" accepted"):
                got.append(True)
            elif entry.endswith(" rejected"):
                got.append(False)
    return got


def make(name: str):
    return {"cut-tree": CutTree, "reduction-cli": ReductionCli, "quotient": Quotient, "deep": Deep}[name]()


def round_rng(name: str, seed: int, k: int) -> random.Random | None:
    """None for the anchor round 0, else the seeded generator for round k."""
    return None if k == 0 else random.Random("%s/%d/%d" % (name, seed, k))
