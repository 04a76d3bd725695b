"""Online acceptor protocol: feeding symbols on demand and reading verdicts.

A network requests its next input symbol by firing its nxt unit; the symbol is
clamped one hot onto the input units at the following instant (a query
instant), and the input units are forced to zero everywhere else. The verdict
for the prefix consumed so far appears on the out unit output_delay steps
after the next query instant. One formal extra symbol (the first letter of the
alphabet) is appended so the verdict of the full word can be read.

Query gaps have one rule. A feed that finds no query instant within the
declared bound of the previous one raises QueryGapError; whether it raises
depends only on the session state, never on the symbol. enumerate_language,
compare_languages, accepts and run_online pass the error on (the CLI exits
with code 4); the brute-force quotient oracle and partition.probe_verdict
count it as a rejection.

Feeds and drains are memoized per network: the steps taken, the final
configuration and the verdicts settled depend only on the input unit (none
for a drain), the configuration, the steps since the last query and the
pending verdict offsets. The memo holds at most FEED_MEMO_LIMIT entries and
is cleared when full; trace-mode sessions always step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import QueryGapError, ValidationError
from .network import Configuration, Network
from .rationals import format_rational

_DIGITS = "0123456789"

# Entries kept in one network's feed memo before it is cleared.
FEED_MEMO_LIMIT = 256


@dataclass(frozen=True)
class Alphabet:
    """Ordered input symbols; position k drives the k-th declared input unit."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValidationError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")

    @staticmethod
    def of(symbols: Iterable[str] | str) -> "Alphabet":
        return Alphabet(tuple(symbols))

    @staticmethod
    def default_for(net: Network) -> "Alphabet":
        q = len(net.input_units)
        if q > len(_DIGITS):
            raise ValidationError("no default alphabet for %d input units" % q)
        return Alphabet(tuple(_DIGITS[:q]))

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValidationError("symbol %r not in alphabet %r" % (symbol, self.symbols)) from None

    @property
    def formal_extra(self) -> str:
        return self.symbols[0]

    def words(self, length: int) -> Iterable[str]:
        if length == 0:
            yield ""
            return
        for prefix in self.words(length - 1):
            for s in self.symbols:
                yield prefix + s


class RunSession:
    """Mutable protocol run, cloneable so enumeration can share prefixes."""

    __slots__ = (
        "net",
        "alphabet",
        "cfg",
        "t",
        "query_times",
        "symbols",
        "_due",
        "verdicts",
        "rows",
        "_trace",
    )

    def __init__(
        self,
        net: Network,
        alphabet: Alphabet | None = None,
        start: Configuration | None = None,
        trace: bool = False,
    ):
        if alphabet is None:
            alphabet = Alphabet.default_for(net)
        if len(alphabet.symbols) != len(net.input_units):
            raise ValidationError(
                "alphabet size %d does not match %d input units"
                % (len(alphabet.symbols), len(net.input_units))
            )
        self.net = net
        self.alphabet = alphabet
        self.cfg = start if start is not None else net.initial_configuration()
        self.t = 0
        self.query_times: list[int] = []
        self.symbols: list[str] = []
        self._due: list[tuple[int, int]] = []
        self.verdicts: dict[int, bool] = {}
        self._trace = trace
        self.rows: list[tuple[int, Configuration]] = [(0, self.cfg)] if trace else []

    def clone(self) -> "RunSession":
        other = RunSession.__new__(RunSession)
        other.net = self.net
        other.alphabet = self.alphabet
        other.cfg = self.cfg
        other.t = self.t
        other.query_times = list(self.query_times)
        other.symbols = list(self.symbols)
        other._due = list(self._due)
        other.verdicts = dict(self.verdicts)
        other._trace = self._trace
        other.rows = list(self.rows)
        return other

    def _advance(self, inputs_next) -> None:
        self.cfg = self.net.step(self.cfg, inputs_next)
        self.t += 1
        if self._trace:
            self.rows.append((self.t, self.cfg))
        if self._due and self._due[0][0] == self.t:
            _, k = self._due.pop(0)
            self.verdicts[k] = bool(self.cfg.binary[self.net.out - 1])

    def feed(self, symbol: str) -> None:
        """Advance to the next query instant and clamp the symbol there."""
        self._segment(self.net.input_units[self.alphabet.index(symbol)], symbol)

    def drain(self) -> None:
        """Run past the last query far enough to settle every scheduled verdict."""
        if self._due:
            self._segment(None, None)

    def _segment(self, unit: int | None, symbol: str | None) -> None:
        """One feed, or the drain when unit is None, replayed from the memo if it is there."""
        if self._trace:
            self._steps(unit, symbol)
            return
        t0, n0 = self.t, len(self.symbols)
        last = self.query_times[-1] if self.query_times else 0
        due = tuple((d - t0, k - n0) for d, k in self._due)
        # the analog value enters as its integers, which hash and compare in C
        key = (unit, self.cfg.binary, self.cfg.analog.as_integer_ratio(), last - t0, due)
        memo = self.net.__dict__.setdefault("_feed_memo", {})  # cached like the step plan
        hit = memo.get(key)
        if hit is None:
            pending = [k for _, k in self._due] + [n0]
            self._steps(unit, symbol)  # no entry when this raises
            if len(memo) >= FEED_MEMO_LIMIT:
                memo.clear()
            settled = tuple((k - n0, self.verdicts[k]) for k in pending if k in self.verdicts)
            memo[key] = (self.t - t0, self.cfg, settled, tuple((d - t0, k - n0) for d, k in self._due))
            return
        steps, self.cfg, settled, due_after = hit
        self.t = t0 + steps
        if symbol is not None:
            self.query_times.append(self.t)
            self.symbols.append(symbol)
        for k, verdict in settled:
            self.verdicts[n0 + k] = verdict
        self._due = [(t0 + d, n0 + k) for d, k in due_after]

    def _steps(self, unit: int | None, symbol: str | None) -> None:
        if unit is None:
            while self._due:
                self._advance(None)
            return
        deadline = (self.query_times[-1] if self.query_times else 0) + self.net.delta
        while True:
            fires = self.cfg.binary[self.net.nxt - 1] == 1
            if self.t + 1 > deadline:
                raise QueryGapError(
                    "no query by t=%d (previous query at t=%d, bound %d)"
                    % (deadline, deadline - self.net.delta, self.net.delta)
                )
            self._advance({unit: 1} if fires else None)
            if fires:
                tau = self.t
                self.query_times.append(tau)
                self.symbols.append(symbol)
                k = len(self.symbols) - 1  # verdict for the prefix before this symbol
                self._due.append((tau + self.net.output_delay, k))
                if self.net.output_delay == 0:
                    # due entry for tau itself was appended after the step; settle now
                    self._due.pop()
                    self.verdicts[k] = bool(self.cfg.binary[self.net.out - 1])
                return

    def verdict_after(self, suffix: str = "") -> bool:
        """Verdict for the consumed prefix followed by suffix; this session is unchanged.

        A clone is fed the suffix and the formal extra symbol, then drained.
        QueryGapError passes through.
        """
        probe = self.clone()
        for sym in suffix:
            probe.feed(sym)
        probe.feed(self.alphabet.formal_extra)
        probe.drain()
        return probe.verdicts[len(self.symbols) + len(suffix)]


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one protocol run."""

    word: str
    rows: tuple[tuple[int, Configuration], ...]
    query_times: tuple[int, ...]
    symbols: tuple[str, ...]
    verdicts: tuple[bool, ...]

    @property
    def accepted(self) -> bool:
        return self.verdicts[-1]


def run_online(net: Network, word: str | Sequence[str], alphabet: Alphabet | None = None) -> RunTrace:
    """Run the full protocol on word, append the formal extra symbol, settle verdicts."""
    net.require_valid()
    session = RunSession(net, alphabet, trace=True)
    word_str = word if isinstance(word, str) else "".join(word)
    for sym in word_str:
        session.feed(sym)
    session.feed(session.alphabet.formal_extra)
    session.drain()
    n = len(word_str)
    verdicts = tuple(session.verdicts[k] for k in range(n + 1))
    return RunTrace(
        word=word_str,
        rows=tuple(session.rows),
        query_times=tuple(session.query_times),
        symbols=tuple(session.symbols),
        verdicts=verdicts,
    )


def accepts(net: Network, word: str | Sequence[str], alphabet: Alphabet | None = None) -> bool:
    """Final verdict for the whole word."""
    net.require_valid()
    word_str = word if isinstance(word, str) else "".join(word)
    return RunSession(net, alphabet).verdict_after(word_str)


def walk_words(root: RunSession, max_len: int) -> Iterator[tuple[str, RunSession]]:
    """Every word of length at most max_len, depth first, with a session that consumed it.

    Children are cloned from their parent's session, one feed per tree node.
    A feed raises QueryGapError for every symbol or for none, and the node's
    own verdict probe meets the error first; such a node gets no children.
    """
    stack: list[tuple[RunSession, str]] = [(root, "")]
    while stack:
        session, word = stack.pop()
        yield word, session
        if len(word) < max_len:
            for sym in root.alphabet.symbols:
                child = session.clone()
                try:
                    child.feed(sym)
                except QueryGapError:
                    break
                stack.append((child, word + sym))


def enumerate_language(net: Network, max_len: int, alphabet: Alphabet | None = None) -> set[str]:
    """All accepted words of length at most max_len; QueryGapError passes through."""
    net.require_valid()
    walk = walk_words(RunSession(net, alphabet), max_len)
    return {word for word, session in walk if session.verdict_after()}


def compare_languages(
    net_a: Network,
    net_b: Network,
    max_len: int,
    alphabet: Alphabet | None = None,
    max_witnesses: int = 10,
) -> tuple[bool, list[str]]:
    """Set equality of the two accepted languages up to max_len, with witnesses."""
    la = enumerate_language(net_a, max_len, alphabet)
    lb = enumerate_language(net_b, max_len, alphabet)
    if la == lb:
        return True, []
    diff = sorted(la ^ lb, key=lambda w: (len(w), w))
    return False, diff[:max_witnesses]


def trace_tsv(trace: RunTrace, net: Network) -> str:
    """Tab separated trace: t, y_1 .. y_s in canonical rational text, note."""
    notes: dict[int, list[str]] = {}
    for k, tau in enumerate(trace.query_times):
        label = trace.symbols[k]
        formal = " (formal)" if k == len(trace.query_times) - 1 else ""
        notes.setdefault(tau, []).append("x%d=%s%s" % (k + 1, label, formal))
    for k, verdict in enumerate(trace.verdicts):
        if k < len(trace.query_times):
            at = trace.query_times[k] + net.output_delay
            word = trace.word[:k] if k else "eps"
            notes.setdefault(at, []).append(
                "%s %s" % (word, "accepted" if verdict else "rejected")
            )
    header = ["t"] + ["y_%d" % j for j in range(1, net.size + 1)] + ["note"]
    lines = ["\t".join(header)]
    for t, cfg in trace.rows:
        cells = [str(t)]
        cells.extend(str(b) for b in cfg.binary)
        cells.append(format_rational(cfg.analog))
        cells.append("; ".join(notes.get(t, [])))
        lines.append("\t".join(cells))
    lines.append("")  # the trailing newline, without a second copy of the whole text
    return "\n".join(lines)
