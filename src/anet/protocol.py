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

A session keeps the protocol clock relative to now, so its state is its own
memo key: the final state and the verdicts settled by a feed or a drain
depend only on the input unit (none for a drain), the configuration, the
steps since the last query and the steps until each pending verdict. Feeds
and drains are memoized per network on that key. The memo holds at most
FEED_MEMO_LIMIT entries and is cleared when full; trace-mode sessions always
step.
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


def resolve_alphabet(net: Network, alphabet: Alphabet | None = None) -> Alphabet:
    """The alphabet a run of net reads: the default when None, else one of matching size."""
    if alphabet is None:
        return Alphabet.default_for(net)
    if len(alphabet.symbols) != len(net.input_units):
        raise ValidationError(
            "alphabet size %d does not match %d input units"
            % (len(alphabet.symbols), len(net.input_units))
        )
    return alphabet


class RunSession:
    """Mutable protocol run, cloneable so enumeration can share prefixes.

    The protocol state is kept relative to now: since counts the steps since
    the last query instant (or since the start), pending the steps until
    each scheduled verdict is read, oldest first. verdicts[k] is the verdict
    for the prefix of length k. Trace mode also records every configuration
    (rows[t] is the one at time t) and the query instants.
    """

    __slots__ = ("net", "alphabet", "cfg", "since", "pending", "verdicts", "rows", "queries")

    def __init__(
        self,
        net: Network,
        alphabet: Alphabet | None = None,
        start: Configuration | None = None,
        trace: bool = False,
    ):
        self.net = net
        self.alphabet = resolve_alphabet(net, alphabet)
        self.cfg = start if start is not None else net.initial_configuration()
        self.since = 0
        self.pending: tuple[int, ...] = ()
        self.verdicts: list[bool] = []
        self.rows: list[Configuration] | None = [self.cfg] if trace else None
        self.queries: list[int] | None = [] if trace else None

    def clone(self) -> "RunSession":
        other = RunSession.__new__(RunSession)
        other.net = self.net
        other.alphabet = self.alphabet
        other.cfg = self.cfg
        other.since = self.since
        other.pending = self.pending
        other.verdicts = list(self.verdicts)
        other.rows = None if self.rows is None else list(self.rows)
        other.queries = None if self.queries is None else list(self.queries)
        return other

    def feed(self, symbol: str) -> None:
        """Advance to the next query instant and clamp the symbol there."""
        self._segment(self.net.input_units[self.alphabet.index(symbol)])

    def drain(self) -> None:
        """Run past the last query far enough to settle every scheduled verdict."""
        if self.pending:
            self._segment(None)

    def _segment(self, unit: int | None) -> None:
        """One feed, or the drain when unit is None, replayed from the memo if it is there."""
        if self.rows is not None:
            self._steps(unit)
            return
        key = (unit, self.cfg, self.since, self.pending)  # ints and tuples of ints, hashed in C
        memo = self.net.__dict__.setdefault("_feed_memo", {})  # cached like the step plan
        hit = memo.get(key)
        if hit is None:
            settled = len(self.verdicts)
            self._steps(unit)  # no entry when this raises
            if len(memo) >= FEED_MEMO_LIMIT:
                memo.clear()
            memo[key] = (self.cfg, self.since, self.pending, tuple(self.verdicts[settled:]))
            return
        self.cfg, self.since, self.pending, settled = hit
        self.verdicts.extend(settled)

    def _steps(self, unit: int | None) -> None:
        """Step to the next query instant, or until no verdict is pending when unit is None."""
        net, rows = self.net, self.rows
        cfg, since, pending = self.cfg, self.since, self.pending
        nxt, out = net.nxt - 1, net.out - 1
        query = False
        try:
            while not query and (unit is not None or pending):
                if unit is not None and since >= net.delta:
                    raise QueryGapError("no query within %d steps of the previous one" % net.delta)
                query = unit is not None and cfg[0] >> nxt & 1
                cfg = net.step(cfg, {unit: 1} if query else None)
                since = 0 if query else since + 1
                pending = tuple(p - 1 for p in pending) if pending else ()
                if query:
                    pending += (net.output_delay,)
                if rows is not None:
                    rows.append(cfg)
                    if query:
                        self.queries.append(len(rows) - 1)
                while pending and pending[0] == 0:
                    self.verdicts.append(bool(cfg[0] >> out & 1))
                    pending = pending[1:]
        finally:  # the fields stay in step with the verdicts and rows, whatever raises
            self.cfg, self.since, self.pending = cfg, since, pending

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
        return probe.verdicts[-1]


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
    symbols = tuple(word_str) + (session.alphabet.formal_extra,)
    for sym in symbols:
        session.feed(sym)
    session.drain()
    return RunTrace(
        word=word_str,
        rows=tuple(enumerate(session.rows)),
        query_times=tuple(session.queries),
        symbols=symbols,
        verdicts=tuple(session.verdicts),
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
