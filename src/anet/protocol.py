"""Online acceptor protocol: feeding symbols on demand and reading verdicts.

A network requests its next input symbol by firing its nxt unit; the symbol is
clamped one hot onto the input units at the following instant (a query
instant), and the input units are forced to zero everywhere else. The verdict
for the prefix consumed so far appears on the out unit output_delay steps
after the next query instant. One formal extra symbol (the first letter of the
alphabet) is appended so the verdict of the full word can be read.

A protocol state is the value (cfg, since, pending): the configuration, the
steps since the last query (or the start) and the steps until each pending
verdict is read, oldest first. advance(net, state, unit) is the one
transition, a feed of unit or the drain when unit is None. probe(net, state,
units) is the one verdict: the units fed in turn, then the formal extra
symbol and the drain, with the last settled verdict as its outcome; verdict
resolves a suffix to its units and probes. Feeds and probes are served
alike, from two caches per network, each holding at most FEED_MEMO_LIMIT
entries and cleared when full. The feed memo is keyed on (unit, state) or
(units, state). A memo miss goes to the segment table, keyed on the state's
binary part (unit or units, mask, since, pending): from there the run is
piecewise affine in the analog value, and its outcome piecewise constant.
The table keeps the pieces learned so far, each an interval of the analog
value with the feed's next binary part, settled verdicts and affine map, the
probe's verdict, or a query-gap error. The first miss on a binary part
steps a feed and sends a probe's feeds through advance, and marks the part;
a later miss whose analog value lies in no known piece learns that one piece
with the symbolic stepper the partitions use. select_words walks the word
tree over states and keeps the words whose state passes a test; within one
walk, a node copies the words below an earlier node of the same state at the
same or a smaller depth, under the same bound, and the walk's nodes and kept
words, each weighed by its length plus one, are held to WALK_BUDGET.
run_online steps every instant past both caches and records every
configuration, query instant and verdict.

Query gaps have one rule. A feed that finds no query instant within the
declared bound of the previous one raises QueryGapError, and so does a probe
that makes such a feed; neither stores anything in the memo (the segment
table may keep the piece that raises it). Whether a feed raises depends only
on the state, never on the symbol.
enumerate_language, compare_languages, accepts and run_online pass the error
on (the CLI exits with code 4); the brute-force quotient oracle and
partition.probe_verdict count it as a rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import QueryGapError, ResourceBudgetError, ValidationError
from .network import _UNIT, Configuration, Network, _step_symbolic
from .rationals import format_rational

_DIGITS = "0123456789"

# Entries kept in one network's feed memo before it is cleared.
FEED_MEMO_LIMIT = 256

# Differing words compare_languages reports, shortest first.
MAX_WITNESSES = 10

# Cost a word-tree walk may spend, a node walked or a word kept costing its
# length plus one: 2^20 nodes and words of length 15, so a walk to length 15
# or less that keeps its nodes and words within 2^20 always fits.
WALK_BUDGET = 2**24


@dataclass(frozen=True)
class Alphabet:
    """Ordered input symbols; position k drives the k-th declared input unit."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValidationError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")
        if any(not isinstance(sym, str) or len(sym) != 1 for sym in self.symbols):
            raise ValidationError("alphabet symbols must be single characters, got %r" % (self.symbols,))

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


State = tuple  # (cfg, since, pending): a Configuration, an int and a tuple of ints


def advance(net: Network, state: State, unit: int | None) -> tuple[State, tuple[bool, ...]]:
    """One feed of unit, or the drain when unit is None: the new state and the verdicts it settled.

    Memoized per network on (unit, state). A memo miss is served from the
    segment table when a learned piece of the state's binary part holds its
    analog value, and stepped otherwise; see _segment_feed.
    """
    return _resolve(net, state, unit)


def probe(net: Network, state: State, units: tuple[int, ...] = ()) -> bool:
    """The verdict after state, the input units fed in turn, the formal extra symbol and the drain.

    One lookup, through the same memo and segment table as advance, keyed
    on units; QueryGapError passes through.
    """
    return _resolve(net, state, units)


def _resolve(net: Network, state: State, key):
    """advance's or probe's outcome: the feed memo, keyed on (key, state), else _segment_feed."""
    memo = net.__dict__.setdefault("_feed_memo", {})  # cached like the step plan
    hit = memo.get((key, state))  # ints and tuples of ints, hashed in C
    if hit is None:
        hit = _segment_feed(net, state, key)  # no entry when this raises
        if len(memo) >= FEED_MEMO_LIMIT:
            memo.clear()
        memo[key, state] = hit
    return hit


class _Segments(dict):
    """The segment table: binary part (key, mask, since, pending) -> its learned pieces.

    A part met once is marked with an empty list. entries counts the marks
    and the pieces; the table is cleared when a new one would pass
    FEED_MEMO_LIMIT, and a piece learned then is used once and not kept.
    """

    entries = 0

    def add(self, key, piece=None) -> None:
        if self.entries >= FEED_MEMO_LIMIT:
            self.clear()
            self.entries = 0
            if piece is not None:
                return
        if piece is None:
            self[key] = []
        else:
            self[key].append(piece)
        self.entries += 1


def _segment_feed(net: Network, state: State, key):
    """advance or probe past the memo: through a learned piece of the state's binary part, else by feeding.

    key is a unit, None (the drain) or a tuple of units (a probe). From a
    fixed binary part the run to the next query instant, or the end of the
    drain, or the end of a whole probe, is piecewise affine in the analog
    value y, and so is its outcome piecewise constant. A piece is (ln, ld,
    ls, hn, hd, hs, outcome), an interval in network._step_symbolic's form.
    outcome is the QueryGapError message, a probe's verdict, or (mask,
    since, pending, settled, an, bn, d), the feed ending at the analog value
    (an + bn*y)/d. The first miss on a binary part marks it and runs the
    feed by stepping, or the probe through advance; a later miss in no
    known piece learns the one that holds y.
    """
    (mask, p, q), since, pending = state
    part = (key, mask, since, pending)
    table = net.__dict__.get("_segments")
    if table is None:
        table = net.__dict__["_segments"] = _Segments()
    pieces = table.get(part)
    if pieces is None:
        table.add(part)
        if type(key) is tuple:
            return _verdict_of(net, state, key, advance)
        return _steps(net, state, key)
    for ln, ld, ls, hn, hd, hs, outcome in pieces:
        if p * ld - ln * q >= ls and hn * q - p * hd >= hs:
            break
    else:
        piece = _learn_piece(net, state, key)
        table.add(part, piece)
        outcome = piece[-1]
    if type(outcome) is str:
        raise QueryGapError(outcome)
    if type(key) is tuple:
        return outcome
    mask, since, pending, settled, an, bn, d = outcome
    g = gcd(bn, q)  # gcd(p, q) = 1, so gcd(an*q + bn*p, q) = gcd(bn, q)
    num, den = (an * q + bn * p) // g, q // g
    g = gcd(num, d)  # num is now coprime to den, so only the small d shares factors
    return (tuple.__new__(Configuration, (mask, num // g, d // g * den)), since, pending), settled


def _verdict_of(net: Network, state: State, units: tuple[int, ...], feed) -> bool:
    """The verdict after state and units, each fed by feed(net, state, unit) like advance.

    The formal extra symbol follows, then the drain when a verdict is
    pending; the formal symbol's verdict is the last one settled.
    """
    for unit in units:
        state = feed(net, state, unit)[0]
    end, settled = feed(net, state, net.input_units[0])
    if end[2]:
        settled = feed(net, end, None)[1]
    return settled[-1]


def _learn_piece(net: Network, state: State, key) -> tuple:
    """The piece of state's binary part that holds its analog value, as _segment_feed keeps it.

    The run is stepped symbolically from y in [0, 1], following at each step
    the one successor whose piece holds the state's analog value, through
    _steps' own clock, over the feed or the drain, or over the whole probe;
    the last branch's piece is the piece, and its analog value the feed's map.
    """
    mask, p, q = state[0]
    branch = (_UNIT, mask, 0, 1, 1)

    def follow(_, inputs):
        nonlocal branch
        for branch in _step_symbolic(net, branch, inputs or {}):
            ln, ld, ls, hn, hd, hs = branch[0]
            if p * ld - ln * q >= ls and hn * q - p * hd >= hs:
                return (branch[1],)

    def feed(net, state, unit):
        return _steps(net, state, unit, step=follow)

    try:
        if type(key) is tuple:
            outcome = _verdict_of(net, state, key, feed)
        else:
            (_, since, pending), settled = feed(net, state, key)
            outcome = (branch[1], since, pending, settled, *branch[2:])
    except QueryGapError as exc:
        outcome = str(exc)
    return (*branch[0], outcome)


def _steps(net: Network, state: State, unit: int | None, rows: list | None = None, step=None):
    """Step to the next query instant, or until no verdict is pending when unit is None.

    Each configuration is appended to rows when rows is given. step(cfg,
    inputs) is net.step unless given; the loop reads only cfg[0], the mask.
    """
    step = step or net.step
    cfg, since, pending = state
    nxt, out = net.nxt - 1, net.out - 1
    settled: list[bool] = []
    query = False
    while not query and (unit is not None or pending):
        if unit is not None and since >= net.delta:
            raise QueryGapError("no query within %d steps of the previous one" % net.delta)
        query = unit is not None and cfg[0] >> nxt & 1
        cfg = step(cfg, {unit: 1} if query else None)
        since = 0 if query else since + 1
        pending = tuple(p - 1 for p in pending) if pending else ()
        if query:
            pending += (net.output_delay,)
        if rows is not None:
            rows.append(cfg)
        while pending and pending[0] == 0:
            settled.append(bool(cfg[0] >> out & 1))
            pending = pending[1:]
    return (cfg, since, pending), tuple(settled)


def suffix_units(net: Network, suffix: str, alphabet: Alphabet | None = None) -> tuple[int, ...]:
    """The input units that feed suffix's symbols, in order."""
    if not suffix:
        return ()
    alphabet = resolve_alphabet(net, alphabet)
    return tuple(net.input_units[alphabet.index(sym)] for sym in suffix)


def verdict(net: Network, state: State, suffix: str = "", alphabet: Alphabet | None = None) -> bool:
    """Verdict for the word that led to state followed by suffix; QueryGapError passes through.

    The suffix and the formal extra symbol are fed, then the run is drained;
    the formal symbol's verdict is the last one settled. The whole probe is
    one probe() lookup, in the memo and the segment table that serve advance,
    so a verdict keeps no cache of its own.
    """
    return probe(net, state, suffix_units(net, suffix, alphabet))


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
    """Step word and the formal extra symbol past the memo, then drain; rows[t] is time t."""
    alphabet = resolve_alphabet(net, alphabet)
    word_str = word if isinstance(word, str) else "".join(word)
    symbols = tuple(word_str) + (alphabet.formal_extra,)
    state: State = (net.initial_configuration(), 0, ())
    rows, queries, verdicts = [state[0]], [], []
    for sym in symbols:
        state, settled = _steps(net, state, net.input_units[alphabet.index(sym)], rows)
        queries.append(len(rows) - 1)  # a feed ends at its query instant
        verdicts.extend(settled)
    verdicts.extend(_steps(net, state, None, rows)[1])
    return RunTrace(
        word=word_str,
        rows=tuple(enumerate(rows)),
        query_times=tuple(queries),
        symbols=symbols,
        verdicts=tuple(verdicts),
    )


def accepts(net: Network, word: str | Sequence[str], alphabet: Alphabet | None = None) -> bool:
    """Final verdict for the whole word."""
    return verdict(net, (net.initial_configuration(), 0, ()), "".join(word), resolve_alphabet(net, alphabet))


def select_words(net: Network, alphabet: Alphabet, max_len: int, keep: Callable[[State], bool]) -> list[str]:
    """Every word of length at most max_len whose state passes keep, depth first.

    A child's state is one advance from its parent's. A feed raises
    QueryGapError for every symbol or for none, and keep meets the error
    first if it feeds; such a node gets no children. A node's words depend
    only on its state and remaining length, and a subtree walked to a smaller
    remaining length is the larger one's preorder with the longer words
    dropped. So the walk records, per state, the remaining length, prefix
    length and span in its output of the last finished subtree, at most
    FEED_MEMO_LIMIT states at a time, and a node that meets its state
    recorded with at least its own remaining length copies those words under
    its own prefix, longer ones dropped, instead of walking the subtree again.
    A subtree whose walk raised is never recorded. Each node walked and each
    word kept, copies included, costs its length plus one, so the budget
    bounds the walk's memory whatever max_len is; a walk whose cost would
    pass WALK_BUDGET raises ResourceBudgetError, before a copy that would
    pass it.
    """
    if max_len < 0:
        raise ValidationError("length bound must be nonnegative, got %d" % max_len)
    steps = [(sym, net.input_units[k]) for k, sym in enumerate(alphabet.symbols)]
    out: list[str] = []
    spans: dict[State, tuple[int, int, int, int]] = {}
    used = 0
    # (remaining, word, state) is a node; (None, (remaining, len(word), start),
    # state) closes its subtree, whose words were appended from out[start] on
    stack: list[tuple] = [(max_len, "", (net.initial_configuration(), 0, ()))]
    while stack:
        remaining, word, state = stack.pop()
        if remaining is None:  # any entry of this state has a smaller remaining length
            if len(spans) >= FEED_MEMO_LIMIT:
                spans.clear()
            spans[state] = word + (len(out),)
            continue
        used += len(word) + 1
        if used > WALK_BUDGET:
            raise _walk_budget_error(max_len)
        if remaining <= 0:  # not recorded: sharing a leaf saves one keep call and crowds the record
            if keep(state):
                out.append(word)
                used += len(word) + 1
            continue
        span = spans.get(state)
        if span is not None and span[0] >= remaining:
            _, n, start, end = span  # symbols are one character each
            copied = [word + w[n:] for w in out[start:end] if len(w) - n <= remaining]
            used += len(copied) + sum(map(len, copied))
            if used > WALK_BUDGET:
                raise _walk_budget_error(max_len)
            out.extend(copied)
            continue
        stack.append((None, (remaining, len(word), len(out)), state))
        if keep(state):
            out.append(word)
            used += len(word) + 1
        for sym, unit in steps:
            try:
                stack.append((remaining - 1, word + sym, advance(net, state, unit)[0]))
            except QueryGapError:
                break
    return out


def _walk_budget_error(max_len: int) -> ResourceBudgetError:
    return ResourceBudgetError(
        "word-tree walk to length %d passed its budget of %d (each node walked and word kept costs"
        " its length plus one)" % (max_len, WALK_BUDGET)
    )


def enumerate_language(net: Network, max_len: int, alphabet: Alphabet | None = None) -> set[str]:
    """All accepted words of length at most max_len; QueryGapError passes through."""
    return set(select_words(net, resolve_alphabet(net, alphabet), max_len, partial(probe, net)))


def compare_languages(
    net_a: Network,
    net_b: Network,
    max_len: int,
    alphabet: Alphabet | None = None,
) -> tuple[bool, list[str]]:
    """Set equality of the two accepted languages up to max_len, with witnesses."""
    la = enumerate_language(net_a, max_len, alphabet)
    lb = enumerate_language(net_b, max_len, alphabet)
    if la == lb:
        return True, []
    diff = sorted(la ^ lb, key=lambda w: (len(w), w))
    return False, diff[:MAX_WITNESSES]


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
