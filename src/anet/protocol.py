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
transition, a feed of unit or the drain when unit is None. Two caches per
network serve it, each holding at most FEED_MEMO_LIMIT entries and cleared
when full. The feed memo is keyed on (unit, state). A memo miss goes to the
segment table, keyed on the state's binary part (unit, mask, since, pending):
from there the run is piecewise affine in the analog value, and the table
keeps the pieces learned so far, each an interval of the analog value with
the next binary part, the settled verdicts and either an affine map or a
query-gap error. The first miss on a binary part steps and marks it; a later
miss whose analog value lies in no known piece learns that one piece with
the symbolic stepper the partitions use. verdict(net, state, suffix) feeds
the suffix and the formal extra symbol, drains and reads the last settled
verdict, all through advance. select_words walks the word tree over states
and keeps the words whose state passes a test; within one walk, a node
copies the words below an earlier node of the same state at the same or a
smaller depth, under the same bound, and the walk's nodes and kept words are
held to WALK_BUDGET. run_online steps every instant past both caches and
records every configuration, query instant and verdict.

Query gaps have one rule. A feed that finds no query instant within the
declared bound of the previous one raises QueryGapError and stores nothing in
the memo (the segment table may keep the piece that raises it); whether it
raises depends only on the state, never on the symbol.
enumerate_language, compare_languages, accepts and run_online pass the error
on (the CLI exits with code 4); the brute-force quotient oracle and
partition.probe_verdict count it as a rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import QueryGapError, ResourceBudgetError, ValidationError
from .network import _UNIT, Configuration, Network, _Branch, _step_symbolic
from .rationals import ONE, ZERO, format_rational

_DIGITS = "0123456789"

# Entries kept in one network's feed memo before it is cleared.
FEED_MEMO_LIMIT = 256

# Differing words compare_languages reports, shortest first.
MAX_WITNESSES = 10

# Nodes a word-tree walk visits plus words it keeps, sized like the
# partitions' endpoint budget.
WALK_BUDGET = 2**20


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
    memo = net.__dict__.setdefault("_feed_memo", {})  # cached like the step plan
    hit = memo.get((unit, state))  # ints and tuples of ints, hashed in C
    if hit is None:
        hit = _segment_feed(net, state, unit)  # no entry when this raises
        if len(memo) >= FEED_MEMO_LIMIT:
            memo.clear()
        memo[unit, state] = hit
    return hit


class _Segments(dict):
    """The segment table: binary part (unit, mask, since, pending) -> its learned pieces.

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


def _segment_feed(net: Network, state: State, unit: int | None) -> tuple[State, tuple[bool, ...]]:
    """advance past the memo: through a learned piece of the state's binary part, else by stepping.

    From a fixed binary part the run to the next query instant (or the end of
    the drain) is piecewise affine in the analog value y. A piece is
    (ln, ld, ls, hn, hd, hs, outcome), the interval from ln/ld to hn/hd, ls
    and hs 1 at an open end and 0 at a closed one: y = p/q lies in it iff
    p*ld - ln*q >= ls and hn*q - p*hd >= hs. outcome is the QueryGapError
    message or (mask, since, pending, settled, an, bn, d), the run ending at
    the analog value (an + bn*y)/d. The first miss on a binary part steps and
    marks it; a later miss in no known piece learns the one that holds y.
    """
    (mask, p, q), since, pending = state
    key = (unit, mask, since, pending)
    table = net.__dict__.get("_segments")
    if table is None:
        table = net.__dict__["_segments"] = _Segments()
    pieces = table.get(key)
    if pieces is None:
        table.add(key)
        return _steps(net, state, unit)
    for ln, ld, ls, hn, hd, hs, outcome in pieces:
        if p * ld - ln * q >= ls and hn * q - p * hd >= hs:
            break
    else:
        piece = _learn_piece(net, state, unit)
        table.add(key, piece)
        outcome = piece[-1]
    if type(outcome) is str:
        raise QueryGapError(outcome)
    mask, since, pending, settled, an, bn, d = outcome
    g = gcd(bn, q)  # gcd(p, q) = 1, so gcd(an*q + bn*p, q) = gcd(bn, q)
    num, den = (an * q + bn * p) // g, q // g
    g = gcd(num, d)  # num is now coprime to den, so only the small d shares factors
    return (tuple.__new__(Configuration, (mask, num // g, d // g * den)), since, pending), settled


def _learn_piece(net: Network, state: State, unit: int | None) -> tuple:
    """The piece of state's binary part that holds its analog value, as _segment_feed keeps it.

    The run is stepped symbolically from y in [0, 1], following at each step
    the one successor whose piece holds the state's analog value, through
    _steps' own clock; the last successor's piece and analog value a + b*y
    give the piece and its map.
    """
    y = state[0].analog
    path = [_Branch(_UNIT, state[0][0], ZERO, ONE)]

    def follow(_, inputs):
        successors: list[_Branch] = []
        _step_symbolic(net, path[-1], inputs or {}, successors, set())
        path.append(next(br for br in successors if br.piece.contains(y)))
        return (path[-1].bits,)

    try:
        (_, since, pending), settled = _steps(net, state, unit, step=follow)
    except QueryGapError as exc:
        outcome = str(exc)
    else:
        br = path[-1]
        d = lcm(br.a.denominator, br.b.denominator)
        an, bn = br.a.numerator * (d // br.a.denominator), br.b.numerator * (d // br.b.denominator)
        outcome = (br.bits, since, pending, settled, an, bn, d)
    piece = path[-1].piece
    lo, hi = piece.lo, piece.hi
    return (
        lo.numerator, lo.denominator, int(not piece.lo_closed),
        hi.numerator, hi.denominator, int(not piece.hi_closed),
        outcome,
    )


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


def verdict(net: Network, state: State, suffix: str = "", alphabet: Alphabet | None = None) -> bool:
    """Verdict for the word that led to state followed by suffix; QueryGapError passes through.

    The suffix and the formal extra symbol are fed, then the run is drained;
    the formal symbol's verdict is the last one settled. Every feed and the
    drain go through advance, so a verdict keeps no memo of its own.
    """
    alphabet = resolve_alphabet(net, alphabet) if suffix else alphabet
    for sym in suffix:
        state = advance(net, state, net.input_units[alphabet.index(sym)])[0]
    end, settled = advance(net, state, net.input_units[0])
    if end[2]:
        settled = advance(net, end, None)[1]
    return settled[-1]


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
    net.require_valid()
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
    net.require_valid()
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
    A subtree whose walk raised is never recorded. A walk whose nodes and
    kept words would pass WALK_BUDGET raises ResourceBudgetError, before a
    copy that would pass it.
    """
    if max_len < 0:
        raise ValidationError("length bound must be nonnegative, got %d" % max_len)
    steps = [(sym, net.input_units[k]) for k, sym in enumerate(alphabet.symbols)]
    out: list[str] = []
    spans: dict[State, tuple[int, int, int, int]] = {}
    nodes = 0
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
        nodes += 1
        if nodes + len(out) > WALK_BUDGET:
            raise _walk_budget_error(max_len)
        if remaining <= 0:  # not recorded: sharing a leaf saves one keep call and crowds the record
            if keep(state):
                out.append(word)
            continue
        span = spans.get(state)
        if span is not None and span[0] >= remaining:
            _, n, start, end = span  # symbols are one character each
            copied = [word + w[n:] for w in out[start:end] if len(w) - n <= remaining]
            if nodes + len(out) + len(copied) > WALK_BUDGET:
                raise _walk_budget_error(max_len)
            out.extend(copied)
            continue
        stack.append((None, (remaining, len(word), len(out)), state))
        if keep(state):
            out.append(word)
        for sym, unit in steps:
            try:
                stack.append((remaining - 1, word + sym, advance(net, state, unit)[0]))
            except QueryGapError:
                break
    return out


def _walk_budget_error(max_len: int) -> ResourceBudgetError:
    return ResourceBudgetError(
        "word-tree walk to length %d passed %d nodes and kept words" % (max_len, WALK_BUDGET)
    )


def enumerate_language(net: Network, max_len: int, alphabet: Alphabet | None = None) -> set[str]:
    """All accepted words of length at most max_len; QueryGapError passes through."""
    net.require_valid()
    return set(select_words(net, resolve_alphabet(net, alphabet), max_len, partial(verdict, net)))


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
