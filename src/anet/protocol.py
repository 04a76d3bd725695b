"""Online acceptor protocol: feeding symbols on demand and reading verdicts.

A network requests its next input symbol by firing its nxt unit; the symbol is
clamped one hot onto the input units at the following instant (a query
instant), and the input units are forced to zero everywhere else. The verdict
for the prefix consumed so far appears on the out unit output_delay steps
after the next query instant. One formal extra symbol (the first letter of the
alphabet) is appended so the verdict of the full word can be read.

A protocol state is (part, p, q): the Part interned once per network for the
binary part (mask, since, pending), and the analog value p/q. since counts
the steps since the last query (or the start), pending the steps until each
pending verdict is read, oldest first; make_state builds a state from a
configuration and plain_state reads (cfg, since, pending) back.
advance(net, state, unit) is the one transition, a feed of unit or the drain
when unit is None. probe(net, state, units) is the one verdict: the units
fed in turn, then the formal extra symbol and the drain, with the last
settled verdict as its outcome; verdict resolves a suffix to its units and
probes. Both are served from the network's segment table, the protocol's
only cache, which interns the parts: from a part the run is piecewise affine
in the analog value, and a part keeps per key the pieces learned so far,
pairwise disjoint, each naming its successor part. The first miss on a key
steps and keeps a point piece; a later miss learns its cell with
symbolic_row, which steps the binary part symbolically on the stepping
loop's clock, and the cell replaces the point piece it contains. The
refined partition reads whole rows of the same function. A table of
TABLE_LIMIT pieces is cleared, feeds first, before it takes a new one.
select_words walks the word tree over states and keeps the words whose
state passes a test; within one walk, a node copies the words below an
earlier node of the same state at the same or a smaller depth, under the
same bound, and the walk's nodes and kept words, each weighed by its length
plus one, are held to WALK_BUDGET. run_online steps every instant past the
table and records every configuration, query instant and verdict.

Query gaps have one rule. A feed that finds no query instant within the
declared bound of the previous one raises QueryGapError, and so does a probe
that makes such a feed; the segment table keeps the message in the piece
that raises it. Whether a feed raises depends only on the state, never on
the symbol.
enumerate_language, compare_languages, accepts and run_online pass the error
on (the CLI exits with code 4); the brute-force quotient oracle and
partition.probe_verdict count it as a rejection.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import QueryGapError, ResourceBudgetError, ValidationError
from .network import _UNIT, Configuration, Network, _step_symbolic
from .rationals import digit_limit_error

_DIGITS = "0123456789"

# Pieces one network's segment table holds before it is cleared, and states one select_words
# walk records: the most binary parts one network of the benchmark's workloads reaches is 349.
TABLE_LIMIT = 512

# Differing words compare_languages reports, shortest first.
MAX_WITNESSES = 10

# Cost a word-tree walk may spend, a node walked or a word kept costing its
# length plus one: 2^20 nodes and words of length 15, so a walk to length 15
# or less that keeps its nodes and words within 2^20 always fits.
WALK_BUDGET = 2**24

# Branches one full symbolic_row (a refined-partition replay) or the
# fire-state search may step.
ENDPOINT_BUDGET = 2**20


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


State = tuple  # (part, p, q): an interned Part and the analog value p/q in lowest terms


def make_state(net: Network, cfg: Configuration, since: int = 0, pending: tuple[int, ...] = ()) -> State:
    """The protocol state of cfg, since steps past the last query, with verdicts pending after pending steps."""
    return (net._segments[cfg[0], since, pending], cfg[1], cfg[2])


def plain_state(state: State) -> tuple[Configuration, int, tuple[int, ...]]:
    """(cfg, since, pending) of a protocol state."""
    part, p, q = state
    return tuple.__new__(Configuration, (part.mask, p, q)), part.since, part.pending


def advance(net: Network, state: State, unit: int | None) -> tuple[State, tuple[bool, ...]]:
    """One feed of unit, or the drain when unit is None: the new state and the verdicts it settled."""
    return _segment_feed(net, state, unit)


def probe(net: Network, state: State, units: tuple[int, ...] = ()) -> bool:
    """The verdict after state, the input units fed in turn, the formal extra symbol and the drain.

    One lookup in the segment table that serves advance, keyed on units;
    QueryGapError passes through.
    """
    return _segment_feed(net, state, units)


def _segment_feed(net: Network, state: State, key):
    """advance or probe: through a learned piece of the state's part, else by learning one.

    key is a unit, None (the drain) or a tuple of units (a probe). A piece
    is (ln, ld, ls, hn, hd, hs, outcome), an interval of the analog value y
    in network._step_symbolic's form; outcome is the QueryGapError message,
    a probe's verdict, or (part, settled, an, bn, d), the feed ending on
    part at (an + bn*y)/d. A miss on a part from before a clear learns into
    the one interned now. The first miss on a key steps the feed, or runs
    the probe's feeds through advance, and keeps the point piece [y, y] at
    the head of the key's pieces; a cell learned later replaces it if it
    holds it, as the two agree there. The state's part and the successor are
    interned after a clear, also one the probe's own feeds set off.
    """
    part, p, q = state
    pieces = part.feeds.get(key)
    for ln, ld, ls, hn, hd, hs, outcome in pieces or ():
        if p * ld - ln * q >= ls and hn * q - p * hd >= hs:
            break
    else:
        table, mask, since, pending = net._segments, part.mask, part.since, part.pending
        if table[mask, since, pending] is not part:
            return _segment_feed(net, (table[mask, since, pending], p, q), key)
        replace = False
        if pieces is not None:
            *ends, outcome = symbolic_row(net, mask, since, pending, key, (p, q))[0]
            ln, ld, ls, hn, hd, hs = ends
            pn, pd = pieces[0][:2]
            replace = pieces[0][:3] == pieces[0][3:6] and pn * ld - ln * pd >= ls and hn * pd - pn * hd >= hs
        else:
            ends = (p, q, 0, p, q, 0)
            try:
                if type(key) is tuple:  # the units, the formal extra symbol, then the drain if a verdict is pending
                    end = state
                    for unit in (*key, net.input_units[0]):
                        end, settled = advance(net, end, unit)
                    outcome = (advance(net, end, None)[1] if end[0].pending else settled)[-1]
                else:
                    (cfg, *after), settled = _steps(net, plain_state(state), key)
                    outcome = (cfg[0], *after, settled, cfg[1], 0, cfg[2])
            except QueryGapError as exc:
                outcome = str(exc)
        if not replace:
            if table.pieces >= TABLE_LIMIT:
                for each in table.values():  # so no piece stays on a part that a live state still holds
                    each.feeds.clear()
                table.clear()
                table.pieces = 0
            table.pieces += 1
        if type(outcome) is tuple:
            outcome = (table[outcome[:3]], *outcome[3:])
        pieces = table[mask, since, pending].feeds.setdefault(key, [])
        if replace:
            pieces[0] = (*ends, outcome)
        else:
            pieces.append((*ends, outcome))
    if type(outcome) is str:
        raise QueryGapError(outcome)
    if type(key) is tuple:
        return outcome
    part, settled, an, bn, d = outcome
    if bn:  # else an/d is constant, and in lowest terms, as gcd(an, bn, d) = 1
        g = gcd(bn, q)  # gcd(p, q) = 1, so gcd(an*q + bn*p, q) = gcd(bn, q)
        num, den = (an * q + bn * p) // g, q // g
        g = gcd(num, d)  # num is now coprime to den, so only the small d shares factors
        an, d = num // g, d // g * den
    return (part, an, d), settled


def symbolic_row(net: Network, mask: int, since: int, pending: tuple, key, at: tuple[int, int] | None = None) -> list:
    """The pieces of key on the binary part (mask, since, pending) over y in [0, 1], which _segment_feed learns.

    key is a unit, None (the drain) or a tuple of units (a probe: the units
    in turn, the formal extra symbol, then the drain). The run is stepped on
    network._step_symbolic from y in [0, 1] with _steps' clock, each branch
    carrying its since, pending, settled verdicts and the feed it is in, so
    a branch ends where a concrete run from a y in its piece ends: past the
    query gap bound, at the last feed's query instant, or once the drain has
    no verdict pending. at = (p, q) keeps at each step only the successor
    whose piece holds p/q, so the row is the one piece that holds it; a full
    row (at None) that steps more than ENDPOINT_BUDGET branches is refused.
    A feed's outcome names its successor part by (mask, since, pending).
    """
    feeds = (*key, net.input_units[0], None) if type(key) is tuple else (key,)
    nxt, out = net.nxt - 1, net.out - 1
    stack = [((_UNIT, mask, 0, 1, 1), since, pending, (), 0)]
    row: list[tuple] = []
    walked = 0
    while stack:
        br, since, pending, settled, k = stack.pop()
        walked += 1
        if at is None and walked > ENDPOINT_BUDGET:
            raise ResourceBudgetError("symbolic run passed %d branches" % ENDPOINT_BUDGET)
        if k == len(feeds) or feeds[k] is None and not pending:
            outcome = settled[-1] if type(key) is tuple else (br[1], since, pending, settled, *br[2:])
            row.append((*br[0], outcome))
            continue
        unit = feeds[k]
        if unit is not None and since >= net.delta:
            row.append((*br[0], str(_gap_error(net))))
            continue
        query = unit is not None and br[1] >> nxt & 1
        pending = tuple(p - 1 for p in pending) if pending else ()
        if query:
            pending += (net.output_delay,)
        for child in _step_symbolic(net, br, {unit: 1} if query else {}):
            ln, ld, ls, hn, hd, hs = child[0]
            if at is None or at[0] * ld - ln * at[1] >= ls and hn * at[1] - at[0] * hd >= hs:
                mine, left = settled, pending
                while left and left[0] == 0:
                    mine += (bool(child[1] >> out & 1),)
                    left = left[1:]
                stack.append((child, 0 if query else since + 1, left, mine, k + query))
    return row


def _steps(net: Network, state: tuple, unit: int | None, rows: list | None = None):
    """Step (cfg, since, pending) to the next query instant, or until no verdict is pending when unit is None.

    Each configuration is appended to rows when rows is given.
    """
    cfg, since, pending = state
    nxt, out = net.nxt - 1, net.out - 1
    settled: list[bool] = []
    query = False
    while not query and (unit is not None or pending):
        if unit is not None and since >= net.delta:
            raise _gap_error(net)
        query = unit is not None and cfg[0] >> nxt & 1
        cfg = net.step(cfg, {unit: 1} if query else None)
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


def _gap_error(net: Network) -> QueryGapError:
    return QueryGapError("no query within %d steps of the previous one" % net.delta)


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
    one probe() lookup, in the segment table that serves advance, so a
    verdict keeps no cache of its own.
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
    """Step word and the formal extra symbol past the segment table, then drain; rows[t] is time t."""
    alphabet = resolve_alphabet(net, alphabet)
    word_str = word if isinstance(word, str) else "".join(word)
    symbols = tuple(word_str) + (alphabet.formal_extra,)
    state = (net.initial_configuration(), 0, ())
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
    return verdict(net, make_state(net, net.initial_configuration()), "".join(word), resolve_alphabet(net, alphabet))


def select_words(net: Network, alphabet: Alphabet, max_len: int, keep: Callable[[State], bool]) -> list[str]:
    """Every word of length at most max_len whose state passes keep, depth first.

    A child's state is one advance from its parent's. A feed raises
    QueryGapError for every symbol or for none, and keep meets the error
    first if it feeds; such a node gets no children. A node's words depend
    only on its state and remaining length, and a subtree walked to a smaller
    remaining length is the larger one's preorder with the longer words
    dropped. So the walk records, per state, the remaining length, prefix
    length and span in its output of the last finished subtree, at most
    TABLE_LIMIT states at a time, and a node that meets its state
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
    stack: list[tuple] = [(max_len, "", make_state(net, net.initial_configuration()))]
    while stack:
        remaining, word, state = stack.pop()
        if remaining is None:  # any entry of this state has a smaller remaining length
            if len(spans) >= TABLE_LIMIT:
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
    """Tab separated trace: t, y_1 .. y_s in canonical rational text, note.

    net.analog_texts renders the analog column. A trace whose analog values pass
    Python's int-to-str digit limit is refused with DigitLimitError before
    any row is rendered: since p <= q, a row passes it iff q >= 10**limit.
    """
    limit = sys.get_int_max_str_digits()
    if limit and max((cfg[2] for _, cfg in trace.rows), default=1) >= 10**limit:
        raise digit_limit_error()
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
    for (t, cfg), analog in zip(trace.rows, net.analog_texts(cfg for _, cfg in trace.rows)):
        cells = [str(t)]
        cells.extend(str(b) for b in cfg.binary)
        cells.append(analog)
        cells.append("; ".join(notes.get(t, [])))
        lines.append("\t".join(cells))
    lines.append("")  # the trailing newline, without a second copy of the whole text
    return "\n".join(lines)
