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
probes. Both are thin readers of the piece that _segment_feed hands back
from the network's segment table, the protocol's only cache, which interns
the parts: from a part the run is piecewise affine in the analog value, and
a part keeps per key the pieces learned so far, pairwise disjoint, each
naming its successor part. Every miss learns the one cell that holds its
analog value, so a key's pieces are cells of one refinement: a feed's or a
drain's with symbolic_row, which steps the binary part symbolically on the
protocol clock, _tick, and a probe's as the meet of the feed and drain
pieces its chain looks up, pulled back through the chain's affine map. The
refined partition and its tables read whole probe rows of symbolic_row.
A table of TABLE_LIMIT pieces is cleared, feeds first, before it takes a
new one. select_words walks the word tree over states and keeps the words
whose probe outcomes pass a test; within one walk, a node copies the words
below an earlier node of the same part whose proven cell of analog values
holds its own, at the same or a smaller depth, under the same bound, and
the walk's nodes and kept words, each weighed by its length plus one, are
held to WALK_BUDGET. run_online steps every instant past the table, on the
same clock with Network.step, and records every configuration, query
instant and verdict.

Query gaps have one rule. A feed that finds no query instant within the
declared bound of the previous one raises QueryGapError, and so does a probe
that makes such a feed; the segment table keeps the message in the piece
that raises it. Whether a feed raises depends only on the state, never on
the symbol.
enumerate_language, compare_languages, accepts and run_online pass the error
on (the CLI exits with code 4); the brute-force quotient oracle and
partition.extrapolation_table count it as a rejection.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
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
    outcome = _segment_feed(net, state, unit)[6]
    if type(outcome) is str:
        raise QueryGapError(outcome)
    return _image(outcome, state[1], state[2]), outcome[1]


def probe(net: Network, state: State, units: tuple[int, ...] = ()) -> bool:
    """The verdict after state, the input units fed in turn, the formal extra symbol and the drain.

    One lookup in the segment table that serves advance, keyed on units;
    QueryGapError passes through.
    """
    outcome = _segment_feed(net, state, units)[6]
    if type(outcome) is str:
        raise QueryGapError(outcome)
    return outcome


def _image(outcome: tuple, p: int, q: int) -> State:
    """The state a feed piece's outcome (part, settled, an, bn, d) maps the analog value p/q to."""
    part, _, an, bn, d = outcome
    if bn:  # else an/d is constant, and in lowest terms, as gcd(an, bn, d) = 1
        g = gcd(bn, q)  # gcd(p, q) = 1, so gcd(an*q + bn*p, q) = gcd(bn, q)
        num, den = (an * q + bn * p) // g, q // g
        g = gcd(num, d)  # num is now coprime to den, so only the small d shares factors
        an, d = num // g, d // g * den
    return part, an, d


def _segment_feed(net: Network, state: State, key) -> tuple:
    """The piece of the state's part that serves key at its analog value, learned on a miss.

    key is a unit, None (the drain) or a tuple of units (a probe). A piece
    is (ln, ld, ls, hn, hd, hs, outcome), an interval of the analog value y
    in network._step_symbolic's form; outcome is the QueryGapError message,
    a probe's verdict, or (part, settled, an, bn, d), the feed ending on
    part at (an + bn*y)/d. A miss on a part from before a clear learns into
    the one interned now. Every miss appends to the key's pieces the one
    cell that holds y, so they stay disjoint, and a full table is cleared
    first; the successor is interned after the clear. A feed's or a drain's
    cell is symbolic_row's; a probe's is met by _chain_piece from the
    pieces of its chain, whose own lookups may clear the table, so the
    piece is kept on the part interned after them.
    """
    part, p, q = state
    for piece in part.feeds.get(key, ()):
        if p * piece[1] - piece[0] * q >= piece[2] and piece[3] * q - p * piece[4] >= piece[5]:
            return piece
    table, mask, since, pending = net._segments, part.mask, part.since, part.pending
    if table[mask, since, pending] is not part:
        return _segment_feed(net, (table[mask, since, pending], p, q), key)
    if type(key) is tuple:
        *ends, outcome = _chain_piece(net, state, key)
    else:
        *ends, outcome = symbolic_row(net, mask, since, pending, key, (p, q))[0]
    if table.pieces >= TABLE_LIMIT:
        for each in table.values():  # so no piece stays on a part that a live state still holds
            each.feeds.clear()
        table.clear()
        table.pieces = 0
    table.pieces += 1
    if type(outcome) is tuple:
        outcome = (table[outcome[:3]], *outcome[3:])
    piece = (*ends, outcome)
    table[mask, since, pending].feeds.setdefault(key, []).append(piece)
    return piece


def _chain_piece(net: Network, state: State, units: tuple[int, ...]) -> tuple:
    """The probe piece of units that holds state's analog value y, met from the pieces its chain looks up.

    The chain is the units in turn, the formal extra symbol, then the drain,
    each an ordinary lookup from the state the previous one reached. Each
    piece is pulled back to y through the chain's map (an + bn*y)/d so far,
    and bounds nothing once that map is constant. The outcome is the gap
    message of the first piece that carries one, else the last verdict
    settled, as in symbolic_row, and the met ends are in lowest terms, as
    pullback's and symbolic_row's are.
    """
    cells, an, bn, d, outcome = [], 0, 1, 1, None
    for unit in (*units, net.input_units[0], None):
        piece = _segment_feed(net, state, unit)
        if bn:
            cells.append(pullback(piece[:6], an, bn, d))
        if type(piece[6]) is str:
            outcome = piece[6]
            break
        _, settled, fn, fb, fd = piece[6]
        if settled:
            outcome = settled[-1]
        state = _image(piece[6], state[1], state[2])
        an, bn, d = fn * d + fb * an, fb * bn, fd * d
        g = gcd(an, bn, d)
        an, bn, d = an // g, bn // g, d // g
    return (*_meet(cells), outcome)


def symbolic_row(net: Network, mask: int, since: int, pending: tuple, key, at: tuple[int, int] | None = None) -> list:
    """The pieces of key on the binary part (mask, since, pending) over y in [0, 1].

    _segment_feed learns a feed's or a drain's cells from it; a probe key's
    whole row is what the refined partition and its tables read.

    key is a unit, None (the drain) or a tuple of units (a probe: the units
    in turn, the formal extra symbol, then the drain). The run is stepped on
    network._step_symbolic from y in [0, 1], one _tick per branch, each
    branch carrying its since, pending, settled verdicts and the feed it is
    in, so a branch ends where run_online's run from a y in its piece ends:
    past the query gap bound, at the last feed's query instant, or once the
    drain has no verdict pending. at = (p, q) keeps at each step only the
    successor whose piece holds p/q, so the row is the one piece that holds
    it; a full row (at None) that steps more than ENDPOINT_BUDGET branches
    is refused.
    A feed's outcome names its successor part by (mask, since, pending).
    """
    feeds = (*key, net.input_units[0], None) if type(key) is tuple else (key,)
    stack = [((_UNIT, mask, 0, 1, 1), since, pending, (), 0)]
    row: list[tuple] = []
    walked = 0
    while stack:
        br, since, pending, settled, k = stack.pop()
        walked += 1
        if at is None and walked > ENDPOINT_BUDGET:
            raise ResourceBudgetError("symbolic run passed %d branches" % ENDPOINT_BUDGET)
        try:
            now, clamp, since, pending, k = _tick(net, feeds, br[1], since, pending, k)
        except QueryGapError as exc:
            row.append((*br[0], str(exc)))
            continue
        settled += now
        if clamp is None:
            outcome = settled[-1] if type(key) is tuple else (br[1], since, pending, settled, *br[2:])
            row.append((*br[0], outcome))
            continue
        for child in _step_symbolic(net, br, clamp):
            ln, ld, ls, hn, hd, hs = child[0]
            if at is None or at[0] * ld - ln * at[1] >= ls and hn * at[1] - at[0] * hd >= hs:
                stack.append((child, since, pending, settled, k))
    return row


def _tick(net: Network, feeds: tuple, mask: int, since: int, pending: tuple, k: int) -> tuple:
    """One instant of the protocol clock at binary state mask: (settled, clamp, since, pending, k).

    The run is in feeds[k], a unit or None for the drain. The verdicts due
    now settle off mask's out unit. Then the run ends, clamp None, at the
    last feed's query instant or once the drain has no verdict pending; or a
    feed past the query gap bound raises QueryGapError; or the run steps on,
    clamp the unit one hot at a query instant (mask fires nxt), else empty.
    """
    settled = ()
    while pending and pending[0] == 0:
        settled += (bool(mask >> net.out - 1 & 1),)
        pending = pending[1:]
    if k == len(feeds) or feeds[k] is None and not pending:
        return settled, None, since, pending, k
    unit = feeds[k]
    if unit is not None and since >= net.delta:
        raise QueryGapError("no query within %d steps of the previous one" % net.delta)
    pending = tuple([p - 1 for p in pending]) if pending else ()
    if unit is not None and mask >> net.nxt - 1 & 1:
        return settled, {unit: 1}, 0, pending + (net.output_delay,), k + 1
    return settled, {}, since + 1, pending, k


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
    cfg, since, pending = net.initial_configuration(), 0, ()
    rows, queries, verdicts = [cfg], [], []
    for sym in (*symbols, None):  # None: the drain; a gap before a foreign symbol raises first
        feeds, k = (None if sym is None else net.input_units[alphabet.index(sym)],), 0
        while True:
            settled, clamp, since, pending, k = _tick(net, feeds, cfg[0], since, pending, k)
            verdicts += settled
            if clamp is None:
                break
            cfg = net.step(cfg, clamp)
            rows.append(cfg)
            if clamp:  # a query instant
                queries.append(len(rows) - 1)
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


def select_words(
    net: Network, alphabet: Alphabet, max_len: int, keep: tuple[tuple[tuple[int, ...], ...], Callable[..., bool]]
) -> list[str]:
    """Every word of length at most max_len whose state keep passes, depth first.

    keep is (keys, decide): a node is kept when decide, given the outcome of
    each probe key at its state in turn (a verdict, or a QueryGapError's
    message), returns true; decide may raise. A child's state is one feed
    from its parent's. A feed raises QueryGapError for every symbol or for
    none; such a node gets no children.

    A node's words depend only on its part, its analog value y and its
    remaining length, and a subtree walked to a smaller remaining length is
    the larger one's preorder with the longer words dropped. The walk
    proves, for each subtree, a cell: an interval of y on which its words
    are the same. It is the intersection of the segment-table pieces that
    served the node's probes and feeds (a gap piece that stopped the feeds
    included) and of each child's cell pulled back through its feed's map
    (an + bn*y)/d, which bounds nothing when bn is 0. The walk records, per
    part, the remaining length, cell, prefix length and output span of each
    finished subtree but the leaves, at most TABLE_LIMIT at a time, and a
    node whose value lies in a record of its part with at least its own
    remaining length copies those words under its own prefix, longer ones
    dropped, instead of walking the subtree again. A record is keyed on the
    part's (mask, since, pending), so it outlives a clear of the segment
    table. A node that copies from a record with a larger remaining length
    records its own remaining length, the same cell and the span it just
    copied, ahead of its part's other records, so later copies scan fewer
    words they drop. A subtree whose walk raised is never recorded. Each
    node walked and each word kept, copies included, costs its length plus
    one, so the budget bounds the walk's memory whatever max_len is; a walk
    whose cost would pass WALK_BUDGET raises ResourceBudgetError, before a
    copy that would pass it.
    """
    if max_len < 0:
        raise ValidationError("length bound must be nonnegative, got %d" % max_len)
    keys, decide = keep
    steps = [(sym, net.input_units[k]) for k, sym in enumerate(alphabet.symbols)]
    out: list[str] = []
    records: dict[tuple, list[tuple]] = {}
    recorded = used = 0
    # (remaining, word, state, up, via) is a node that the feed outcome via
    # (part, settled, an, bn, d) reached from its parent; its cell, pulled back
    # through (an + bn*y)/d, joins up, the list of intervals whose meet is the
    # parent's cell (up and via are None at the root). (None, (remaining,
    # len(word), start, held), triple, up, via) closes its subtree, whose
    # words were appended from out[start] on
    stack: list[tuple] = [(max_len, "", make_state(net, net.initial_configuration()), None, None)]
    while stack:
        remaining, word, state, up, via = stack.pop()
        if remaining is None:
            remaining, n, start, held = word
            cell = _meet(held)
            if recorded >= TABLE_LIMIT:
                records.clear()
                recorded = 0
            mine = records.setdefault(state, [])
            if mine:  # drop the records that the new one covers
                recorded -= len(mine)
                mine[:] = [r for r in mine if r[0] > remaining or not _within(r[1:7], cell)]
                recorded += len(mine)
            mine.append((remaining, *cell, n, start, len(out)))
            recorded += 1
        else:
            used += len(word) + 1
            if used > WALK_BUDGET:
                raise _walk_budget_error(max_len)
            part, p, q = state
            # leaves are not recorded: sharing one saves one probe and crowds the record
            for rec in records.get(part.triple, ()) if remaining > 0 else ():
                if rec[0] >= remaining and p * rec[2] - rec[1] * q >= rec[3] and rec[4] * q - p * rec[5] >= rec[6]:
                    n, start, end = rec[7:]  # symbols are one character each
                    copied = [word + w[n:] for w in out[start:end] if len(w) - n <= remaining]
                    used += len(copied) + sum(map(len, copied))
                    if used > WALK_BUDGET:
                        raise _walk_budget_error(max_len)
                    out.extend(copied)
                    cell = rec[1:7]
                    if rec[0] > remaining:  # the span just copied serves later copies at most this deep
                        if recorded >= TABLE_LIMIT:
                            records.clear()
                            recorded = 0
                        mine = (remaining, *cell, len(word), len(out) - len(copied), len(out))
                        records.setdefault(part.triple, []).insert(0, mine)
                        recorded += 1
                    break
            else:
                held, outcomes = [], []
                for key in keys:
                    piece = _segment_feed(net, state, key)
                    held.append(piece)
                    outcomes.append(piece[6])
                if remaining > 0:
                    stack.append((None, (remaining, len(word), len(out), held), part.triple, up, via))
                if decide(*outcomes):
                    out.append(word)
                    used += len(word) + 1
                if remaining > 0:  # held gains the feeds' pieces now and the children's cells as they close
                    for sym, unit in steps:
                        piece = _segment_feed(net, state, unit)
                        held.append(piece)
                        outcome = piece[6]
                        if type(outcome) is str:
                            break
                        stack.append((remaining - 1, word + sym, _image(outcome, p, q), held, outcome))
                    continue
                cell = _meet(held)
        if up is not None and via[3]:  # a subtree's cell, pulled back, narrows its parent's
            up.append(pullback(cell, *via[2:]))
    return out


def _meet(intervals: Iterable[Sequence[int]]) -> tuple[int, int, int, int, int, int]:
    """The meet of [0, 1] and the intervals, each given by its first six entries in _step_symbolic's form."""
    ln, ld, ls, hn, hd, hs = _UNIT
    for each in intervals:
        c = each[0] * ld - ln * each[1]
        if c > 0 or c == 0 and each[2]:
            ln, ld, ls = each[0], each[1], each[2]
        c = each[3] * hd - hn * each[4]
        if c < 0 or c == 0 and each[5]:
            hn, hd, hs = each[3], each[4], each[5]
    return ln, ld, ls, hn, hd, hs


def _within(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """Whether the interval inner lies in the interval outer, both in _step_symbolic's form."""
    ln, ld, ls, hn, hd, hs = inner
    c = ln * outer[1] - outer[0] * ld
    if c < 0 or c == 0 and outer[2] > ls:
        return False
    c = hn * outer[4] - outer[3] * hd
    return c < 0 or c == 0 and outer[5] <= hs


def pullback(cell: Sequence[int], an: int, bn: int, d: int) -> tuple[int, ...]:
    """The interval of y whose image (an + bn*y)/d lies in cell, both in _step_symbolic's form; bn != 0.

    Its ends are in lowest terms, one gcd each.
    """
    ln, ld, ls, hn, hd, hs = cell
    if bn > 0:
        ln, ld, hn, hd = ln * d - an * ld, bn * ld, hn * d - an * hd, bn * hd
    else:
        ln, ld, ls, hn, hd, hs = an * hd - hn * d, -bn * hd, hs, an * ld - ln * d, -bn * ld, ls
    g, h = gcd(ln, ld), gcd(hn, hd)
    return ln // g, ld // g, ls, hn // h, hd // h, hs


def _walk_budget_error(max_len: int) -> ResourceBudgetError:
    return ResourceBudgetError(
        "word-tree walk to length %d passed its budget of %d (each node walked and word kept costs"
        " its length plus one)" % (max_len, WALK_BUDGET)
    )


def enumerate_language(net: Network, max_len: int, alphabet: Alphabet | None = None) -> set[str]:
    """All accepted words of length at most max_len; QueryGapError passes through."""
    return set(select_words(net, resolve_alphabet(net, alphabet), max_len, (((),), _accepted)))


def _accepted(outcome: bool | str) -> bool:
    """A probe's verdict; a QueryGapError's message raises it again."""
    if type(outcome) is str:
        raise QueryGapError(outcome)
    return outcome


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
    binary: dict[int, str] = {}  # a mask, sentinel included, -> its binary columns; a run visits few masks
    for (t, cfg), analog in zip(trace.rows, net.analog_texts(cfg for _, cfg in trace.rows)):
        bits = binary.get(cfg[0])
        if bits is None:
            bits = binary[cfg[0]] = "".join(["\t%d" % b for b in cfg.binary])
        lines.append("%s%s\t%s\t%s" % (t, bits, analog, "; ".join(notes.get(t, ()))))
    lines.append("")  # the trailing newline, without a second copy of the whole text
    return "\n".join(lines)
