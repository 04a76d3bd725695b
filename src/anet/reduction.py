"""Two-letter front end driving an inner acceptor through a symbol queue.

The built network reads words over {0, 1}. A run of m zeros then n ones is
translated, on the fly, into the inner word v1 v2^m v3 v4^(n-1): v1 is
preloaded, each further bit selects the next block (zeros keep appending v2,
the first one appends v3 v4, later ones append v4), and anything outside the
0^m 1^n shape falls into an absorbing sink that rejects. Blocks wait in a
fixed bank of one-hot slots; the head slot feeds the inner acceptor's former
input units, slots shift down after every pop, and a refill is enqueued the
moment the last symbol is popped so the inner network never misses a query.

One slot plane carries a pacing mark. The mark rides the block symbol whose
pop completes the previous outer prefix's inner word; its pop, delayed by the
inner's output delay, requests the next outer bit, so the verdict read at
each outer query instant is exactly the inner's verdict for the translated
prefix. Outside the two-phase shape the sink requests bits every step and
forces rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import ValidationError
from .network import Network, load_network_path, make_network, read_text
from .protocol import Alphabet, resolve_alphabet

INIT, PHASE1, PHASE2, SINK = "init", "zeros", "ones", "sink"

_MIN_WORD = 4
_MAX_PAD_ROUNDS = 8

# latch weight magnitudes: set must beat reset, reset must beat self-hold
_SET = Fraction(4)
_RESET = Fraction(-3)


@dataclass(frozen=True)
class ReductionSpec:
    """Inner acceptor plus the five translation words.

    words = (v1, v2, v3, v4, v5) over the inner alphabet. The network itself
    consumes v1..v4; v5 is carried because the surrounding constructions pair
    it with the inner acceptor as a suffix, and because the length padding
    rule rewrites it along with the others.
    """

    inner: Network
    words: tuple[str, str, str, str, str]
    alphabet: Alphabet | None = None

    def __post_init__(self) -> None:
        if len(self.words) != 5:
            raise ValidationError("exactly five words are required")
        if any(not w for w in self.words):
            raise ValidationError("translation words must be nonempty")


def pad_words(words: tuple[str, ...], times: int = 1) -> tuple[str, str, str, str, str]:
    """One application of the length-padding rewrite.

    (v1, v2, v3, v4, v5) becomes (v1 v2^c, v2^c, v2^c v3 v4^c, v4^c, v4^c v5)
    with c = times. The rewrite preserves the translated word family up to a
    shift of the block counts, and multiplies the short word lengths, so
    repeating it makes every word long enough for the queue timing.
    """
    if times < 1:
        raise ValidationError("pad count must be positive")
    v1, v2, v3, v4, v5 = words
    return (v1 + v2 * times, v2 * times, v2 * times + v3 + v4 * times, v4 * times, v4 * times + v5)


def word_scheme(words: tuple[str, ...], zeros: int, ones: int) -> str:
    """Inner word for the outer word 0^zeros 1^ones; ones must be at least 1."""
    if zeros < 1 or ones < 1:
        raise ValidationError("the translated family needs at least one zero and one one")
    v1, v2, v3, v4 = words[0], words[1], words[2], words[3]
    return v1 + v2 * zeros + v3 + v4 * (ones - 1)


@dataclass(frozen=True)
class ReductionLayout:
    """Unit indices of the glue, keyed by role, for tests and trace audits."""

    inner_size: int
    in_zero: int
    in_one: int
    slot: Mapping[tuple[int, int], int]  # (depth, plane) -> unit; plane q is the mark
    n_slots: int
    n_planes: int  # symbol planes + 1
    shift_conj: Mapping[tuple[int, int], int]
    shift_reset: int
    last_one: int
    enq_fire: int
    enq_write: Mapping[tuple[int, int], int]
    chain: tuple[int, ...]  # mark pop delay chain; last element is the request unit
    request: int
    arr1: int
    arr2: int
    decode: Mapping[tuple[str, str], int]
    phase: Mapping[str, int]
    sel: Mapping[str, int]  # keyed by the block word role: "v2", "v34", "v4"
    report: int
    analog: int


@dataclass(frozen=True)
class ReductionBuild:
    network: Network
    spec: ReductionSpec  # with padded words
    layout: ReductionLayout


def build_reduction(spec: ReductionSpec) -> ReductionBuild:
    """Assemble the front end around the inner acceptor.

    The inner's units keep their indices (its analog unit moves to the top);
    its former input units are rewired to copy the head slot at its query
    instants. Padding is applied until v1..v4 are all at least four symbols
    long, so every block gives the control latches time to settle between
    requests; the inner's output delay must stay below the length of v4 so a
    delayed request lands before its block runs out.
    """
    inner = spec.inner
    in_alpha = resolve_alphabet(inner, spec.alphabet)

    words = spec.words
    rounds = 0
    while min(len(words[0]), len(words[1]), len(words[2]), len(words[3])) < _MIN_WORD:
        if rounds >= _MAX_PAD_ROUNDS:
            raise ValidationError("padding did not reach the minimum word length")
        # doubling the repeat count grows every word each round; a count of
        # one would leave the second and fourth words at their original length
        words = pad_words(words, 2)
        rounds += 1
    for w in words:
        for ch in w:
            in_alpha.index(ch)  # validates membership
    d_in = inner.output_delay
    if d_in >= len(words[3]):
        raise ValidationError(
            "inner output delay %d must be smaller than the fourth word's length %d"
            % (d_in, len(words[3]))
        )
    padded = ReductionSpec(inner=inner, words=words, alphabet=spec.alphabet)

    v1, v2, v3, v4, _ = words
    blocks = {"v2": v2, "v34": v3 + v4, "v4": v4}
    mark_pos = {"v2": 0, "v34": len(v3), "v4": 0}
    cap = max(len(v1), len(v2), len(v3) + len(v4), len(v4))  # the longest word the queue holds
    q = len(in_alpha.symbols)
    n_planes = q + 1  # symbol planes then the mark plane

    si = inner.size
    nb = si - 1
    counter = nb

    def fresh(n: int = 1) -> int:
        nonlocal counter
        counter += n
        return counter - n + 1

    in_zero, in_one = fresh(), fresh()
    slot = {(i, p): fresh() for i in range(cap) for p in range(n_planes)}
    shift_conj = {(i, p): fresh() for i in range(cap - 1) for p in range(n_planes)}
    shift_reset = fresh()
    last_one = fresh()
    enq_fire = fresh()
    used_cells: set[tuple[int, int]] = set()
    for role, word in blocks.items():
        for i, ch in enumerate(word):
            used_cells.add((i, in_alpha.index(ch)))
        used_cells.add((mark_pos[role], q))
    enq_write = {cell: fresh() for cell in sorted(used_cells)}
    chain = tuple(fresh() for _ in range(d_in + 1))
    request = chain[-1]
    arr1, arr2 = fresh(), fresh()
    decode = {(ph, b): fresh() for ph in (INIT, PHASE1, PHASE2) for b in ("0", "1")}
    phase = {ph: fresh() for ph in (INIT, PHASE1, PHASE2, SINK)}
    sel = {role: fresh() for role in ("v2", "v34", "v4")}
    report = fresh()
    analog = fresh()

    one = Fraction(1)
    weights: list[tuple[int, int, Fraction]] = []

    def w(j: int, i: int, value) -> None:
        weights.append((j, i, value))

    # inner acceptor, analog moved to the top; weights into its former input
    # units are dropped because the queue head drives them now
    inner_inputs = set(inner.input_units)

    def remap(u: int) -> int:
        return analog if u == si else u

    for (j, i), wt in inner.weights.items():
        if j in inner_inputs:
            continue
        w(remap(j), i if i == 0 else remap(i), wt)

    # head slot feed: former input unit a copies slot (0, a) at query instants
    for a, unit in enumerate(inner.input_units):
        w(unit, 0, -2)
        w(unit, inner.nxt, one)
        w(unit, slot[(0, a)], one)

    # slot latches: shifted or enqueued value sets, the pop cycle resets
    for (i, p), unit in slot.items():
        w(unit, 0, -one)
        w(unit, unit, one)
        w(unit, shift_reset, _RESET)
        if (i, p) in shift_conj:
            w(unit, shift_conj[(i, p)], _SET)
        if (i, p) in enq_write:
            w(unit, enq_write[(i, p)], _SET)
    for (i, p), unit in shift_conj.items():
        w(unit, 0, -2)
        w(unit, inner.nxt, one)
        w(unit, slot[(i + 1, p)], one)
    w(shift_reset, 0, -one)
    w(shift_reset, inner.nxt, one)

    # refill: detect the pop of the only remaining symbol, then write the
    # selected block into the freshly cleared slots
    w(last_one, 0, -one)
    for a in range(q):
        w(last_one, slot[(0, a)], one)
        w(last_one, slot[(1, a)], Fraction(-3))
    w(enq_fire, 0, -3)
    w(enq_fire, inner.nxt, one)
    w(enq_fire, last_one, one)
    for unit in sel.values():
        w(enq_fire, unit, one)
    for (i, p), unit in enq_write.items():
        w(unit, 0, -2)
        w(unit, enq_fire, one)
        for role, word in blocks.items():
            hit = (i < len(word) and p < q and in_alpha.index(word[i]) == p) or (
                p == q and i == mark_pos[role]
            )
            if hit:
                w(unit, sel[role], one)

    # pacing: the mark's pop, delayed by the inner output delay, requests the
    # next outer bit; in the sink the request fires every step
    w(chain[0], 0, -2)
    w(chain[0], inner.nxt, one)
    w(chain[0], slot[(0, q)], one)
    for prev, cur in zip(chain, chain[1:]):
        w(cur, 0, -one)
        w(cur, prev, one)
    w(request, phase[SINK], Fraction(2))

    w(arr1, 0, -one)
    w(arr1, request, one)
    w(arr2, 0, -one)
    w(arr2, arr1, one)

    for (ph, b), unit in decode.items():
        w(unit, 0, -2)
        w(unit, phase[ph], one)
        w(unit, in_zero if b == "0" else in_one, one)

    def latch(unit: int, setters: list[int], resettable: bool = True) -> None:
        w(unit, 0, -one)
        w(unit, unit, one)
        for s_unit in setters:
            w(unit, s_unit, _SET)
        if resettable:
            w(unit, arr2, _RESET)

    latch(phase[INIT], [])
    latch(phase[PHASE1], [decode[(INIT, "0")], decode[(PHASE1, "0")]])
    latch(phase[PHASE2], [decode[(PHASE1, "1")], decode[(PHASE2, "1")]])
    latch(phase[SINK], [decode[(INIT, "1")], decode[(PHASE2, "0")]], resettable=False)
    latch(sel["v2"], [decode[(INIT, "0")], decode[(PHASE1, "0")]])
    latch(sel["v34"], [decode[(PHASE1, "1")]])
    latch(sel["v4"], [decode[(PHASE2, "1")]])

    # the verdict: inner report AND a pending request AND phase two
    w(report, 0, -3)
    w(report, inner.out, one)
    w(report, request, one)
    w(report, phase[PHASE2], one)

    init_active = list(
        inner.init_active if inner.init_active is not None else (inner.nxt,)
    )
    for i, ch in enumerate(v1):
        init_active.append(slot[(i, in_alpha.index(ch))])
    init_active.extend((phase[INIT], request))

    delta = 3 * (cap + max(len(v3), 1)) + d_in + 12
    comment = (
        "two-letter front end over a %d-unit inner acceptor; words %s; slots %dx%d"
        % (si, ",".join(repr(x) for x in words[:4]), cap, n_planes)
    )
    net = make_network(
        analog,
        (in_zero, in_one),
        nxt=request,
        out=report,
        delta=delta,
        weights=weights,
        init_active=init_active,
        init_analog=inner.init_analog,
        comment=comment,
    )

    layout = ReductionLayout(
        inner_size=si,
        in_zero=in_zero,
        in_one=in_one,
        slot=slot,
        n_slots=cap,
        n_planes=n_planes,
        shift_conj=shift_conj,
        shift_reset=shift_reset,
        last_one=last_one,
        enq_fire=enq_fire,
        enq_write=enq_write,
        chain=chain,
        request=request,
        arr1=arr1,
        arr2=arr2,
        decode=decode,
        phase=phase,
        sel=sel,
        report=report,
        analog=analog,
    )
    return ReductionBuild(network=net, spec=padded, layout=layout)


# -- plain-text spec files -------------------------------------------------

_SPEC_KEYS = ("inner", "v1", "v2", "v3", "v4", "v5", "alphabet")  # all but alphabet required


def load_reduction_spec(path: str) -> ReductionSpec:
    """Read a key=value spec file: inner=<network path>, v1=..v5=, alphabet= (optional).

    Relative inner paths resolve against the spec file's directory.
    """
    import os

    fields: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValidationError("%s:%d: expected key=value" % (path, lineno))
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise ValidationError("%s:%d: unknown key %r" % (path, lineno, key[:40]))
        if key in fields:
            raise ValidationError("%s:%d: duplicate key %r" % (path, lineno, key))
        fields[key] = value.strip()
    missing = [k for k in _SPEC_KEYS[:-1] if k not in fields]
    if missing:
        raise ValidationError("%s: missing keys %s" % (path, ", ".join(missing)))
    inner_path = fields["inner"]
    if "\0" in inner_path:  # open() would raise ValueError
        raise ValidationError("%s: inner path %r holds a NUL byte" % (path, inner_path[:40]))
    if not os.path.isabs(inner_path):
        inner_path = os.path.join(os.path.dirname(os.path.abspath(path)), inner_path)
    inner = load_network_path(inner_path)
    alphabet = Alphabet.of(fields["alphabet"]) if "alphabet" in fields else None
    return ReductionSpec(
        inner=inner,
        words=(fields["v1"], fields["v2"], fields["v3"], fields["v4"], fields["v5"]),
        alphabet=alphabet,
    )
