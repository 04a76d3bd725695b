"""Deterministic finite transducers and their compilation to online acceptors.

The text format is one TSV row per transition: source state, input symbol,
target state, emitted word ("-" for the empty word), and 1 or 0 marking the
source state accepting. The first row's source state is the initial state;
state and symbol order follow first appearance.

compile_mealy ignores the emissions and produces a network accepting the same
language as the underlying automaton. The network spends three steps per
symbol: request, transition match, state update. That keeps the report unit
constant between queries and the query gap uniform, which the larger
constructions built on top of these acceptors rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ValidationError
from .network import Network, make_network, read_text

EMPTY_MARK = "-"


@dataclass(frozen=True)
class MealyMachine:
    states: tuple[str, ...]
    input_symbols: tuple[str, ...]
    transitions: Mapping[tuple[str, str], str]
    emissions: Mapping[tuple[str, str], str]
    initial: str
    accepting: frozenset[str]

    def __post_init__(self) -> None:
        """Freeze every field into an immutable copy, then refuse a malformed machine."""
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "input_symbols", tuple(self.input_symbols))
        object.__setattr__(self, "transitions", MappingProxyType(dict(self.transitions)))
        object.__setattr__(self, "emissions", MappingProxyType(dict(self.emissions)))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        bad: list[str] = []
        if len(set(self.states)) != len(self.states):
            bad.append("duplicate states")
        if len(set(self.input_symbols)) != len(self.input_symbols):
            bad.append("duplicate input symbols")
        if self.initial not in self.states:
            bad.append("initial state %r unknown" % self.initial)
        for st in self.accepting:
            if st not in self.states:
                bad.append("accepting state %r unknown" % st)
        for st in self.states:
            for sym in self.input_symbols:
                if (st, sym) not in self.transitions:
                    bad.append("missing transition (%s, %s)" % (st, sym))
        for (st, sym), tgt in self.transitions.items():
            if st not in self.states or sym not in self.input_symbols:
                bad.append("transition from unknown (%s, %s)" % (st, sym))
            if tgt not in self.states:
                bad.append("transition target %r unknown" % tgt)
            if (st, sym) not in self.emissions:
                bad.append("missing emission for (%s, %s)" % (st, sym))
        if bad:
            raise ValidationError("invalid machine: " + "; ".join(bad))


@dataclass(frozen=True)
class MealyRun:
    emitted: str
    final_state: str
    accepted: bool
    states: tuple[str, ...]  # state sequence, initial first


def run_mealy(machine: MealyMachine, word: Iterable[str]) -> MealyRun:
    state = machine.initial
    seq = [state]
    emitted: list[str] = []
    for sym in word:
        if (state, sym) not in machine.transitions:
            raise ValidationError("no transition from %r on %r" % (state, sym))
        emitted.append(machine.emissions[(state, sym)])
        state = machine.transitions[(state, sym)]
        seq.append(state)
    return MealyRun(
        emitted="".join(emitted),
        final_state=state,
        accepted=state in machine.accepting,
        states=tuple(seq),
    )


def accepts_word(machine: MealyMachine, word: Iterable[str]) -> bool:
    return run_mealy(machine, word).accepted


# -- TSV format -----------------------------------------------------------


def machine_from_tsv(text: str) -> MealyMachine:
    states: list[str] = []
    symbols: list[str] = []
    transitions: dict[tuple[str, str], str] = {}
    emissions: dict[tuple[str, str], str] = {}
    accepting: dict[str, bool] = {}

    def see_state(st: str) -> None:
        if st not in states:
            states.append(st)

    rows = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 5:
            raise ValidationError("line %d: expected 5 fields, got %d" % (lineno, len(parts)))
        src, sym, tgt, emit, acc = parts
        if acc not in ("0", "1"):
            raise ValidationError("line %d: accepting flag must be 0 or 1" % lineno)
        see_state(src)
        see_state(tgt)
        if sym not in symbols:
            symbols.append(sym)
        if (src, sym) in transitions:
            raise ValidationError("line %d: duplicate transition (%s, %s)" % (lineno, src, sym))
        transitions[(src, sym)] = tgt
        emissions[(src, sym)] = "" if emit == EMPTY_MARK else emit
        flag = acc == "1"
        if src in accepting and accepting[src] != flag:
            raise ValidationError("line %d: state %s marked both accepting and not" % (lineno, src))
        accepting[src] = flag
        rows += 1
    if rows == 0:
        raise ValidationError("no transition rows")
    for st in states:
        if st not in accepting:
            raise ValidationError("state %s never appears as a source row" % st)
    return MealyMachine(
        states=tuple(states),
        input_symbols=tuple(symbols),
        transitions=transitions,
        emissions=emissions,
        initial=states[0],
        accepting=frozenset(st for st, f in accepting.items() if f),
    )


def load_machine_path(path: str) -> MealyMachine:
    return machine_from_tsv(read_text(path))


# -- compilation to an online acceptor ------------------------------------


@dataclass(frozen=True)
class CompiledLayout:
    state_unit: Mapping[str, int]
    match_unit: Mapping[tuple[str, str], int]
    request: int
    acc_latch: int
    report: int
    analog: int


def compile_mealy(machine: MealyMachine) -> tuple[Network, CompiledLayout]:
    """Acceptance-only compilation, three steps per consumed symbol.

    Cycle: the request unit fires, the symbol lands one step later, the match
    units (one per transition) detect the (state, symbol) pair on the step
    after that, and on the third step the state latches switch over and the
    accepting latch reloads. The report unit copies the accepting latch, so at
    any query instant it shows the verdict of the prefix consumed so far.

    The analog unit exists because every network has one; nothing drives it.
    """
    n_states = len(machine.states)
    n_sym = len(machine.input_symbols)

    inputs = tuple(range(1, n_sym + 1))
    request = n_sym + 1
    cyc1, cyc2 = request + 1, request + 2
    state_lo = cyc2 + 1
    match_lo = state_lo + n_states
    acc_latch = match_lo + n_states * n_sym
    report = acc_latch + 1
    analog = report + 1

    state_unit = {st: state_lo + k for k, st in enumerate(machine.states)}
    match_unit = {
        (st, sym): match_lo + k * n_sym + m
        for k, st in enumerate(machine.states)
        for m, sym in enumerate(machine.input_symbols)
    }
    sym_unit = {sym: inputs[m] for m, sym in enumerate(machine.input_symbols)}

    one = Fraction(1)
    weights: list[tuple[int, int, Fraction]] = [
        (cyc1, 0, -one),
        (cyc1, request, one),
        (cyc2, 0, -one),
        (cyc2, cyc1, one),
        (request, 0, -one),
        (request, cyc2, one),
    ]
    for (st, sym), unit in match_unit.items():
        weights.append((unit, 0, Fraction(-2)))
        weights.append((unit, state_unit[st], one))
        weights.append((unit, sym_unit[sym], one))
    for st, unit in state_unit.items():
        weights.append((unit, 0, -one))
        weights.append((unit, unit, one))
        for (src, sym), munit in match_unit.items():
            tgt = machine.transitions[(src, sym)]
            weights.append((unit, munit, Fraction(2) if tgt == st else Fraction(-2)))
    weights.append((acc_latch, 0, -one))
    weights.append((acc_latch, acc_latch, one))
    for (src, sym), munit in match_unit.items():
        tgt = machine.transitions[(src, sym)]
        weights.append((acc_latch, munit, Fraction(2) if tgt in machine.accepting else Fraction(-2)))
    weights.append((report, 0, -one))
    weights.append((report, acc_latch, one))

    init = [request, state_unit[machine.initial]]
    if machine.initial in machine.accepting:
        init.append(acc_latch)

    net = make_network(
        size=analog,
        inputs=inputs,
        nxt=request,
        out=report,
        delta=3,
        weights=weights,
        init_active=init,
        comment="compiled acceptor for a %d-state machine over %s"
        % (n_states, "".join(machine.input_symbols)),
    )
    layout = CompiledLayout(
        state_unit=state_unit,
        match_unit=match_unit,
        request=request,
        acc_latch=acc_latch,
        report=report,
        analog=analog,
    )
    return net, layout
