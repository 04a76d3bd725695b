import pytest
from hypothesis import given, settings, strategies as st

from anet.errors import AnetError, ValidationError
from anet.mealy import (
    MealyMachine,
    accepts_word,
    compile_mealy,
    machine_from_tsv,
    run_mealy,
)
from anet.protocol import Alphabet, enumerate_language
from conftest import all_words

PARITY_TSV = "e\t0\te\t-\t1\ne\t1\to\t-\t1\no\t0\to\t-\t0\no\t1\te\t-\t0\n"

EMITTING_TSV = """\
p\ta\tp\txy\t0
p\tb\tq\t-\t0
q\ta\tp\tz\t1
q\tb\tq\t-\t1
"""


def machine_to_tsv(machine: MealyMachine) -> str:
    """Reference writer for the parser: one line per transition, start state first."""
    lines = []
    ordered = [machine.initial] + [s for s in machine.states if s != machine.initial]
    for st in ordered:
        for sym in machine.input_symbols:
            emit = machine.emissions[(st, sym)] or "-"
            acc = "1" if st in machine.accepting else "0"
            lines.append("\t".join((st, sym, machine.transitions[(st, sym)], emit, acc)))
    return "\n".join(lines) + "\n"


def test_round_trip_parity():
    m = machine_from_tsv(PARITY_TSV)
    assert machine_to_tsv(m) == PARITY_TSV
    assert machine_from_tsv(machine_to_tsv(m)) == m


def test_run_mealy_tracks_state_and_emissions():
    m = machine_from_tsv(EMITTING_TSV)
    run = run_mealy(m, "aab")
    assert run.states == ("p", "p", "p", "q")
    assert run.emitted == "xyxy"
    assert run.final_state == "q"
    assert run.accepted  # q is accepting


def test_accepts_word():
    m = machine_from_tsv(PARITY_TSV)
    assert accepts_word(m, "")
    assert accepts_word(m, "0110")
    assert not accepts_word(m, "0111")


def test_tsv_rejects_duplicate_transition():
    with pytest.raises(ValidationError):
        machine_from_tsv(PARITY_TSV + "e\t0\to\t-\t1\n")


def test_tsv_rejects_inconsistent_accepting_flags():
    bad = PARITY_TSV.replace("e\t1\to\t-\t1", "e\t1\to\t-\t0")
    with pytest.raises(ValidationError):
        machine_from_tsv(bad)


def test_tsv_rejects_missing_source_rows():
    with pytest.raises(ValidationError):
        machine_from_tsv("p\ta\tq\t-\t1\np\tb\tp\t-\t1\n")


def test_machine_validation_requires_total_transitions():
    with pytest.raises(ValidationError, match=r"^invalid machine: missing transition \(p, b\)$"):
        MealyMachine(
            states=("p",),
            input_symbols=("a", "b"),
            transitions={("p", "a"): "p"},
            emissions={("p", "a"): ""},
            initial="p",
            accepting=frozenset(),
        )


def test_machine_fields_are_frozen_copies():
    table, accepting = {("p", "a"): "p"}, {"p"}
    m = MealyMachine(["p"], ["a"], table, {("p", "a"): "x"}, "p", accepting)
    table[("p", "a")] = "q"
    accepting.add("q")
    assert m.transitions[("p", "a")] == "p" and m.accepting == {"p"}
    assert m == MealyMachine(("p",), ("a",), {("p", "a"): "p"}, {("p", "a"): "x"}, "p", frozenset("p"))
    for mapping in (m.transitions, m.emissions):
        with pytest.raises(TypeError):
            mapping[("p", "a")] = "p"


def test_compiled_network_equals_machine_language():
    m = machine_from_tsv(PARITY_TSV)
    net, layout = compile_mealy(m)
    assert net.delta == 3
    lang = enumerate_language(net, 7)
    alpha = Alphabet.of("01")
    expect = {w for n in range(8) for w in all_words(alpha.symbols, n) if accepts_word(m, w)}
    assert lang == expect


def test_compiled_network_two_symbol_alphabet():
    m = machine_from_tsv(EMITTING_TSV)
    net, layout = compile_mealy(m)
    alpha = Alphabet.of("ab")
    lang = enumerate_language(net, 6, alpha)
    expect = {w for n in range(7) for w in all_words(alpha.symbols, n) if accepts_word(m, w)}
    assert lang == expect


def test_compiled_layout_indexes_are_within_network(run=None):
    m = machine_from_tsv(EMITTING_TSV)
    net, layout = compile_mealy(m)
    for unit in (layout.request, layout.acc_latch, layout.report):
        assert 1 <= unit < net.size
    assert layout.analog == net.size
    for st_unit in layout.state_unit.values():
        assert 1 <= st_unit < net.size


# -- mutated transducer files: refused, or loaded into a machine that round-trips


field_text = st.one_of(
    st.sampled_from(("", "-", "0", "1", "2", "e", "o", "p", "q", "a", "b", "xy", "ab", "#", "e o", "0.5", "01")),
    st.text(alphabet="01eopqab-# \t", max_size=4),
)


@st.composite
def mutated_machine_files(draw) -> str:
    """The parity or the emitting transducer's file after one to three line mutations."""
    lines = draw(st.sampled_from((PARITY_TSV, EMITTING_TSV))).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(("replace", "drop", "duplicate", "truncate")))
        if kind == "replace":
            fields = lines[k].split("\t")
            fields[draw(st.integers(min_value=0, max_value=len(fields) - 1))] = draw(field_text)
            lines[k] = "\t".join(fields)
        elif kind == "drop":
            del lines[k]
            if not lines:
                break
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k] = lines[k][: draw(st.integers(min_value=0, max_value=len(lines[k])))]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400, deadline=None)
@given(mutated_machine_files())
def test_mutated_machine_files_are_refused_or_round_trip(text):
    # a mutated file is refused, or loads into a machine that equals its
    # reload; that machine compiles, or compile_mealy refuses it
    try:
        machine = machine_from_tsv(text)
    except AnetError:
        return
    assert machine_from_tsv(machine_to_tsv(machine)) == machine
    try:
        compile_mealy(machine)
    except AnetError:
        pass
