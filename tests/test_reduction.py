import contextlib
import dataclasses
import io
import os
import random
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from anet.cutlang import build_cut_acceptor, cut_params, reversal_member
from anet.cli import main
from anet.errors import AnetError, QueryGapError, ResourceBudgetError, UsageError, ValidationError
from anet.mealy import MealyMachine, compile_mealy, machine_from_tsv, run_mealy
from anet.network import network_to_text
from anet.protocol import Alphabet, accepts, enumerate_language, run_online
from anet.reduction import (
    INIT,
    PHASE1,
    PHASE2,
    ReductionSpec,
    SINK,
    build_reduction,
    load_reduction_spec,
    pad_words,
    word_scheme,
)
from test_acceptance import MOD3_TSV
from test_cutlang import beta_value_by_fractions

ALL_TSV = "A\t0\tA\t-\t1\nA\t1\tA\t-\t1\n"
PARITY_TSV = "e\t0\te\t-\t1\ne\t1\to\t-\t1\no\t0\to\t-\t0\no\t1\te\t-\t0\n"


def accept_all_net():
    net, _ = compile_mealy(machine_from_tsv(ALL_TSV))
    return net


def parity_full_net():
    net, _ = compile_mealy(machine_from_tsv(PARITY_TSV))
    return net


def test_pad_words_rewrite():
    padded = pad_words(("a", "b", "c", "d", "e"), 2)
    assert padded == ("abb", "bb", "bbcdd", "dd", "dde")


def test_pad_words_rejects_nonpositive_count():
    with pytest.raises(ValidationError):
        pad_words(("a", "b", "c", "d", "e"), 0)


def test_word_scheme():
    words = ("1110", "0110", "1000", "1011", "0001")
    assert word_scheme(words, 1, 1) == "1110" + "0110" + "1000"
    assert word_scheme(words, 2, 3) == "1110" + "0110" * 2 + "1000" + "1011" * 2
    with pytest.raises(ValidationError):
        word_scheme(words, 0, 1)
    with pytest.raises(ValidationError):
        word_scheme(words, 1, 0)


def outer_word(zeros: int, ones: int) -> str:
    return "0" * zeros + "1" * ones


def controller_machine(words) -> MealyMachine:
    """The translation as a transducer: the phase latches' states, emitting the blocks."""
    _, v2, v3, v4, _ = words
    return MealyMachine(
        states=(INIT, PHASE1, PHASE2, SINK),
        input_symbols=("0", "1"),
        transitions={
            (INIT, "0"): PHASE1,
            (INIT, "1"): SINK,
            (PHASE1, "0"): PHASE1,
            (PHASE1, "1"): PHASE2,
            (PHASE2, "1"): PHASE2,
            (PHASE2, "0"): SINK,
            (SINK, "0"): SINK,
            (SINK, "1"): SINK,
        },
        emissions={
            (INIT, "0"): v2,
            (INIT, "1"): "",
            (PHASE1, "0"): v2,
            (PHASE1, "1"): v3 + v4,
            (PHASE2, "1"): v4,
            (PHASE2, "0"): "",
            (SINK, "0"): "",
            (SINK, "1"): "",
        },
        initial=INIT,
        accepting=frozenset((PHASE2,)),
    )


def test_controller_stream_matches_scheme():
    # the preloaded v1 and the blocks the transducer emits spell the scheme
    # word, and the transducer ends in phase two exactly on 0^m 1^n
    words = ("0000", "0011", "0101", "0110", "1111")
    machine = controller_machine(words)
    for m in range(1, 4):
        for n in range(1, 4):
            run = run_mealy(machine, outer_word(m, n))
            # the stream runs one emission block past the scheme prefix
            assert (words[0] + run.emitted).startswith(word_scheme(words, m, n))
            assert run.final_state == PHASE2
    for bits in ("", "10", "0110"):
        assert run_mealy(machine, bits).final_state != PHASE2
    build = build_reduction(ReductionSpec(inner=accept_all_net(), words=words))
    assert build.layout.n_slots == max(4, 4, 8, 4)


def test_short_words_are_padded_to_timing_minimum():
    spec = ReductionSpec(inner=accept_all_net(), words=("0", "0", "0", "0", "0"))
    build = build_reduction(spec)
    assert all(len(w) >= 4 for w in build.spec.words[:4])
    got = enumerate_language(build.network, 5)
    assert got == {outer_word(m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5}


def test_output_delay_must_stay_below_fourth_word():
    slow = dataclasses.replace(accept_all_net(), output_delay=4)
    spec = ReductionSpec(inner=slow, words=("0000", "0000", "0000", "0000", "0000"))
    with pytest.raises(ValidationError):
        build_reduction(spec)


def test_rejects_mismatched_alphabet():
    with pytest.raises(ValidationError):
        build_reduction(
            ReductionSpec(inner=accept_all_net(), words=("ab", "ab", "ab", "ab", "ab"))
        )


@pytest.fixture(scope="module")
def accept_all_build():
    return build_reduction(
        ReductionSpec(inner=accept_all_net(), words=("0000", "0000", "0000", "0000", "0000"))
    )


def test_contract_accept_all(accept_all_build):
    net = accept_all_build.network
    got = enumerate_language(net, 7)
    assert got == {
        outer_word(m, n) for m in range(1, 7) for n in range(1, 7) if m + n <= 7
    }


def test_malformed_words_rejected(accept_all_build):
    net = accept_all_build.network
    for w in ("", "1", "10", "0", "00", "010", "0110", "101", "110"):
        assert not accepts(net, w), "malformed %r must be rejected" % w


def test_contract_depends_on_inner(accept_all_build):
    # parity inner: accepts iff the translated word has an even count of ones
    words = ("1110", "0110", "1000", "1011", "0001")
    inner = parity_full_net()
    build = build_reduction(ReductionSpec(inner=inner, words=words))
    got = enumerate_language(build.network, 7)
    expect = set()
    for m in range(1, 7):
        for n in range(1, 7):
            if m + n <= 7 and accepts(inner, word_scheme(words, m, n)):
                expect.add(outer_word(m, n))
    assert got == expect
    # ones(scheme) = 2m + 3n + 1: membership should depend on n's parity
    assert outer_word(1, 1) in got and outer_word(1, 2) not in got


@pytest.mark.parametrize("base, threshold", [(F(27, 8), F(1, 4)), (F(27), F(1, 28)), (F(8), F(1, 7))])
def test_contract_around_a_live_analog_inner(base, threshold):
    # the inner cut acceptor's analog unit holds the value of the word read so
    # far, so the reduction's states repeat little and the walk steps most
    # feeds; next to the named threshold, one at the reversed value of the
    # m = n = 2 scheme word makes the verdict depend on m and n
    rng = random.Random("live analog %s" % base)
    for _ in range(4):
        words = tuple("".join(rng.choice("01") for _ in range(4)) for _ in range(5))
        mid = beta_value_by_fractions(word_scheme(words, 2, 2), base, reverse=True)
        for params in (cut_params(base, threshold), cut_params(base, mid)):
            build = build_reduction(ReductionSpec(inner=build_cut_acceptor(params), words=words))
            assert build.spec.words == words  # no padding, so the oracle reads the same words
            want = {
                outer_word(m, n)
                for m in range(1, 10)
                for n in range(1, 11 - m)
                if reversal_member(word_scheme(words, m, n), params)
            }
            assert enumerate_language(build.network, 10) == want, (words, params)


def _instants(trace):
    return {t: cfg for t, cfg in trace.rows}


def test_queue_discipline_audit(accept_all_build):
    # replay several runs and check the queue invariants instant by instant:
    # pre-sink pops always find exactly one symbol in the head slot, refills
    # only happen with exactly one armed block selector, and occupancy never
    # exceeds the slot bank
    build = accept_all_build
    net, lay = build.network, build.layout
    inner_nxt = build.spec.inner.nxt
    q = lay.n_planes - 1
    sym_cells = [lay.slot[(i, p)] for i in range(lay.n_slots) for p in range(q)]
    head_cells = [lay.slot[(0, p)] for p in range(q)]
    psink = lay.phase[SINK]
    for word in ("0011", "0001", "1", "10", "000111", "011", "0101"):
        rows = _instants(run_online(net, word))
        horizon = max(rows)
        for t in range(1, horizon + 1):
            prev = rows[t - 1]
            if prev.unit(inner_nxt) and not prev.unit(psink):
                head = sum(prev.unit(u) for u in head_cells)
                assert head == 1, "pop from a bad head at t=%d of %r" % (t, word)
            if rows[t].unit(lay.enq_fire):
                armed = [role for role, u in lay.sel.items() if rows[t].unit(u)]
                assert len(armed) == 1, "refill with %s armed at t=%d" % (armed, t)
            occupancy = sum(rows[t].unit(u) for u in sym_cells)
            assert occupancy <= lay.n_slots


def test_layout_shape(accept_all_build):
    lay = accept_all_build.layout
    net = accept_all_build.network
    assert len(lay.slot) == lay.n_slots * lay.n_planes
    assert lay.request == lay.chain[-1]
    assert net.nxt == lay.request
    assert net.out == lay.report
    assert net.input_units == (lay.in_zero, lay.in_one)
    assert lay.analog == net.size


def test_spec_file_round_trip(tmp_path):
    from anet.network import save_network_path

    inner = accept_all_net()
    net_path = tmp_path / "inner.anet"
    save_network_path(inner, str(net_path))
    spec_path = tmp_path / "job.spec"
    spec_path.write_text(
        "# front end job\n"
        "inner = inner.anet\n"
        "v1 = 0000\nv2 = 0000\nv3 = 0000\nv4 = 0000\nv5 = 0000\n"
    )
    spec = load_reduction_spec(str(spec_path))
    assert spec.inner == inner
    assert spec.words == ("0000",) * 5
    build = build_reduction(spec)
    assert enumerate_language(build.network, 4) == {"01", "001", "011", "0011"} | {
        "0001", "0111"
    }


def test_spec_file_missing_keys(tmp_path):
    p = tmp_path / "bad.spec"
    p.write_text("inner = x.anet\nv1 = 0\n")
    with pytest.raises(ValidationError):
        load_reduction_spec(str(p))


_SPEC_WORDS = "v1 = 0000\nv2 = 0000\nv3 = 0000\nv4 = 0000\nv5 = 0000\n"


@pytest.mark.parametrize(
    "text, line, key",
    (
        ("inner = inner.anet\n" + _SPEC_WORDS + "alphabt = 10\n", 7, "alphabt"),
        ("inner = inner.anet\n" + _SPEC_WORDS + "v1 = 1111\n", 7, "v1"),
    ),
    ids=("unknown", "duplicate"),
)
def test_spec_file_refuses_unknown_and_duplicate_keys(tmp_path, text, line, key):
    # before, the unknown key was dropped and the repeated one's last value won
    from anet.network import save_network_path

    save_network_path(accept_all_net(), str(tmp_path / "inner.anet"))
    p = tmp_path / "bad.spec"
    p.write_text(text)
    with pytest.raises(ValidationError, match="bad.spec:%d: .*%r" % (line, key)):
        load_reduction_spec(str(p))


def test_readme_spec_example_loads(tmp_path):
    from pathlib import Path

    from anet.network import save_network_path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    intro = readme.index("A reduction spec is a small key-value file:")
    start = readme.index("```\n", intro) + 4
    example = readme[start : readme.index("```", start)]
    save_network_path(accept_all_net(), str(tmp_path / "inner.anet"))
    p = tmp_path / "readme.spec"
    p.write_text(example)
    spec = load_reduction_spec(str(p))
    assert spec.words == ("0000",) * 5 and spec.alphabet == Alphabet.of("01")


# -- mutated reduction specs: each builds, or ends with the README's exit code

MOD3_INNER_TEXT = network_to_text(compile_mealy(machine_from_tsv(MOD3_TSV))[0])
MOD3_SPEC = ("inner = inner.anet", "v1 = aaaa", "v2 = aaaa", "v3 = bbbb", "v4 = bbbb", "v5 = bbbb", "alphabet = ab")
spec_key = st.sampled_from(("inner", "v1", "v5", "alphabet", "v6", "Inner", "", "# v1", "inner = x"))
spec_value = st.one_of(
    st.sampled_from(("", "a", "ab", "ba", "abc", "aa", "b" * 12, "inner.anet", "missing.anet", ".", "/", "mod3.spec")),
    st.text(alphabet="ab01=#. /\x00", max_size=6),
)
README_EXIT_CODES = ((UsageError, 1), (ValidationError, 2), (ResourceBudgetError, 3), (QueryGapError, 4), (OSError, 1))


@st.composite
def mutated_mod3_specs(draw) -> str:
    """Criterion 7's mod-3 spec after one to three line mutations."""
    lines = list(MOD3_SPEC)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(("key", "value", "drop", "duplicate", "truncate")))
        key, _, value = lines[k].partition(" = ")
        if kind == "key":
            lines[k] = "%s = %s" % (draw(spec_key), value)
        elif kind == "value":
            lines[k] = "%s = %s" % (key, draw(spec_value))
        elif kind == "drop":
            del lines[k]
            if not lines:
                break
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k] = lines[k][: draw(st.integers(min_value=0, max_value=len(lines[k])))]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=150, deadline=None)
@given(mutated_mod3_specs())
@example("".join(line + "\n" for line in MOD3_SPEC))
@example("".join(line + "\n" for line in MOD3_SPEC).replace("inner.anet", "in\0ner.anet"))
def test_mutated_reduction_specs_build_or_exit_with_their_code(text):
    # unknown, repeated or missing keys, bad inner paths, multi-character or
    # empty alphabets and empty words: the spec builds, or anet reduce ends
    # with one error line and the README's exit code for what was raised
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = os.path.join(tmp, "mod3.spec"), os.path.join(tmp, "out.anet")
        with open(os.path.join(tmp, "inner.anet"), "w", encoding="utf-8") as fp:
            fp.write(MOD3_INNER_TEXT)
        with open(spec, "w", encoding="utf-8") as fp:
            fp.write(text)
        try:
            build_reduction(load_reduction_spec(spec))
            want = 0
        except (AnetError, OSError) as exc:
            want = next(code for kind, code in README_EXIT_CODES if isinstance(exc, kind))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["reduce", spec, out]) == want
        assert err.getvalue().startswith("error: ") == (want != 0) and err.getvalue().count("\n") == (want != 0)
