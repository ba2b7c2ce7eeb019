"""Topology language tests: parsing, diagnostics, validation, building."""

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lteadv_sim.kernel import SimTime
from lteadv_sim.lte_nodes import LayerSpec, NodeType
from lteadv_sim.model import SimpleModule
from lteadv_sim.netconfig import (InvalidNetworkSpec, Selector, SelectorKind, _lex,
                                  _parse_statements, _parse_tokens, build, format_duration,
                                  format_spec, instance_table, parse, parse_duration,
                                  validate)

from conftest import MULTI_UE_SOURCE, MINIMAL_SOURCE, bench_workloads
from reference_lexer import reference_lex


def parse_ok(source):
    result = parse(source)
    assert result.ok, result.diagnostics
    return result.spec


# -- parsing ------------------------------------------------------------------

def test_minimal_parses_to_four_nodes():
    spec = parse_ok(MINIMAL_SOURCE)
    assert spec.network_name == "Network"
    assert len(spec.node_decls) == 4
    assert [d.kind for d in spec.node_decls] == [
        NodeType.UE, NodeType.ENB, NodeType.SGW_MME, NodeType.PDN_GW]
    assert spec.until == SimTime.from_seconds(1)
    assert len(spec.generators) == 1
    assert spec.generators[0].config.period == SimTime.from_millis(10)


def test_multi_ue_parses_with_vectors_and_ranges():
    spec = parse_ok(MULTI_UE_SOURCE)
    ue_decl = spec.node_decls[0]
    assert ue_decl.count == 4
    assert ue_decl.instances() == ["ue[0]", "ue[1]", "ue[2]", "ue[3]"]
    assert spec.attachments[0].ue == Selector("ue", SelectorKind.RANGE, 0, 1)
    assert spec.generators[0].target == Selector("ue", SelectorKind.STAR)


def test_empty_network_body_parses_then_fails_validation():
    spec = parse_ok("network N { }")
    assert spec.node_decls == []
    assert validate(spec)


def test_unclosed_bracket_reports_position():
    result = parse("network N {\n    ue u[2\n}\n")
    assert result.spec is None
    errs = result.diagnostics
    assert errs, "expected a diagnostic"
    assert errs[0].line == 2
    assert errs[0].col >= 9  # at or after the un-terminated vector size


def test_multiple_errors_reported_in_one_pass():
    source = """network N {
    ue u[;
    wibble x;
    enb e;
}
"""
    result = parse(source)
    errs = result.diagnostics
    assert len(errs) >= 2
    assert {e.line for e in errs} >= {2, 3}


def test_unknown_statement_keyword():
    result = parse("network N { frobnicate; }")
    assert any("unknown statement" in d.message for d in result.diagnostics)


def test_comments_and_whitespace():
    spec = parse_ok("""
network N {   # trailing comment
    # a whole comment line
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    run until 250ms;
}
""")
    assert spec.until == SimTime.from_millis(250)


def test_duration_units():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    link e -> s delay 250us;
    link s -> p delay 1000000ns;
    run until 2s;
}""")
    assert spec.links[0].delay == SimTime(250_000)
    assert spec.links[1].delay == SimTime(1_000_000)


def test_a_duration_in_no_larger_unit_prints_in_nanoseconds():
    assert format_duration(SimTime(1500)) == "1500ns"
    spec = parse_ok(valid_base("link e -> s delay 1500ns;"))
    printed = format_spec(spec)
    assert "link e -> s delay 1500ns;" in printed
    assert parse_ok(printed) == spec


def test_parse_duration_helper():
    assert parse_duration("10ms") == SimTime.from_millis(10)
    assert parse_duration("1s") == SimTime.from_seconds(1)
    with pytest.raises(ValueError):
        parse_duration("10")
    with pytest.raises(ValueError):
        parse_duration("1.5s")


@pytest.mark.parametrize("text, message", [
    ("\u0661\u0660ms", "1:1: unexpected character '\u0661'"),  # Arabic-Indic 10
    ("10ms 5", "1:6: expected end of input, found '5'"),
    ("99999999999999999999s",
     "1:21: simulation time overflows 64 bits: 99999999999999999999000000000 ns"),
])
def test_parse_duration_uses_the_config_grammar(text, message):
    with pytest.raises(ValueError) as err:
        parse_duration(text)
    assert str(err.value) == f"bad duration {text!r}: {message}"


def test_seed_and_duplicate_seed():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    run until 1s;
    seed 42;
}""")
    assert spec.seed == 42
    bad = parse("network N { seed 1; seed 2; }")
    assert any("duplicate 'seed'" in d.message for d in bad.diagnostics)


def test_validate_reports_a_negative_seed(minimal_spec):
    """The grammar has no negative seed, so printing one would not parse back."""
    minimal_spec.seed = 0
    assert validate(minimal_spec) == []
    minimal_spec.seed = -3
    assert [(d.line, d.col, d.message) for d in validate(minimal_spec)] == [
        (1, 1, "'seed' must be non-negative")]
    with pytest.raises(InvalidNetworkSpec):
        build(minimal_spec)


def test_generator_options():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    generator on u { period 20ms; start 5ms; payload packet 1500; }
    run until 1s;
}""")
    cfg = spec.generators[0].config
    assert cfg.period == SimTime.from_millis(20)
    assert cfg.start_time == SimTime.from_millis(5)
    assert cfg.payload_bytes == 1500


@pytest.mark.parametrize("options, where, word", [
    ("period 1ms; period 2ms;", 42, "period"),
    ("start 1ms; start 2ms;", 41, "start"),
    ("payload message; payload packet 3;", 47, "payload"),
])
def test_each_generator_option_at_most_once(options, where, word):
    result = parse(f"network N {{ generator on u {{ {options} }} }}")
    assert [str(d) for d in result.diagnostics] == [
        f"1:{where}: error: duplicate generator option {word!r}"]


def test_a_generator_block_cut_off_by_the_end_of_input():
    result = parse("network N {\n    ue u;\n    generator on u {\n        period 1ms;\n")
    assert [str(d) for d in result.diagnostics] == [
        "5:1: error: expected '}' to close the generator block",
        "5:1: error: expected '}' to close the network block"]


def test_a_payload_of_neither_kind_is_reported_at_its_word():
    result = parse(valid_base().replace("    run until", "    generator on u { payload bytes; }\n"
                                                        "    run until"))
    assert [str(d) for d in result.diagnostics] == [
        "4:30: error: expected 'message' or 'packet' after 'payload'"]


def test_generator_option_mistake_resumes_after_the_block():
    # the block's '}' closes the block, not the network
    result = parse("network N { ue u; generator on u { period 1ms; bogus 2; }"
                   " enb e; seed 1; }")
    assert [str(d) for d in result.diagnostics] == [
        "1:48: error: unknown generator option 'bogus'"]
    # a mistake in a block with no '}' runs to the end of input
    result = parse("network N { generator on u { period 1ms; bogus 2;")
    assert [str(d) for d in result.diagnostics] == [
        "1:42: error: unknown generator option 'bogus'",
        "1:50: error: expected '}' to close the network block"]


@pytest.mark.parametrize("source, expected", [
    ("network N { run until 1s; run until 2s; seed x; }",
     ["1:27: error: duplicate 'run until' statement",
      "1:46: error: expected a seed value, found 'x'"]),
    ("network N { seed 1; seed 2; seed x; }",
     ["1:21: error: duplicate 'seed' statement",
      "1:34: error: expected a seed value, found 'x'"]),
    ("network N { generator on u { period 0ms; } enb e[; }",
     ["1:13: error: generator period must be positive",
      "1:50: error: expected a node count, found ';'"]),
])
def test_complete_statement_error_keeps_the_next_statement(source, expected):
    assert [str(d) for d in parse(source).diagnostics] == expected


def test_zero_run_until_is_reported_at_its_keyword():
    """The parser reports it where the statement is; `validate` keeps its
    check, with no location, for a spec built in code."""
    result = parse("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    generator on u { period 10ms; }
    run until 0ms;
}""")
    assert [str(d) for d in result.diagnostics] == [
        "5:5: error: 'run until' must be positive"]
    result = parse("network N { run until 0s; run until 0us; }")
    assert [str(d) for d in result.diagnostics] == [
        "1:13: error: 'run until' must be positive",
        "1:27: error: duplicate 'run until' statement",
        "1:27: error: 'run until' must be positive"]


def test_validate_reports_a_zero_run_until(minimal_spec):
    minimal_spec.until = SimTime(0)
    assert [str(d) for d in validate(minimal_spec)] == [
        "1:1: error: 'run until' must be positive"]


def test_zero_period_is_a_located_diagnostic():
    result = parse("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    generator on u { period 0ms; }
    run until 1s;
}""")
    assert result.spec is None
    assert any("period" in d.message for d in result.diagnostics)


# -- validation ----------------------------------------------------------------

def valid_base(extra=""):
    return f"""network N {{
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    run until 1s;
    {extra}
}}"""


def test_two_pdn_gw_rejected():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p; pdn_gw q;
    attach u -> e;
    run until 1s;
}""")
    errs = validate(spec)
    assert any("exactly one pdn_gw" in e.message for e in errs)
    assert all(e.line > 0 for e in errs)


def test_dangling_attach_selector():
    spec = parse_ok("""network N {
    ue u[3]; enb e; sgw_mme s; pdn_gw p;
    attach u[0..2] -> e;
    attach u[3] -> e;
    run until 1s;
}""")
    errs = validate(spec)
    assert any("dangling ue selector u[3]" in e.message for e in errs)


def test_an_indexed_selector_on_a_singleton_ue_dangles():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u[0] -> e;
    run until 1s;
}""")
    assert "3:5: error: attach: dangling ue selector u[0]" in map(str, validate(spec))


def test_unattached_ue():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    run until 1s;
}""")
    errs = validate(spec)
    assert any("unattached ue 'u'" in e.message for e in errs)


def test_doubly_attached_ue():
    spec = parse_ok("""network N {
    ue u; enb e[2]; sgw_mme s; pdn_gw p;
    attach u -> e[0];
    attach u -> e[1];
    run until 1s;
}""")
    errs = validate(spec)
    assert any("attached more than once" in e.message for e in errs)


def test_attach_needs_a_single_enb():
    spec = parse_ok("""network N {
    ue u; enb e[2]; sgw_mme s; pdn_gw p;
    attach u -> e[*];
    run until 1s;
}""")
    errs = validate(spec)
    assert any("exactly one" in e.message for e in errs)


def test_generator_on_non_ue():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    generator on e { }
    run until 1s;
}""")
    errs = validate(spec)
    assert any("generator: no such ue" in e.message for e in errs)


def test_link_kind_restrictions():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
    link u -> s;
    run until 1s;
}""")
    errs = validate(spec)
    assert any("only enb -> sgw_mme" in e.message for e in errs)


def test_missing_run_until():
    spec = parse_ok("""network N {
    ue u; enb e; sgw_mme s; pdn_gw p;
    attach u -> e;
}""")
    errs = validate(spec)
    assert any("run until" in e.message for e in errs)


def test_duplicate_node_name_diagnosed():
    spec = parse_ok("""network N {
    ue x; enb x; sgw_mme s; pdn_gw p;
    attach x -> x;
    run until 1s;
}""")
    errs = validate(spec)
    assert any("duplicate node name" in e.message for e in errs)


def test_valid_specs_have_no_diagnostics(minimal_spec, multi_ue_spec):
    assert validate(minimal_spec) == []
    assert validate(multi_ue_spec) == []


# One spec that breaks every node, attach, link and generator rule.
EVERY_RULE_BROKEN = """network N {
    ue u[4]; ue x; enb e[3]; enb x; enb z[0]; sgw_mme s; pdn_gw p[2];
    attach u[0] -> e[0];
    attach u[0..1] -> e[*];
    attach u[9] -> e[1];
    attach nope -> zz;
    attach e[0] -> u[2];
    attach x -> e[2];
    attach u[3..2] -> e[1];
    link zz -> s;
    link u[0] -> s;
    link e[7] -> s;
    link e[0] -> p;
    link e[0] -> s delay 1ms;
    link e[0..1] -> s;
    link s -> p[0];
    link s -> x;
    link s -> p[*];
    generator on u[0] { }
    generator on u[0..2] { period 5ms; }
    generator on e[0] { }
    generator on u[4] { }
    generator on ghost { }
    generator on u[3] { }
    generator on u[*] { }
    run until 1s;
}
"""


def test_validate_reports_every_rule_in_order():
    spec = parse_ok(EVERY_RULE_BROKEN)
    assert [(d.line, d.col, d.message) for d in validate(spec)] == [
        (2, 30, "duplicate node name 'x'"),
        (2, 37, "node vector 'z' must have size >= 1"),
        (2, 58, "network needs exactly one pdn_gw, found 2"),
        (4, 5, "attach: e[*] names 3 enbs, need exactly one"),
        (5, 5, "attach: dangling ue selector u[9]"),
        (6, 5, "attach: dangling ue selector nope"),
        (6, 5, "attach: dangling enb selector zz"),
        (7, 5, "attach: dangling ue selector e[0]"),
        (7, 5, "attach: dangling enb selector u[2]"),
        (9, 5, "attach: dangling ue selector u[3..2]"),
        (2, 5, "ue 'u[0]' attached more than once"),
        (2, 5, "unattached ue 'u[2]'"),
        (2, 5, "unattached ue 'u[3]'"),
        (10, 5, "link: unknown node in zz -> s"),
        (11, 5, "link: only enb -> sgw_mme and sgw_mme -> pdn_gw links exist"),
        (12, 5, "link: dangling selector in e[7] -> s"),
        (13, 5, "link: only enb -> sgw_mme and sgw_mme -> pdn_gw links exist"),
        (15, 5, "duplicate link e[0] -> s"),
        (17, 5, "link: only enb -> sgw_mme and sgw_mme -> pdn_gw links exist"),
        (18, 5, "link: p[*] must name exactly one node"),
        (20, 5, "duplicate generator on ue 'u[0]'"),
        (21, 5, "generator: no such ue e[0]"),
        (22, 5, "generator: no such ue u[4]"),
        (23, 5, "generator: no such ue ghost"),
        (25, 5, "duplicate generator on ue 'u[0]'"),
        (25, 5, "duplicate generator on ue 'u[1]'"),
        (25, 5, "duplicate generator on ue 'u[2]'"),
        (25, 5, "duplicate generator on ue 'u[3]'"),
    ]


def test_oracle_on_invalid_spec_takes_first_statement():
    """A dangling selector names nothing; the first statement naming a UE
    sets its eNB and its generator."""
    from lteadv_sim.trace import data_walk, generator_on
    spec = parse_ok(EVERY_RULE_BROKEN)
    assert generator_on(spec, "u[0]").period == SimTime.from_millis(10)
    assert generator_on(spec, "u[1]").period == SimTime.from_millis(5)
    assert generator_on(spec, "x") is None
    assert data_walk(spec, "u[0]")[6][0] == "N.e[0].lte_radio"
    assert data_walk(spec, "u[0]")[16][0] == "N.p[0].lte_s5"
    for unattached in ("u[1]", "u[2]", "u[3]"):
        with pytest.raises(ValueError):
            data_walk(spec, unattached)
    twice = parse_ok("""network N {
    ue u; enb e[2]; sgw_mme s; pdn_gw p;
    attach u -> e[1];
    attach u -> e[0];
    run until 1s;
}""")
    assert data_walk(twice, "u")[6][0] == "N.e[1].lte_radio"


# -- round-trip printing ----------------------------------------------------------

@pytest.mark.parametrize("source", [
    MINIMAL_SOURCE,
    MULTI_UE_SOURCE,
    """network N {
    ue u[2]; enb e; sgw_mme s; pdn_gw p;
    attach u[*] -> e;
    link e -> s delay 3ms;
    link s -> p delay 250us;
    generator on u[0] { period 20ms; start 5ms; payload packet 64; }
    generator on u[1] { period 10ms; }
    run until 500ms;
    seed 9;
}""",
])
def test_print_then_parse_round_trips(source):
    spec = parse_ok(source)
    printed = format_spec(spec)
    reparsed = parse(printed)
    assert reparsed.ok, reparsed.diagnostics
    assert reparsed.spec == spec
    # and printing is a fixed point
    assert format_spec(reparsed.spec) == printed


def test_printing_leaves_out_chain_overrides(multi_ue_spec):
    """The language has no statement for a chain override, so the round
    trip gives the spec back without its overrides, equal in all else."""
    printed = format_spec(multi_ue_spec)
    multi_ue_spec.chain_overrides[NodeType.SGW_MME] = (LayerSpec("S1", "lte_s1"),)
    assert format_spec(multi_ue_spec) == printed
    reparsed = parse_ok(printed)
    assert reparsed != multi_ue_spec
    assert reparsed == dataclasses.replace(multi_ue_spec, chain_overrides={})


# -- parser fuzz ----------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_SOURCES = [path.read_text(encoding="utf-8")
                   for path in sorted(FIXTURES.glob("*.net"))]

# the language's own words and symbols, so random text often gets past
# the lexer and exercises the parser's recovery
_TOKENS = ("network", "N", "ue", "enb", "sgw_mme", "pdn_gw", "u", "e", "attach",
           "link", "delay", "generator", "on", "period", "start", "payload",
           "packet", "message", "run", "until", "seed", "ns", "us", "ms", "s",
           "{", "}", "[", "]", ";", "->", "..", "*", "#", "0", "1", "42",
           "9" * 25, " ", "\n", "\t", "\r")
_fragments = st.one_of(st.sampled_from(_TOKENS), st.text(max_size=4))
_random_source = st.lists(_fragments, max_size=60).map("".join)


@st.composite
def _mutated_fixture(draw):
    """A fixture with a few slices deleted, replaced, duplicated or swapped."""
    text = draw(st.sampled_from(FIXTURE_SOURCES))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        j = draw(st.integers(min_value=i, max_value=min(len(text), i + 12)))
        op = draw(st.sampled_from(("delete", "replace", "insert", "duplicate")))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "replace":
            text = text[:i] + draw(_fragments) + text[j:]
        elif op == "insert":
            text = text[:i] + draw(_fragments) + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def _check_parse(source):
    result = parse(source)  # must not raise
    lines = source.split("\n")
    for diag in result.diagnostics:
        assert 1 <= diag.line <= len(lines), (diag, source)
        # a column may sit one past the end of its line (end of input)
        assert 1 <= diag.col <= len(lines[diag.line - 1]) + 1, (diag, source)
    if result.ok:
        printed = format_spec(result.spec)
        again = parse(printed)
        assert again.ok, (again.diagnostics, printed)
        assert format_spec(again.spec) == printed


@settings(max_examples=300)
@given(_random_source)
def test_parse_fuzz_random_text(source):
    _check_parse(source)


@settings(max_examples=300)
@given(_mutated_fixture())
def test_parse_fuzz_mutated_fixtures(source):
    _check_parse(source)


# -- lexer against the character-loop reference ---------------------------------------

# Characters on which Unicode's categories and the lexer's rules part:
# "²" and "½" are isdigit()/isnumeric() but no letter, "Ⅷ" a letter
# number, "٣" a non-ASCII decimal digit, "ǅ" a titlecase letter, "é" a
# letter outside ASCII, U+0301 a combining mark, and the rest whitespace
# the lexer does not skip.
_UNICODE_EDGES = ("\u00b2", "\u00bd", "\u2167", "\u0663", "\u01c5", "\u00e9", "\u0301",
                  "\u00a0", "\x0b", "\x0c", "\u2028")
_edge_text = st.text(alphabet=st.sampled_from(_UNICODE_EDGES + tuple("ax_09 \t\r\n#-.>[];{}*")),
                     max_size=40)


def _lex_with_diagnostics(source):
    diags = []
    return _lex(source, diags), diags


@given(st.one_of(_random_source, _mutated_fixture(), _edge_text))
@example("network N { seed \u00b2; }")
@example("network N { ue \u00b212x; }")
@example("\u00bd")
@example("\u2167x")
def test_lexer_matches_reference(source):
    assert _lex_with_diagnostics(source) == reference_lex(source)


@pytest.mark.parametrize("source, tokens, diagnostics", [
    ("network N { seed \u00b2; }",
     [("name", "network", 1, 1), ("name", "N", 1, 9), ("sym", "{", 1, 11),
      ("name", "seed", 1, 13), ("sym", ";", 1, 19), ("sym", "}", 1, 21),
      ("eof", "", 1, 22)],
     [(1, 18, "unexpected character '\u00b2'")]),
    ("\u00bd", [("eof", "", 1, 2)], [(1, 1, "unexpected character '\u00bd'")]),
    ("\u2167x", [("name", "x", 1, 2), ("eof", "", 1, 3)],
     [(1, 1, "unexpected character '\u2167'")]),
    ("x\u00b2 \u00e9\u0663 # note", [("name", "x\u00b2", 1, 1), ("name", "\u00e9\u0663", 1, 4),
                                  ("eof", "", 1, 7)], []),
    # a stray character, then ASCII digits: an int, then a name
    ("network N { ue \u00b212x; }",
     [("name", "network", 1, 1), ("name", "N", 1, 9), ("sym", "{", 1, 11),
      ("name", "ue", 1, 13), ("int", "12", 1, 17), ("name", "x", 1, 19),
      ("sym", ";", 1, 20), ("sym", "}", 1, 22), ("eof", "", 1, 23)],
     [(1, 16, "unexpected character '\u00b2'")]),
])
def test_numeric_characters_continue_but_never_start_names(source, tokens, diagnostics):
    toks, diags = _lex_with_diagnostics(source)
    assert toks == tokens
    assert [(d.line, d.col, d.message) for d in diags] == diagnostics


def test_word_pattern_is_isalnum_or_underscore():
    # the scanner's \w must continue a name exactly where the character
    # loop did: on isalnum() or "_"
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]


@pytest.mark.parametrize("source", [
    "network N { seed \u00b2; }",          # str.isdigit() but not int()
    "network N { ue u[\u0663]; }",         # a non-ASCII decimal digit
    "network N { seed " + "1" * 5000 + "; }",  # past int()'s digit limit
])
def test_parse_reports_unreadable_integers(source):
    result = parse(source)
    assert not result.ok
    assert [(d.line, d.col) for d in result.diagnostics][0] == (1, 18)


# -- the statement path against the token parser ----------------------------------------

def _positions(spec):
    """Every statement's (line, col), which spec equality leaves out."""
    return [(decl.line, decl.col) for decls in (spec.node_decls, spec.attachments,
                                                spec.links, spec.generators)
            for decl in decls]


def _check_statement_path(source):
    """The statement path declines `source` (None) or reads it exactly as
    the token parser does; returns what it read."""
    spec = _parse_statements(source)
    if spec is not None:
        reference = _parse_tokens(source)
        assert reference.ok, reference.diagnostics
        assert spec == reference.spec
        assert _positions(spec) == _positions(reference.spec)
    return spec


_SEPARATORS = (" ", "\t", "\r", "\n", "# note\n", " #\t{ ;\r\n\t")


@st.composite
def _respaced_fixture(draw, joined=True):
    """A fixture's tokens joined again by drawn whitespace and comments,
    and with `joined` at up to two places by nothing, which can run two
    words into one."""
    toks, _ = _lex_with_diagnostics(draw(st.sampled_from(FIXTURE_SOURCES)))
    gaps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(toks),
                         max_size=len(toks)))
    if joined:
        for i in draw(st.lists(st.integers(0, len(toks) - 1), max_size=2)):
            gaps[i] = ""
    end = draw(st.sampled_from(("", "\n", "# last line")))
    return "".join(gap + tok[1] for gap, tok in zip(gaps, toks)) + end


# a generator's options, any of them in any order, repeated or not
_OPTIONS = ("period 7ms;", "start 250us;", "payload packet 64;", "payload message;",
            "period 0ms;", "start 1s;")
_options_in_any_order = st.lists(st.sampled_from(_OPTIONS), max_size=4).map(
    lambda options: MINIMAL_SOURCE.replace("{ period 10ms; }",
                                           "{ " + " ".join(options) + " }"))

# texts the statement path must decline: the token parser reports each
# but the last, which it reads
_DECLINED = {
    "header commented out": "#" + MINIMAL_SOURCE,
    "one name": MINIMAL_SOURCE.replace("period 10ms", "period10ms"),
    "non-ASCII digit": MINIMAL_SOURCE.replace("ue ue;", "ue ue[\u0663];"),
    "second run": MINIMAL_SOURCE.replace("1s;", "1s; run until 2s;"),
    "second seed": MINIMAL_SOURCE.replace("1s;", "1s; seed 1; seed 2;"),
    "past the digit limit": MINIMAL_SOURCE.replace("1s;", "1s; seed " + "1" * 5000 + ";"),
    "out of range": MINIMAL_SOURCE.replace("1s;", "99999999999s;"),
    "config that raises": MINIMAL_SOURCE.replace("period 10ms", "period 0ms"),
    "zero run until": MINIMAL_SOURCE.replace("1s;", "0ms;"),
    "options out of order": MINIMAL_SOURCE.replace("{ period 10ms; }",
                                                   "{ start 1ms; period 10ms; }"),
}


@pytest.mark.parametrize("name", list(_DECLINED))
def test_statement_path_declines(name):
    assert _parse_statements(_DECLINED[name]) is None
    assert parse(_DECLINED[name]).ok is (name == "options out of order")


@given(st.one_of(_random_source, _mutated_fixture(), _respaced_fixture(),
                 _options_in_any_order))
@example(_DECLINED["header commented out"])
@example(_DECLINED["one name"])
@example(_DECLINED["non-ASCII digit"])
@example((FIXTURES / "delayed.net").read_text().replace("sgw_mme delay", "sgw_mmedelay"))
@example(MINIMAL_SOURCE.replace("10ms", "10 \r\n ms"))
@example("# first\nnetwork N {}# last")
def test_statement_path_declines_or_matches_the_token_parser(source):
    _check_statement_path(source)


@given(_respaced_fixture(joined=False))
def test_statement_path_reads_respaced_clean_text(source):
    if _parse_tokens(source).ok:
        assert _check_statement_path(source) is not None


_CLEAN_FIXTURES = {path.name: text for path, text in zip(sorted(FIXTURES.glob("*.net")),
                                                         FIXTURE_SOURCES)
                   if _parse_tokens(text).ok}
_CLEAN_TEXTS = {
    **_CLEAN_FIXTURES,
    **{f"format_spec({name})": format_spec(_parse_tokens(text).spec)
       for name, text in _CLEAN_FIXTURES.items()},
    **{f"{name}({seed})": make(seed) for name, make in bench_workloads().items()
       for seed in (0, 1, 7)},
}


@pytest.mark.parametrize("source", list(_CLEAN_TEXTS.values()), ids=list(_CLEAN_TEXTS))
def test_statement_path_reads_clean_text(source):
    """A silent decline would only slow parse() down, so the fixtures,
    their printed forms and the benchmark's texts must not take one."""
    assert len(_CLEAN_FIXTURES) >= 5
    assert _check_statement_path(source) is not None


# -- defaults and building -----------------------------------------------------------

def test_default_links_inserted(minimal_spec):
    links = instance_table(minimal_spec).links
    assert links == [("enb", "sgw_mme", SimTime(0)), ("sgw_mme", "pdn_gw", SimTime(0))]


def test_declared_links_respected():
    spec = parse_ok("""network N {
    ue u; enb e[2]; sgw_mme s; pdn_gw p;
    attach u -> e[0];
    link e[1] -> s delay 2ms;
    run until 1s;
}""")
    links = instance_table(spec).links
    assert links[0] == ("e[1]", "s", SimTime.from_millis(2))
    assert ("e[0]", "s", SimTime(0)) in links
    assert links[-1] == ("s", "p", SimTime(0))


def test_build_minimal_paths(minimal_spec):
    built = build(minimal_spec)
    paths = {m.full_path for m in built.root.iter_tree()}
    assert "Network.ue.lte_nas" in paths
    assert "Network.enb.lte_gtp" in paths
    assert "Network.sgw_mme.lte_s1" in paths
    assert "Network.pdn_gw.lte_ip" in paths


def test_build_multi_ue_bracket_paths(multi_ue_spec):
    built = build(multi_ue_spec)
    paths = {m.full_path for m in built.root.iter_tree()}
    for i in range(4):
        assert f"Network.ue[{i}].lte_nas" in paths
    assert "Network.enb[1].lte_radio" in paths


def test_build_twice_identical_ids(multi_ue_spec):
    first = build(multi_ue_spec).root.assign_ids()
    second = build(multi_ue_spec).root.assign_ids()
    assert first == second
    assert len(set(first.values())) == len(first)  # ids unique


def _reference_preorder(node, names=()):
    """(module, path) pairs, depth-first pre-order, by plain recursion."""
    names = names + (node.name,)
    yield node, ".".join(names)
    for child in node.children:
        yield from _reference_preorder(child, names)


def test_run_numbers_every_module_in_preorder_with_its_path():
    spec = parse_ok((FIXTURES / "desk_50ms.net").read_text(encoding="utf-8"))
    built = build(spec)
    built.simulator().run(until=spec.until)
    expected = list(_reference_preorder(built.root))
    assert len(expected) == 989  # 100 UEs, 10 eNBs and the core
    assert [(m.module_id, m.full_path) for m, _ in expected] == [
        (module_id, path) for module_id, (_, path) in enumerate(expected, 1)]


def test_build_leaves_ids_to_assign_ids_and_run(minimal_spec):
    built = build(minimal_spec)
    assert {m.module_id for m in built.root.iter_tree()} == {None}
    ids = built.root.assign_ids()
    assert ids == {path: module_id for module_id, (_, path)
                   in enumerate(_reference_preorder(built.root), 1)}
    built = build(minimal_spec)
    built.simulator().run(until=minimal_spec.until)
    assert {m.full_path: m.module_id for m in built.root.iter_tree()} == ids


def test_node_attached_after_build_gets_its_path_and_id(minimal_spec):
    built = build(minimal_spec)
    probe = built.nodes["ue"].add_child(SimpleModule("probe"))
    built.simulator().run(until=minimal_spec.until)
    preorder = [m for m, _ in _reference_preorder(built.root)]
    assert probe.full_path == "Network.ue.probe"
    assert probe.module_id == preorder.index(probe) + 1


def test_build_refuses_invalid_spec():
    spec = parse_ok("network N { }")
    with pytest.raises(InvalidNetworkSpec):
        build(spec)


def test_chain_override_changes_built_stack(minimal_spec):
    minimal_spec.chain_overrides[NodeType.UE] = (
        LayerSpec("NAS", "lte_nas"),
        LayerSpec("RLC", "lte_rlc"),
        LayerSpec("PHY", "lte_phy"),
    )
    assert validate(minimal_spec) == []
    built = build(minimal_spec)
    ue = built.nodes["ue"]
    assert [c.name for c in ue.children] == [
        "generator", "lte_nas", "lte_rlc", "lte_phy", "lte_radio"]


def test_chain_override_validation_rules(minimal_spec):
    minimal_spec.chain_overrides[NodeType.UE] = (LayerSpec("NAS", "lte_nas"),)
    errs = validate(minimal_spec)
    assert any("at least 2 layers" in e.message for e in errs)

    minimal_spec.chain_overrides[NodeType.UE] = (
        LayerSpec("NAS", "lte_nas"), LayerSpec("PHY", "generator"))
    errs = validate(minimal_spec)
    assert any("reserved module names" in e.message for e in errs)

    minimal_spec.chain_overrides[NodeType.UE] = (
        LayerSpec("NAS", "lte_nas"), LayerSpec("PHY", "lte_nas"))
    assert [str(d) for d in validate(minimal_spec)] == [
        "1:1: error: chain override for ue repeats a module name"]


def test_chain_override_round_trip_run(minimal_spec):
    """A shortened UE and core still complete oracle-clean round trips."""
    from lteadv_sim.trace import summarize
    from conftest import run_spec
    minimal_spec.chain_overrides[NodeType.UE] = (
        LayerSpec("NAS", "lte_nas"), LayerSpec("PHY", "lte_phy"))
    minimal_spec.chain_overrides[NodeType.PDN_GW] = (LayerSpec("IP", "lte_ip"),)
    assert validate(minimal_spec) == []
    records, summary, built = run_spec(minimal_spec, until=SimTime(1))
    metrics = summarize(records, minimal_spec, summary)
    assert metrics.round_trips == 1
    assert metrics.path_mismatches == []
    paths = [r.path for r in records]
    assert "Network.ue.lte_rrc" not in " ".join(paths)


def test_one_layer_sgw_override_still_fans_in(multi_ue_spec):
    """The only S-GW/MME layer is also its S1 side: both eNBs link to it
    and each reply goes back through the gate its request came in on."""
    from lteadv_sim.trace import expected_event_total, summarize
    from conftest import run_spec
    multi_ue_spec.chain_overrides[NodeType.SGW_MME] = (LayerSpec("S1", "lte_s1"),)
    multi_ue_spec.until = SimTime.from_millis(25)
    assert validate(multi_ue_spec) == []
    records, summary, built = run_spec(multi_ue_spec)
    s1 = built.nodes["sgw_mme"].child("lte_s1")
    assert sorted(s1._gates) == ["inFromLowerLayer[0]", "inFromLowerLayer[1]",
                                 "inFromUpperLayer", "outToLowerLayer[0]",
                                 "outToLowerLayer[1]", "outToUpperLayer"]
    metrics = summarize(records, multi_ue_spec, summary)
    assert metrics.path_mismatches == []
    assert metrics.round_trips == 4 * 3
    assert summary.events_executed == expected_event_total(multi_ue_spec)
