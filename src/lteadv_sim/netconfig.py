"""Topology description language.

A small declarative format for wiring up networks:

    network Network {
        ue ue;                   # or a vector: ue u[4];
        enb enb;
        sgw_mme sgw_mme;
        pdn_gw pdn_gw;
        attach ue -> enb;
        link enb -> sgw_mme delay 5ms;   # optional; defaults are wired in
        generator on ue { period 10ms; }
        run until 1s;
        seed 7;
    }

"#" starts a line comment. Durations are integers with a unit suffix
(ns/us/ms/s); there is no floating point in configs. Selectors address
vector nodes as name[2], name[0..3] or name[*]; a bare name means every
instance of that declaration.

Lexical rules: a name starts with "_" or a character for which
str.isalpha() holds and continues on str.isalnum() characters and "_";
an integer is a run of ASCII digits 0-9; the symbols are { } [ ] ; *
-> and ..; only space, tab, CR and LF are whitespace, and LF alone ends
a line. Any other character is reported as unexpected, so "²", "½" and
"Ⅷ" start neither a name nor an integer (they may continue a name).
Columns count characters from 1.

parse() reads well-formed text one statement at a time, one regex match
each; text with any part that does not match declines that path as a
whole and goes through the lexer and the token parser, which report
syntax problems as located diagnostics and keep going where they
safely can. So the diagnostics, and the spec of any text, are those of
the token parser. validate() checks the topology rules (exactly one
PDN-GW and one S-GW/MME, every UE attached, selectors resolve, and so
on); build() turns a validated spec into a runnable module tree. Both,
and the chain-walk oracle in trace, read the instance_table() that
checks the rules and resolves every selector in one pass.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Optional

from .kernel import (MessageKind, NS_PER_MS, NS_PER_S, NS_PER_US, SimTime,
                     SimulationError, Simulator)
from .model import ChannelSpec, CompoundModule
from .lte_nodes import NodeType, attach_ue, build_node, link_enb_to_sgw, link_sgw_to_pdn
from .traffic import Generator, GeneratorConfig

DURATION_UNITS = {"ns": 1, "us": NS_PER_US, "ms": NS_PER_MS, "s": NS_PER_S}

NODE_KEYWORDS = {kind.value: kind for kind in NodeType}


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    """A located error; every diagnostic is one."""

    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: error: {self.message}"


class InvalidNetworkSpec(SimulationError):
    """Raised by build() when handed a spec that does not validate."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


class SelectorKind(enum.Enum):
    BARE = "bare"      # every instance of the declaration
    INDEX = "index"    # name[i]
    RANGE = "range"    # name[lo..hi], inclusive
    STAR = "star"      # name[*]


@dataclass(frozen=True, slots=True)
class Selector:
    name: str
    kind: SelectorKind = SelectorKind.BARE
    lo: Optional[int] = None
    hi: Optional[int] = None

    def __str__(self) -> str:
        if self.kind is SelectorKind.BARE:
            return self.name
        if self.kind is SelectorKind.INDEX:
            return f"{self.name}[{self.lo}]"
        if self.kind is SelectorKind.RANGE:
            return f"{self.name}[{self.lo}..{self.hi}]"
        return f"{self.name}[*]"


@dataclass
class NodeDecl:
    kind: NodeType
    name: str
    count: Optional[int] = None  # None: singleton with a bare name
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def instances(self) -> list[str]:
        if self.count is None:
            return [self.name]
        return [f"{self.name}[{i}]" for i in range(self.count)]


@dataclass
class AttachDecl:
    ue: Selector
    enb: Selector
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class LinkDecl:
    src: Selector
    dst: Selector
    delay: Optional[SimTime] = None  # None: unspecified, treated as 0
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class GeneratorDecl:
    target: Selector
    config: GeneratorConfig
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class NetworkSpec:
    """Parsed, printable topology description."""

    network_name: str
    node_decls: list[NodeDecl] = field(default_factory=list)
    attachments: list[AttachDecl] = field(default_factory=list)
    links: list[LinkDecl] = field(default_factory=list)
    generators: list[GeneratorDecl] = field(default_factory=list)
    until: Optional[SimTime] = None
    seed: Optional[int] = None
    # Programmatic only: replacement interior layers per node kind.
    chain_overrides: dict = field(default_factory=dict)

    @property
    def effective_seed(self) -> int:
        return 0 if self.seed is None else self.seed


@dataclass
class ParseResult:
    spec: Optional[NetworkSpec]
    diagnostics: list[ParseDiagnostic]

    @property
    def ok(self) -> bool:
        return self.spec is not None and not self.diagnostics


def parse_duration(text: str) -> SimTime:
    """Parse "10ms"-style duration text with the config grammar (used by
    the CLI for overrides); raises ValueError with the first diagnostic."""
    diags: list[ParseDiagnostic] = []
    parser = _Parser(_lex(text, diags), diags)
    try:
        value = parser.parse_duration()
        if parser.tok[0] != "eof":
            parser.fail_expected("end of input")
    except _StmtError:
        pass
    if diags:
        first = diags[0]
        raise ValueError(f"bad duration {text!r}: {first.line}:{first.col}: {first.message}")
    return value


def format_duration(t: SimTime) -> str:
    for unit, mult in (("s", NS_PER_S), ("ms", NS_PER_MS), ("us", NS_PER_US)):
        if t.ns % mult == 0:
            return f"{t.ns // mult}{unit}"
    return f"{t.ns}ns"


# --------------------------------------------------------------------------
# lexer
#
# A token is a plain tuple (kind, text, line, col), kind being "name",
# "int", "sym" or "eof". The text settles the kind: only the eof token
# is empty, ints are ASCII digits, symbols are punctuation and names
# are words, so the parser tests a token by its text alone.

_TOKEN = re.compile(r"""
    [ \t\r]+ | \#.*                 # whitespace and comments: no group
  | (?P<int>[0-9]+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<sym>->|\.\.|[{}\[\];*])
  | (?P<other>\w+|.)                # a non-ASCII word or a stray character
""", re.VERBOSE)
_DIGITS = "0123456789"


def _lex_other(text: str, line: int, col: int, toks: list[tuple],
               diags: list[ParseDiagnostic]) -> None:
    """Tokens of a word that starts outside ASCII, or of one stray
    character. A name starts on an isalpha() character or "_" and runs
    to the end of the word; ASCII digits make an int; any other
    character ("²", "½", "Ⅷ", "٣", "-") is reported and skipped."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isalpha() or ch == "_":
            toks.append(("name", text[i:], line, col + i))
            return
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(("int", text[i:j], line, col + i))
            i = j
        else:
            diags.append(ParseDiagnostic(line, col + i, f"unexpected character {ch!r}"))
            i += 1


def _lex(source: str, diags: list[ParseDiagnostic]) -> list[tuple]:
    toks: list[tuple] = []
    append = toks.append
    line = 0
    for text in source.split("\n"):
        line += 1
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "other":
                _lex_other(m.group(), line, m.start() + 1, toks, diags)
            elif kind is not None:
                append((kind, m.group(), line, m.start() + 1))
    # the last line's first "#" starts a comment, and the end of input
    # sits where that comment starts
    comment = text.find("#")
    append(("eof", "", line, (len(text) if comment < 0 else comment) + 1))
    return toks


# --------------------------------------------------------------------------
# parser

class _StmtError(Exception):
    """Internal: abandon the current statement and resynchronize."""


class _Parser:
    """Recursive descent over the tokens; `tok` is the current one."""

    def __init__(self, tokens: list[tuple], diags: list[ParseDiagnostic]):
        self.next_tok = iter(tokens).__next__
        self.tok = self.next_tok()
        self.diags = diags

    def advance(self) -> tuple:
        tok = self.tok
        if tok[0] != "eof":
            self.tok = self.next_tok()
        return tok

    def at(self, text: str) -> bool:
        return self.tok[1] == text

    def error(self, message: str, tok: Optional[tuple] = None) -> None:
        _, _, line, col = tok or self.tok
        self.diags.append(ParseDiagnostic(line, col, message))

    def fail(self, message: str, tok: Optional[tuple] = None) -> None:
        self.error(message, tok)
        raise _StmtError

    def fail_expected(self, what: str) -> None:
        kind, text, _, _ = self.tok
        self.fail(f"expected {what}, found {text!r}" if kind != "eof"
                  else f"expected {what}, found end of input")

    def expect_sym(self, sym: str) -> tuple:
        if self.tok[1] != sym:
            self.fail_expected(repr(sym))
        return self.advance()

    def expect_close_bracket(self, open_tok: tuple) -> tuple:
        """Like expect_sym("]") but blames the unclosed '[' itself."""
        if self.tok[1] != "]":
            self.error("unclosed '[' (expected ']')", open_tok)
            raise _StmtError
        return self.advance()

    def expect_name(self, what: str) -> str:
        if self.tok[0] != "name":
            self.fail_expected(what)
        return self.advance()[1]

    def expect_keyword(self, word: str) -> tuple:
        if self.tok[1] != word:
            self.fail(f"expected {word!r}, found {self.tok[1]!r}")
        return self.advance()

    def expect_int(self, what: str) -> int:
        if self.tok[0] != "int":
            self.fail_expected(what)
        tok = self.advance()
        try:
            return int(tok[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self.error(f"{what} has too many digits", tok)
            raise _StmtError from None

    def parse_duration(self) -> SimTime:
        value = self.expect_int("a duration")
        unit_tok = self.tok
        if unit_tok[1] not in DURATION_UNITS:
            self.fail("expected a duration unit (ns/us/ms/s)")
        self.advance()
        try:
            return SimTime(value * DURATION_UNITS[unit_tok[1]])
        except SimulationError as exc:
            self.error(str(exc), unit_tok)
            raise _StmtError from None

    def parse_selector(self) -> Selector:
        name = self.expect_name("a node name")
        if not self.at("["):
            return Selector(name)
        open_tok = self.advance()
        if self.at("*"):
            self.advance()
            self.expect_close_bracket(open_tok)
            return Selector(name, SelectorKind.STAR)
        lo = self.expect_int("an index")
        if self.at(".."):
            self.advance()
            hi = self.expect_int("an index")
            self.expect_close_bracket(open_tok)
            return Selector(name, SelectorKind.RANGE, lo, hi)
        self.expect_close_bracket(open_tok)
        return Selector(name, SelectorKind.INDEX, lo)

    def sync(self) -> None:
        """Skip to just past the next ';' (or stop before '}' / eof)."""
        while True:
            if self.tok[0] == "eof" or self.at("}"):
                return
            if self.advance()[1] == ";":
                return

    def parse_network(self) -> Optional[NetworkSpec]:
        try:
            self.expect_keyword("network")
            name = self.expect_name("a network name")
            self.expect_sym("{")
        except _StmtError:
            return None
        spec = NetworkSpec(network_name=name)
        while not self.at("}") and self.tok[0] != "eof":
            try:
                self.parse_statement(spec)
            except _StmtError:
                self.sync()
        if self.tok[0] == "eof":
            self.error("expected '}' to close the network block")
        else:
            self.advance()
            if self.tok[0] != "eof":
                self.error("trailing input after the network block")
        return spec

    def parse_statement(self, spec: NetworkSpec) -> None:
        kind, text, _, _ = self.tok
        if kind != "name":
            self.fail(f"expected a statement, found {text!r}")
        # each statement is parsed by the method named for its keyword
        if text in NODE_KEYWORDS:
            text = "node_decl"
        elif text not in ("attach", "link", "generator", "run", "seed"):
            self.fail(f"unknown statement keyword {text!r}")
        getattr(self, f"parse_{text}")(spec)

    def parse_node_decl(self, spec: NetworkSpec) -> None:
        kw = self.advance()
        name = self.expect_name("a node name")
        count = None
        if self.at("["):
            open_tok = self.advance()
            count = self.expect_int("a node count")
            self.expect_close_bracket(open_tok)
        self.expect_sym(";")
        spec.node_decls.append(NodeDecl(NODE_KEYWORDS[kw[1]], name, count,
                                        line=kw[2], col=kw[3]))

    def parse_attach(self, spec: NetworkSpec) -> None:
        kw = self.advance()
        ue = self.parse_selector()
        self.expect_sym("->")
        enb = self.parse_selector()
        self.expect_sym(";")
        spec.attachments.append(AttachDecl(ue, enb, line=kw[2], col=kw[3]))

    def parse_link(self, spec: NetworkSpec) -> None:
        kw = self.advance()
        src = self.parse_selector()
        self.expect_sym("->")
        dst = self.parse_selector()
        delay = None
        if self.at("delay"):
            self.advance()
            delay = self.parse_duration()
        self.expect_sym(";")
        spec.links.append(LinkDecl(src, dst, delay, line=kw[2], col=kw[3]))

    def parse_generator(self, spec: NetworkSpec) -> None:
        kw = self.advance()
        self.expect_keyword("on")
        target = self.parse_selector()
        self.expect_sym("{")
        seen: set[str] = set()  # option words
        kwargs: dict = {}       # GeneratorConfig's
        try:
            while not self.at("}"):
                if self.tok[0] == "eof":
                    self.fail("expected '}' to close the generator block")
                opt_tok = self.tok
                opt = self.expect_name("a generator option")
                if opt in seen:
                    self.fail(f"duplicate generator option {opt!r}", opt_tok)
                seen.add(opt)
                if opt == "period":
                    kwargs["period"] = self.parse_duration()
                elif opt == "start":
                    kwargs["start_time"] = self.parse_duration()
                elif opt == "payload":
                    if self.at("message"):
                        self.advance()
                    elif self.at("packet"):
                        self.advance()
                        kwargs["payload_kind"] = MessageKind.PACKET
                        kwargs["payload_bytes"] = self.expect_int("a byte count")
                    else:
                        self.fail("expected 'message' or 'packet' after 'payload'")
                else:
                    self.fail(f"unknown generator option {opt!r}", opt_tok)
                self.expect_sym(";")
        except _StmtError:
            # one diagnostic per block: resume after the block's '}'
            while self.tok[0] != "eof" and self.advance()[1] != "}":
                pass
            return
        self.advance()
        try:
            config = GeneratorConfig(**kwargs)
        except ValueError as exc:
            self.error(str(exc), kw)
            return
        spec.generators.append(GeneratorDecl(target, config, line=kw[2], col=kw[3]))

    def parse_run(self, spec: NetworkSpec) -> None:
        kw = self.advance()
        self.expect_keyword("until")
        until = self.parse_duration()
        self.set_once(spec, "until", until, kw, "'run until' statement")
        if not until.ns:
            self.error("'run until' must be positive", kw)

    def parse_seed(self, spec: NetworkSpec) -> None:
        kw = self.advance()
        self.set_once(spec, "seed", self.expect_int("a seed value"), kw, "'seed' statement")

    def set_once(self, spec: NetworkSpec, field_name: str, value, kw: tuple,
                 statement: str) -> None:
        """End a statement that sets a spec field only once: set it to
        `value`, or, when a statement set it already, report a duplicate
        `statement` at its keyword `kw`."""
        self.expect_sym(";")
        if getattr(spec, field_name) is not None:
            self.error(f"duplicate {statement}", kw)
        else:
            setattr(spec, field_name, value)


# --------------------------------------------------------------------------
# statement path
#
# Well-formed text is read one regex match per statement, each value
# built straight from the match groups. The patterns accept only text
# the lexer and _Parser read with no diagnostic, to an equal spec: words
# are ASCII names, each followed by a non-word character so that no
# match splits one ("period10ms" is one name), integers are ASCII
# digits, and a generator's options come in format_spec's order.
# Comments are blanked to spaces first, which moves no column. Anything
# else declines the whole text, and parse() reads it with the token
# parser.

_COMMENT = re.compile(r"#[^\n]*")  # the lexer's: "#" to the end of the line
_S = r"[ \t\r\n]*"
_NAME = r"([A-Za-z_]\w*)(?!\w)"
_INT = r"([0-9]+)"
_DURATION = rf"{_INT}{_S}({'|'.join(DURATION_UNITS)})(?!\w)"
# a selector's name, "*", lo and hi
_SELECTOR_PARTS = re.compile(
    rf"{_NAME}(?:{_S}\[{_S}(?:(\*)|{_INT}(?:{_S}\.\.{_S}{_INT})?){_S}\])?")
_SELECTOR = "(" + re.sub(r"\((?!\?)", "(?:", _SELECTOR_PARTS.pattern) + ")"  # as one group
_HEADER = re.compile(rf"{_S}network(?!\w){_S}{_NAME}{_S}\{{{_S}")
# one group per statement, its parts' groups after it
_STATEMENT = re.compile("(?:" + "|".join((
    rf"(?P<attach>attach(?!\w){_S}{_SELECTOR}{_S}->{_S}{_SELECTOR}{_S};)",
    rf"(?P<generator>generator(?!\w){_S}on(?!\w){_S}{_SELECTOR}{_S}\{{{_S}"
    rf"(?:period(?!\w){_S}{_DURATION}{_S};{_S})?"
    rf"(?:start(?!\w){_S}{_DURATION}{_S};{_S})?"
    rf"(?:payload(?!\w){_S}(?:message(?!\w)|packet(?!\w){_S}{_INT}){_S};{_S})?\}})",
    rf"(?P<node>({'|'.join(NODE_KEYWORDS)})(?!\w){_S}{_NAME}(?:{_S}\[{_S}{_INT}{_S}\])?{_S};)",
    rf"(?P<link>link(?!\w){_S}{_SELECTOR}{_S}->{_S}{_SELECTOR}{_S}"
    rf"(?:delay(?!\w){_S}{_DURATION}{_S})?;)",
    rf"(?P<run>run(?!\w){_S}until(?!\w){_S}{_DURATION}{_S};)",
    rf"(?P<seed>seed(?!\w){_S}{_INT}{_S};)",
)) + ")" + _S)
_CLOSE = re.compile(rf"\}}{_S}\Z")


class _Selectors(dict):
    """Selectors by their text, each made at its first lookup."""

    def __missing__(self, text: str) -> Selector:
        name, star, lo, hi = _SELECTOR_PARTS.fullmatch(text).groups()
        if star is not None:
            sel = Selector(name, SelectorKind.STAR)
        elif lo is None:
            sel = Selector(name)
        elif hi is None:
            sel = Selector(name, SelectorKind.INDEX, int(lo))
        else:
            sel = Selector(name, SelectorKind.RANGE, int(lo), int(hi))
        self[text] = sel
        return sel


def _parse_statements(source: str) -> Optional[NetworkSpec]:
    """The spec of `source` read one statement at a time, or None, to
    read it with the token parser: when any part of the text does not
    match, on a second `run until` or `seed`, on a zero `run until`, and
    when a value does not build (an integer over the digit limit, a
    duration out of range, a generator config that raises)."""
    if "#" in source:
        source = _COMMENT.sub(lambda c: " " * len(c[0]), source)
    m = _HEADER.match(source)
    if m is None:
        return None
    spec = NetworkSpec(m[1])
    pos = last = m.end()
    line = source.count("\n", 0, pos) + 1
    selectors = _Selectors()
    units = DURATION_UNITS
    match = _STATEMENT.match
    try:
        while (m := match(source, pos)) is not None:
            line += source.count("\n", last, pos)
            col = pos - source.rfind("\n", 0, pos)
            g = m.groups()
            i = m.lastindex  # the statement's group, so g[i] is its first part
            kind = m.lastgroup
            if kind == "attach":
                spec.attachments.append(AttachDecl(selectors[g[i]], selectors[g[i + 1]],
                                                   line, col))
            elif kind == "generator":
                kwargs: dict = {}  # GeneratorConfig's, as _Parser gives them
                if g[i + 1] is not None:
                    kwargs["period"] = SimTime(int(g[i + 1]) * units[g[i + 2]])
                if g[i + 3] is not None:
                    kwargs["start_time"] = SimTime(int(g[i + 3]) * units[g[i + 4]])
                if g[i + 5] is not None:
                    kwargs["payload_kind"] = MessageKind.PACKET
                    kwargs["payload_bytes"] = int(g[i + 5])
                spec.generators.append(GeneratorDecl(selectors[g[i]], GeneratorConfig(**kwargs),
                                                     line, col))
            elif kind == "node":
                count = g[i + 2]
                spec.node_decls.append(NodeDecl(NODE_KEYWORDS[g[i]], g[i + 1],
                                                None if count is None else int(count),
                                                line, col))
            elif kind == "link":
                delay = None if g[i + 2] is None else SimTime(int(g[i + 2]) * units[g[i + 3]])
                spec.links.append(LinkDecl(selectors[g[i]], selectors[g[i + 1]], delay,
                                           line, col))
            elif kind == "run":
                until = int(g[i]) * units[g[i + 1]]
                if spec.until is not None or not until:
                    return None
                spec.until = SimTime(until)
            else:  # seed
                if spec.seed is not None:
                    return None
                spec.seed = int(g[i])
            last, pos = pos, m.end()
    except (ValueError, SimulationError):
        return None
    return spec if _CLOSE.match(source, pos) else None


def _parse_tokens(source: str) -> ParseResult:
    """Lex all of `source` and parse the tokens: every diagnostic, and
    recovery after one, comes from here."""
    diags: list[ParseDiagnostic] = []
    tokens = _lex(source, diags)
    spec = _Parser(tokens, diags).parse_network()
    if diags:
        spec = None
    return ParseResult(spec, diags)


def parse(source: str) -> ParseResult:
    """Parse topology source text; never raises on bad input. Returns the
    spec plus any diagnostics; with errors the spec is withheld (None),
    but all recoverable problems are reported in one pass. Text the
    statement path reads needs no token parse."""
    spec = _parse_statements(source)
    if spec is not None:
        return ParseResult(spec, [])
    return _parse_tokens(source)


# --------------------------------------------------------------------------
# validation

def _resolve(sel: Selector, decl: NodeDecl) -> Optional[list[str]]:
    """Instance names a selector denotes in its declaration, or None if
    it dangles."""
    count = decl.count
    if sel.kind is SelectorKind.BARE or sel.kind is SelectorKind.STAR:
        return decl.instances()
    if count is None:
        return None  # indexed selector against a singleton declaration
    if sel.kind is SelectorKind.INDEX:
        if 0 <= sel.lo < count:
            return [f"{sel.name}[{sel.lo}]"]
        return None
    if sel.lo > sel.hi or sel.lo < 0 or sel.hi >= count:
        return None
    return [f"{sel.name}[{i}]" for i in range(sel.lo, sel.hi + 1)]


@dataclass
class InstanceTable:
    """A spec's selectors resolved to instances, once. On an invalid spec
    a dangling selector names nothing and the first statement naming a UE
    sets its eNB and its generator."""

    diagnostics: list[ParseDiagnostic]
    ues: list[str]                             # declaration order
    enb_of: dict[str, str]                     # ue -> serving eNB
    generator_of: dict[str, GeneratorConfig]   # ue -> its generator's config
    links: list[tuple[str, str, SimTime]]      # build order, defaults included
    sgw: Optional[str]
    pdn: Optional[str]


def instance_table(spec: NetworkSpec) -> InstanceTable:
    """Check the topology rules and resolve every selector, in one pass:
    the diagnostics are validate()'s; the rest is what build() wires and
    what the chain-walk oracle walks."""
    diags: list[ParseDiagnostic] = []

    def err(line: int, col: int, msg: str) -> None:
        diags.append(ParseDiagnostic(line, col, msg))

    decls: dict[str, NodeDecl] = {}  # the first declaration of each name
    for decl in spec.node_decls:
        if decl.name in decls:
            err(decl.line, decl.col, f"duplicate node name {decl.name!r}")
        else:
            decls[decl.name] = decl
        if decl.count is not None and decl.count < 1:
            err(decl.line, decl.col, f"node vector {decl.name!r} must have size >= 1")
    resolved: dict[tuple, Optional[list[str]]] = {}

    def resolve(sel: Selector, kind: NodeType) -> Optional[list[str]]:
        decl = decls.get(sel.name)
        if decl is None or decl.kind is not kind:
            return None
        key = (sel.name, sel.lo, sel.hi)  # a bare name and name[*] agree
        if key not in resolved:
            resolved[key] = _resolve(sel, decl)
        return resolved[key]

    per_kind: dict[NodeType, int] = {kind: 0 for kind in NodeType}
    kind_decls: dict[NodeType, list[NodeDecl]] = {kind: [] for kind in NodeType}
    for decl in decls.values():
        per_kind[decl.kind] += max(decl.count if decl.count is not None else 1, 0)
        kind_decls[decl.kind].append(decl)
    for kind in (NodeType.SGW_MME, NodeType.PDN_GW):
        if per_kind[kind] != 1:
            # point at the surplus declaration when there is one
            where = kind_decls[kind][1:2] or kind_decls[kind][:1]
            line, col = (where[0].line, where[0].col) if where else (1, 1)
            err(line, col,
                f"network needs exactly one {kind.value}, found {per_kind[kind]}")
    for kind in (NodeType.UE, NodeType.ENB):
        if per_kind[kind] < 1:
            err(1, 1, f"network needs at least one {kind.value}")

    attached: dict[str, int] = {}
    enb_of: dict[str, str] = {}
    for att in spec.attachments:
        ues = resolve(att.ue, NodeType.UE)
        if ues is None:
            err(att.line, att.col, f"attach: dangling ue selector {att.ue}")
        enbs = resolve(att.enb, NodeType.ENB)
        if enbs is None:
            err(att.line, att.col, f"attach: dangling enb selector {att.enb}")
        elif len(enbs) != 1:
            err(att.line, att.col,
                f"attach: {att.enb} names {len(enbs)} enbs, need exactly one")
        for inst in ues or ():
            attached[inst] = attached.get(inst, 0) + 1
            if enbs is not None and len(enbs) == 1:
                enb_of.setdefault(inst, enbs[0])
    ue_list: list[str] = []
    for decl in kind_decls[NodeType.UE]:
        for inst in decl.instances():
            ue_list.append(inst)
            n = attached.get(inst, 0)
            if n == 0:
                err(decl.line, decl.col, f"unattached ue {inst!r}")
            elif n > 1:
                err(decl.line, decl.col, f"ue {inst!r} attached more than once")

    links: list[tuple[str, str, SimTime]] = []
    seen_links: set[tuple[str, str]] = set()
    for link in spec.links:
        src_decl = decls.get(link.src.name)
        dst_decl = decls.get(link.dst.name)
        if src_decl is None or dst_decl is None:
            err(link.line, link.col,
                f"link: unknown node in {link.src} -> {link.dst}")
            continue
        pair = (src_decl.kind, dst_decl.kind)
        if pair not in ((NodeType.ENB, NodeType.SGW_MME),
                        (NodeType.SGW_MME, NodeType.PDN_GW)):
            err(link.line, link.col,
                "link: only enb -> sgw_mme and sgw_mme -> pdn_gw links exist")
            continue
        srcs = resolve(link.src, src_decl.kind)
        dsts = resolve(link.dst, dst_decl.kind)
        if srcs is None or dsts is None:
            err(link.line, link.col, f"link: dangling selector in {link.src} -> {link.dst}")
            continue
        if len(dsts) != 1:
            err(link.line, link.col, f"link: {link.dst} must name exactly one node")
            continue
        delay = link.delay if link.delay is not None else SimTime(0)
        for s in srcs:
            key = (s, dsts[0])
            if key in seen_links:
                err(link.line, link.col, f"duplicate link {s} -> {dsts[0]}")
            seen_links.add(key)
            links.append((s, dsts[0], delay))
    # default backhaul: every unlinked eNB to the S-GW/MME, and the
    # S-GW/MME to the PDN-GW unless declared, all with zero delay
    sgw, pdn = (next((inst for decl in kind_decls[kind] for inst in decl.instances()), None)
                for kind in (NodeType.SGW_MME, NodeType.PDN_GW))
    if sgw is not None:
        linked_src = {src for src, _, _ in links}
        for decl in kind_decls[NodeType.ENB]:
            for inst in decl.instances():
                if inst not in linked_src:
                    links.append((inst, sgw, SimTime(0)))
        if pdn is not None and sgw not in linked_src:
            links.append((sgw, pdn, SimTime(0)))

    generator_of: dict[str, GeneratorConfig] = {}
    for gen in spec.generators:
        ues = resolve(gen.target, NodeType.UE)
        if ues is None:
            err(gen.line, gen.col, f"generator: no such ue {gen.target}")
            continue
        for inst in ues:
            if inst in generator_of:
                err(gen.line, gen.col, f"duplicate generator on ue {inst!r}")
            else:
                generator_of[inst] = gen.config

    if spec.until is None:
        err(1, 1, "missing 'run until' statement")
    elif spec.until.ns <= 0:
        err(1, 1, "'run until' must be positive")
    if spec.seed is not None and spec.seed < 0:
        err(1, 1, "'seed' must be non-negative")

    min_chain = {NodeType.UE: 2, NodeType.ENB: 2}  # air hop needs top + PHY
    for kind, chain in spec.chain_overrides.items():
        if len(chain) < min_chain.get(kind, 1):
            err(1, 1, f"chain override for {kind.value} needs at least "
                      f"{min_chain.get(kind, 1)} layers")
        names = [layer.module_name for layer in chain]
        if len(set(names)) != len(names):
            err(1, 1, f"chain override for {kind.value} repeats a module name")
        reserved = {"generator", "lte_radio"}.intersection(names)
        if reserved:
            err(1, 1, f"chain override for {kind.value} uses reserved module "
                      f"names: {sorted(reserved)}")

    return InstanceTable(diags, ue_list, enb_of, generator_of, links, sgw, pdn)


def validate(spec: NetworkSpec) -> list[ParseDiagnostic]:
    """Topology rules; returns one located diagnostic per violation."""
    return instance_table(spec).diagnostics


# --------------------------------------------------------------------------
# building

@dataclass
class BuiltNetwork:
    root: CompoundModule
    nodes: dict[str, CompoundModule]
    spec: NetworkSpec

    def simulator(self) -> Simulator:
        return Simulator(self.root)


def build(spec: NetworkSpec) -> BuiltNetwork:
    """Instantiate and wire a validated spec; deterministic and total."""
    table = instance_table(spec)
    if table.diagnostics:
        raise InvalidNetworkSpec(table.diagnostics)

    root = CompoundModule(spec.network_name, type_name=spec.network_name)
    nodes: dict[str, CompoundModule] = {}
    overrides = spec.chain_overrides
    for decl in spec.node_decls:
        is_ue = decl.kind is NodeType.UE
        for inst in decl.instances():
            generator = (Generator("generator", config=table.generator_of.get(inst))
                         if is_ue else None)
            node = build_node(decl.kind, inst, overrides.get(decl.kind), generator)
            root.add_child(node)
            nodes[inst] = node

    for ue_inst, enb_inst in table.enb_of.items():
        attach_ue(nodes[ue_inst], nodes[enb_inst])

    for src, dst, delay in table.links:
        channel = ChannelSpec(delay)
        if nodes[src].kind is NodeType.ENB:
            link_enb_to_sgw(nodes[src], nodes[dst], channel)
        else:
            link_sgw_to_pdn(nodes[src], nodes[dst], channel)

    return BuiltNetwork(root, nodes, spec)


# --------------------------------------------------------------------------
# printing

def format_spec(spec: NetworkSpec) -> str:
    """Canonical source text. Parsing it back yields a spec equal to
    `spec` except for `chain_overrides`, which the language cannot
    express: the text leaves them out."""
    lines = [f"network {spec.network_name} {{"]
    for decl in spec.node_decls:
        suffix = f"[{decl.count}]" if decl.count is not None else ""
        lines.append(f"    {decl.kind.value} {decl.name}{suffix};")
    for att in spec.attachments:
        lines.append(f"    attach {att.ue} -> {att.enb};")
    for link in spec.links:
        delay = f" delay {format_duration(link.delay)}" if link.delay is not None else ""
        lines.append(f"    link {link.src} -> {link.dst}{delay};")
    for gen in spec.generators:
        cfg = gen.config
        payload = (f"packet {cfg.payload_bytes}" if cfg.payload_kind is MessageKind.PACKET
                   else "message")
        lines.append(f"    generator on {gen.target} {{ period {format_duration(cfg.period)}; "
                     f"start {format_duration(cfg.start_time)}; payload {payload}; }}")
    if spec.until is not None:
        lines.append(f"    run until {format_duration(spec.until)};")
    if spec.seed is not None:
        lines.append(f"    seed {spec.seed};")
    lines.append("}")
    return "\n".join(lines) + "\n"
