"""The character-loop lexer that netconfig's regex scanner replaced, kept
verbatim as the reference the scanner is tested against: the same
tokens as (kind, text, line, col) and the same diagnostics, on any text.
"""

from dataclasses import dataclass

from lteadv_sim.netconfig import ParseDiagnostic


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "name" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


_SYMBOLS = {"{", "}", "[", "]", ";", "*"}
# ASCII only: str.isdigit() also accepts "²", which int() rejects
_DIGITS = "0123456789"


def _lex(source: str, diags: list[ParseDiagnostic]) -> list[_Token]:
    toks: list[_Token] = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            toks.append(_Token("int", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(_Token("name", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Token("sym", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == "-" and i + 1 < n and source[i + 1] == ">":
            toks.append(_Token("sym", "->", line, start_col))
            i += 2
            col += 2
            continue
        if ch == "." and i + 1 < n and source[i + 1] == ".":
            toks.append(_Token("sym", "..", line, start_col))
            i += 2
            col += 2
            continue
        diags.append(ParseDiagnostic(line, start_col, f"unexpected character {ch!r}"))
        i += 1
        col += 1
    toks.append(_Token("eof", "", line, col))
    return toks


def reference_lex(source: str) -> tuple[list[tuple], list[ParseDiagnostic]]:
    diags: list[ParseDiagnostic] = []
    toks = _lex(source, diags)
    return [(t.kind, t.text, t.line, t.col) for t in toks], diags
