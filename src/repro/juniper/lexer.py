"""Junos hierarchical syntax lexer.

Junos configurations are curly-brace trees: a statement is a sequence of
words either terminated by ``;`` (a leaf) or followed by ``{ ... }``
(a block).  The lexer produces a :class:`Statement` tree annotated with
line numbers so parse warnings can point at the offending source line —
the raw material for Table 1's syntax-error prompts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["LexError", "Statement", "lex_juniper"]


class LexError(ValueError):
    """Raised only for catastrophically malformed input (unbalanced braces)."""


@dataclass
class Statement:
    """One node of the Junos config tree."""

    words: Tuple[str, ...]
    line: int
    children: List["Statement"] = field(default_factory=list)

    @property
    def keyword(self) -> str:
        return self.words[0] if self.words else ""

    def text(self) -> str:
        return " ".join(self.words)

    def find(self, *words: str) -> Optional["Statement"]:
        """First child whose leading words match."""
        for child in self.children:
            if child.words[: len(words)] == words:
                return child
        return None

    def find_all(self, *words: str) -> List["Statement"]:
        return [
            child
            for child in self.children
            if child.words[: len(words)] == words
        ]


@dataclass
class _Token:
    value: str
    line: int


def _scan(text: str) -> List[_Token]:
    """Split into word / ``{`` / ``}`` / ``;`` tokens with line numbers."""
    tokens: List[_Token] = []
    line = 1
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char == "\n":
            line += 1
            index += 1
            continue
        if char.isspace():
            index += 1
            continue
        if char == "#":
            while index < length and text[index] != "\n":
                index += 1
            continue
        if text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end == -1:
                end = length
            line += text.count("\n", index, end)
            index = end + 2
            continue
        if char in "{};":
            tokens.append(_Token(char, line))
            index += 1
            continue
        if char == '"':
            end = text.find('"', index + 1)
            if end == -1:
                end = length
            tokens.append(_Token(text[index + 1 : end], line))
            index = end + 1
            continue
        start = index
        while index < length and not text[index].isspace() and text[index] not in "{};#":
            index += 1
        tokens.append(_Token(text[start:index], line))
    return tokens


def lex_juniper(text: str) -> List[Statement]:
    """Lex config text into a list of top-level statements.

    Missing semicolons before ``}`` are tolerated (treated as leaves) so
    that slightly malformed LLM output still produces a tree the parser
    can diagnose rather than an opaque failure.
    """
    tokens = _scan(text)
    statements, index = _parse_level(tokens, 0, depth=0)
    if index != len(tokens):
        raise LexError(f"unbalanced braces near line {tokens[index].line}")
    return statements


def _parse_level(
    tokens: List[_Token], index: int, depth: int
) -> Tuple[List[Statement], int]:
    statements: List[Statement] = []
    words: List[str] = []
    word_line = 0
    while index < len(tokens):
        token = tokens[index]
        if token.value == ";":
            if words:
                statements.append(Statement(tuple(words), word_line))
                words = []
            index += 1
            continue
        if token.value == "{":
            children, index = _parse_level(tokens, index + 1, depth + 1)
            header_words = tuple(words) if words else ("<anonymous>",)
            statements.append(
                Statement(header_words, word_line or token.line, children)
            )
            words = []
            continue
        if token.value == "}":
            if depth == 0:
                raise LexError(f"unexpected '}}' at line {token.line}")
            if words:
                # Tolerate a missing trailing semicolon.
                statements.append(Statement(tuple(words), word_line))
            return statements, index + 1
        if not words:
            word_line = token.line
        words.append(token.value)
        index += 1
    if depth != 0:
        raise LexError("unexpected end of input inside a block")
    if words:
        statements.append(Statement(tuple(words), word_line))
    return statements, index
