"""Juniper (Junos) dialect: lexer, parser, generator, and the reference
Cisco→Juniper translator used as the translation ground truth."""

from .generator import generate_juniper
from .lexer import LexError, Statement, lex_juniper
from .parser import parse_juniper
from .translate import TranslationNotes, translate_cisco_to_juniper

__all__ = [
    "LexError",
    "Statement",
    "TranslationNotes",
    "generate_juniper",
    "lex_juniper",
    "parse_juniper",
    "translate_cisco_to_juniper",
]
