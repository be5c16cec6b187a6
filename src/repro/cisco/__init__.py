"""Cisco IOS dialect: parser and generator over the shared IR."""

from .generator import generate_cisco
from .lexer import ConfigLine, tokenize
from .parser import parse_cisco

__all__ = [
    "ConfigLine",
    "generate_cisco",
    "parse_cisco",
    "tokenize",
]
