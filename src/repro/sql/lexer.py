"""The SQL tokenizer, and the statement fingerprint built on its patterns.

:class:`Lexer` produces a flat list of :class:`Token` objects.  Keywords
are recognized case-insensitively; identifiers are lower-cased (the engine
is case-insensitive like most SQL systems).  String literals use single
quotes with ``''`` as the escape for a quote.

:func:`fingerprint` splits a statement's text into its *shape* (the text
with every NUMBER/STRING token cut out) and the values of those tokens,
without building tokens or an AST — the plan cache keys compiled plans
on the shape, the fleet router memoises routing decisions on it.  Both
scan with the same sub-patterns, so the ``n``-th fingerprint literal is
the ``n``-th literal token (``Token.slot``).
"""

import enum
import re

from repro.common.errors import ParseError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


#: Reserved words.  CURRENCY/BOUND/ON/BY and the time units implement the
#: paper's currency clause; TIMEORDERED implements §2.3 timeline sessions.
KEYWORDS = frozenset(
    """
    select from where group by having order asc desc distinct as and or not
    in between like exists is null insert into values update set delete
    create table index unique clustered primary key view materialized
    currency bound on timeordered begin end explain analyze
    region interval delay heartbeat
    int integer float real string varchar text bool boolean timestamp
    ms sec second seconds min minute minutes hour hours day days
    inner join left outer true false getdate unbounded
    limit union all
    """.split()
)

# Sub-patterns shared by the tokenizer and the fingerprint.  A number is
# digits with at most one dot (``1.``, ``.5``); a word may hold digits but
# not start with one, so a digit inside ``c_custkey2`` never starts a number.
_NUMBER = r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+"
_STRING = r"'(?:[^']|'')*'"
_WORD = r"[^\W\d]\w*"
_COMMENT = r"--[^\n]*|/\*[\s\S]*?\*/"

_BLANKS = rf"(?:\s+|{_COMMENT})*"
_BLANKS_RE = re.compile(_BLANKS)
_TOKEN_RE = re.compile(
    rf"{_BLANKS}(?:(?P<number>{_NUMBER})|(?P<string>{_STRING})|(?P<word>{_WORD})"
    r"|(?P<operator><=|>=|<>|!=|/(?!\*)|[=<>+\-*%])|(?P<punct>[(),.])|(?P<eof>\Z))"
)

# The fingerprint only needs the literals: one branch swallows runs of
# words and the separators that cannot start a literal or a comment, so
# the scan takes one step per literal rather than one per token.
_LITERAL_RE = re.compile(
    rf"(?:{_WORD}(?:[\s,()=<>!*+%]|\.(?![0-9]))*)+"
    rf"|({_NUMBER})|({_STRING})|{_COMMENT}"
)


_TYPES = {type_.value: type_ for type_ in TokenType}


def _number_value(text):
    return float(text) if "." in text else int(text)


def _string_value(text):
    return text[1:-1].replace("''", "'")


def fingerprint(sql):
    """Split ``sql`` into ``(shape, literals)``.

    ``literals`` are the values of the NUMBER and STRING tokens in order
    (what :meth:`Lexer.tokens` would produce); ``shape`` is the text with
    each of them replaced by ``?``.  Everything else — keywords, names,
    spacing, comments — stays in the shape verbatim, so two texts with the
    same shape differ in their literals only.
    """
    pieces = []
    literals = []
    pos = 0
    for match in _LITERAL_RE.finditer(sql):
        group = match.lastindex
        if group is None:
            continue
        start, end = match.span()
        text = sql[start:end]
        literals.append(_number_value(text) if group == 1 else _string_value(text))
        pieces.append(sql[pos:start])
        pos = end
    pieces.append(sql[pos:])
    return "?".join(pieces), literals


class Token:
    __slots__ = ("type", "value", "pos", "slot")

    def __init__(self, type_, value, pos, slot=None):
        self.type = type_
        self.value = value
        self.pos = pos
        #: For NUMBER and STRING tokens: the token's index among the
        #: statement's literals, i.e. its position in ``fingerprint(sql)[1]``.
        self.slot = slot

    def is_keyword(self, *words):
        return self.type is TokenType.KEYWORD and self.value in words

    def __repr__(self):
        return f"Token({self.type.value}, {self.value!r})"


class Lexer:
    """Tokenizes SQL text."""

    def __init__(self, text):
        self.text = text

    def tokens(self):
        """Return the full token list, terminated by an EOF token."""
        text = self.text
        out = []
        n_literals = 0
        pos = 0
        while True:
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                self._fail(pos)
            kind = match.lastgroup  # a _TOKEN_RE group, named like its TokenType
            start = match.start(kind)
            pos = match.end()
            value = match.group(kind)
            if kind == "word":
                value = value.lower()
                type_ = TokenType.KEYWORD if value in KEYWORDS else TokenType.IDENT
                out.append(Token(type_, value, start))
            elif kind == "number" or kind == "string":
                value = _number_value(value) if kind == "number" else _string_value(value)
                out.append(Token(_TYPES[kind], value, start, n_literals))
                n_literals += 1
            else:
                out.append(Token(_TYPES[kind], value, start))
                if kind == "eof":
                    return out

    def _fail(self, pos):
        """Name what stopped the scan at (or after the blanks at) ``pos``."""
        text = self.text
        pos = _BLANKS_RE.match(text, pos).end()
        if text.startswith("/*", pos):
            raise ParseError("unterminated block comment", pos)
        if text[pos] == "'":
            raise ParseError("unterminated string literal", pos)
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
