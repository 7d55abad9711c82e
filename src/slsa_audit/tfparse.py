"""Block-level Terraform (HCL) parser.

Covers what the misconfiguration rules need: resource/variable blocks,
attribute assignments with strings, numbers, booleans, lists, and maps,
and nested blocks. Expressions are not evaluated; references, function
calls, and interpolated strings surface as :class:`Undetermined` so rules
can treat them as unknown instead of guessing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from slsa_audit.model import AuditError


class TerraformParseError(AuditError, ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Undetermined:
    """A value the static parser cannot resolve (reference, call, template)."""

    raw: str


@dataclass
class TfBlock:
    kind: str
    labels: tuple[str, ...]
    body: dict
    line_start: int
    line_end: int


_PUNCT = "{}[],=:()"
_CLOSERS = {"(": ")", "[": "]"}  # brackets a reference or call may carry


_BLANKS = re.compile(r"[ \t\r]*")
# A string with no escape, interpolation or newline: its text is its value.
_PLAIN_STRING = re.compile(r'"([^"\\$\n]*)"')
# \w is what str.isalnum() accepts, plus "_".
_IDENT_TAIL = re.compile(r"[\w.-]*")


@dataclass
class _Token:
    kind: str  # ident, string, number, punct, heredoc
    value: object
    line: int
    interpolated: bool = False


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        char = text[i]
        if char == "\n":
            line += 1
            i += 1
            continue
        if char in " \t\r":
            i = _BLANKS.match(text, i + 1).end()
            continue
        if char == "#" or char == "/" and text.startswith("//", i):
            i = text.find("\n", i)
            if i == -1:
                i = n
            continue
        if char == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise TerraformParseError("unterminated block comment", line)
            line += text.count("\n", i, end)
            i = end + 2
            continue
        if char == "<" and text.startswith("<<", i):
            # Heredoc: <<EOF or <<-EOF up to a line holding the marker.
            j = i + 2
            if j < n and text[j] == "-":
                j += 1
            marker_start = j
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            marker = text[marker_start:j]
            if not marker:
                raise TerraformParseError("malformed heredoc", line)
            body_start = text.find("\n", j) + 1
            if body_start == 0:
                raise TerraformParseError("unterminated heredoc", line)
            pos = body_start
            content_lines = []
            while True:
                line_end = text.find("\n", pos)
                if line_end == -1:
                    raise TerraformParseError("unterminated heredoc", line)
                candidate = text[pos:line_end]
                if candidate.strip() == marker:
                    break
                content_lines.append(candidate)
                pos = line_end + 1
            content = "\n".join(content_lines)
            tokens.append(_Token("string", content, line, interpolated="${" in content))
            line += text.count("\n", i, line_end)
            i = line_end + 1
            continue
        if char == '"':
            plain = _PLAIN_STRING.match(text, i)
            if plain:
                tokens.append(_Token("string", plain[1], line))
                i = plain.end()
                continue
            j = i + 1
            out = []
            interpolated = False
            depth = 0
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n:
                    escape = text[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(escape, escape))
                    j += 2
                    continue
                if text.startswith("${", j):
                    interpolated = True
                    depth += 1
                    out.append("${")
                    j += 2
                    continue
                if depth and c == "}":
                    depth -= 1
                    out.append(c)
                    j += 1
                    continue
                if c == '"' and depth == 0:
                    break
                if c == "\n":
                    raise TerraformParseError("unterminated string", line)
                out.append(c)
                j += 1
            if j >= n:
                raise TerraformParseError("unterminated string", line)
            tokens.append(_Token("string", "".join(out), line, interpolated=interpolated))
            i = j + 1
            continue
        if char in _PUNCT:
            tokens.append(_Token("punct", char, line))
            i += 1
            continue
        if char.isdigit() or (char == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE+-"):
                if text[j] in "+-" and text[j - 1] not in "eE":
                    break
                j += 1
            literal = text[i:j]
            try:
                value: object = int(literal)
            except ValueError:
                try:
                    value = float(literal)
                except ValueError:
                    raise TerraformParseError(f"malformed number {literal!r}", line) from None
            tokens.append(_Token("number", value, line))
            i = j
            continue
        if char.isalpha() or char == "_":
            j = _IDENT_TAIL.match(text, i + 1).end()
            tokens.append(_Token("ident", text[i:j], line))
            i = j
            continue
        raise TerraformParseError(f"unexpected character {char!r}", line)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            last_line = self.tokens[-1].line if self.tokens else 1
            raise TerraformParseError("unexpected end of input", last_line)
        self.pos += 1
        return token

    def expect_punct(self, char: str) -> _Token:
        token = self.next()
        if token.kind != "punct" or token.value != char:
            raise TerraformParseError(f"expected {char!r}, found {token.value!r}", token.line)
        return token

    def parse_file(self) -> list[TfBlock]:
        blocks: list[TfBlock] = []
        while self.peek() is not None:
            blocks.append(self.parse_block())
        return blocks

    def parse_block(self) -> TfBlock:
        head = self.next()
        if head.kind != "ident":
            raise TerraformParseError(f"expected block type, found {head.value!r}", head.line)
        labels: list[str] = []
        while True:
            token = self.peek()
            if token is None:
                raise TerraformParseError("unexpected end of block header", head.line)
            if token.kind in ("string", "ident"):
                labels.append(str(token.value))
                self.next()
                continue
            break
        self.expect_punct("{")
        body, end_line = self.parse_body()
        return TfBlock(
            kind=head.value,
            labels=tuple(labels),
            body=body,
            line_start=head.line,
            line_end=end_line,
        )

    def parse_body(self) -> tuple[dict, int]:
        body: dict = {}
        while True:
            token = self.peek()
            if token is None:
                raise TerraformParseError("unterminated block", self.tokens[-1].line)
            if token.kind == "punct" and token.value == "}":
                self.next()
                return body, token.line
            if token.kind != "ident":
                raise TerraformParseError(f"expected attribute or block, found {token.value!r}", token.line)
            name = token.value
            self.next()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "punct" and nxt.value == "=":
                self.next()
                value = self.parse_expr()
                body[name] = value
            else:
                # Nested block, possibly labelled; repeats accumulate.
                while nxt is not None and nxt.kind in ("string", "ident"):
                    self.next()
                    nxt = self.peek()
                self.expect_punct("{")
                nested, _ = self.parse_body()
                existing = body.get(name)
                if existing is None:
                    body[name] = nested
                elif isinstance(existing, list):
                    existing.append(nested)
                else:
                    body[name] = [existing, nested]

    def parse_expr(self) -> object:
        token = self.next()
        if token.kind == "string":
            if token.interpolated:
                return Undetermined(raw=str(token.value))
            return token.value
        if token.kind == "number":
            return token.value
        if token.kind == "ident":
            if token.value == "true":
                return True
            if token.value == "false":
                return False
            if token.value == "null":
                return None
            return self.parse_reference(token)
        if token.kind == "punct" and token.value == "[":
            items = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise TerraformParseError("unterminated list", token.line)
                if nxt.kind == "punct" and nxt.value == "]":
                    self.next()
                    return items
                items.append(self.parse_expr())
                nxt = self.peek()
                if nxt is not None and nxt.kind == "punct" and nxt.value == ",":
                    self.next()
        if token.kind == "punct" and token.value == "{":
            mapping: dict = {}
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise TerraformParseError("unterminated map", token.line)
                if nxt.kind == "punct" and nxt.value == "}":
                    self.next()
                    return mapping
                key_token = self.next()
                if key_token.kind not in ("ident", "string"):
                    raise TerraformParseError(
                        f"expected map key, found {key_token.value!r}", key_token.line
                    )
                sep = self.next()
                if sep.kind != "punct" or sep.value not in ("=", ":"):
                    raise TerraformParseError(f"expected = or :, found {sep.value!r}", sep.line)
                mapping[str(key_token.value)] = self.parse_expr()
                nxt = self.peek()
                if nxt is not None and nxt.kind == "punct" and nxt.value == ",":
                    self.next()
        raise TerraformParseError(f"unexpected token {token.value!r}", token.line)

    def parse_reference(self, head: _Token) -> Undetermined:
        """Swallow a reference or call expression without evaluating it."""
        parts = [str(head.value)]
        while (token := self.peek()) is not None and token.kind == "punct" and token.value in _CLOSERS:
            opener, closer = token.value, _CLOSERS[token.value]
            depth = 0
            while True:
                inner = self.next()
                parts.append(str(inner.value))
                if inner.kind == "punct" and inner.value == opener:
                    depth += 1
                elif inner.kind == "punct" and inner.value == closer:
                    depth -= 1
                    if depth == 0:
                        break
        return Undetermined(raw=" ".join(parts))


def parse_terraform(text: str) -> list[TfBlock]:
    """Parse Terraform source into top-level blocks."""
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse_file()
    except RecursionError:
        token = parser.tokens[min(parser.pos, len(parser.tokens) - 1)]
        raise TerraformParseError("nesting too deep to parse", token.line) from None
