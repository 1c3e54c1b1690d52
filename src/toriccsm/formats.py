"""Text formats: the fan file and the polynomial rendering of classes.

Fan files are plain line-oriented text.  ``#`` starts a comment, blank
lines are ignored, and the sections are::

    name: optional-label
    dim: 2
    rays:
      1 0
      0 1
      -1 5
      0 -1
    max_cones:
      0 1
      1 2
      2 3
      3 0

Each header appears at most once, and ray indices are 0-based everywhere.
Parsing reports the offending line; fan validation errors are surfaced
verbatim.
"""

from __future__ import annotations

import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

from .chow import GradedClass, Monomial, monomial_degree
from .errors import ValidationError, int_text
from .fan import Fan, build_fan

__all__ = [
    "parse_fan_file",
    "parse_fan_text",
    "render_fan",
    "render_class",
    "parse_class",
    "monomial_sort_key",
]

_SECTION = re.compile(r"^(name|dim|rays|max_cones)\s*:\s*(.*)$")
_INT = re.compile(r"[+-]?[0-9]+")


def parse_fan_text(text: str, source: str = "<string>") -> tuple[Fan, str | None]:
    """Parse a fan document; returns the fan and its optional name."""
    name: str | None = None
    dim: int | None = None
    rays: list[list[int]] = []
    ray_lines: list[int] = []
    cones: list[list[int]] = []
    cone_lines: list[int] = []
    section: str | None = None
    seen: set[str] = set()

    def fail(lineno: int, msg: str) -> None:
        raise ValidationError(f"{source}, line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # a section header starts with a letter, a data line never does
        m = _SECTION.match(line) if line[0].isalpha() else None
        if m:
            key, rest = m.group(1), m.group(2).strip()
            if key in seen:
                fail(lineno, f"field '{key}' given twice")
            seen.add(key)
            if key == "name":
                name = rest or None
            elif key == "dim":
                try:
                    if not _INT.fullmatch(rest):
                        raise ValueError(rest)
                    dim = int(rest)  # past the digit limit this fails too
                except ValueError:
                    fail(lineno, f"field 'dim' needs an integer, got {rest!r}")
            else:
                if rest:
                    fail(lineno, f"field '{key}' takes no inline value")
                section = key
            continue
        tokens = line.split()
        try:
            try:
                # int reads a token of ASCII text without "_" as [+-]?[0-9]+
                # or not at all
                values = list(map(int if line.isascii() and "_" not in line else _int_of, tokens))
            except ValueError:  # perhaps an integer past the digit limit
                values = list(map(_int_of, tokens))
        except ValueError:
            fail(lineno, f"expected whitespace-separated integers, got {line!r}")
        if section == "rays":
            rays.append(values)
            ray_lines.append(lineno)
        elif section == "max_cones":
            cones.append(values)
            cone_lines.append(lineno)
        else:
            fail(lineno, "data line outside a 'rays:' or 'max_cones:' section")

    if dim is None:
        raise ValidationError(f"{source}: missing 'dim' field")
    if not rays:
        raise ValidationError(f"{source}: missing or empty 'rays' section")
    if not cones:
        raise ValidationError(f"{source}: missing or empty 'max_cones' section")
    for i, (ray, lineno) in enumerate(zip(rays, ray_lines)):
        # a dim below 1 is left to build_fan, which rejects it
        if len(ray) != dim and dim >= 1:
            fail(lineno, f"ray {i} has {len(ray)} coordinates, expected {dim}")
    for k, (cone, lineno) in enumerate(zip(cones, cone_lines)):
        if len(set(cone)) != len(cone) and dim >= 1:
            (j, _), = Counter(cone).most_common(1)
            fail(lineno, f"cone {k} repeats ray {int_text(j)}")
    return build_fan(dim, rays, cones), name


def parse_fan_file(path: str) -> tuple[Fan, str | None]:
    """Read and parse a fan file; returns the validated fan and its name.
    A UTF-8 byte-order mark at the start of the file is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_fan_text(text, source=path)


def render_fan(fan: Fan, name: str | None = None) -> str:
    """Serialize a fan in the file format; round-trips through the parser."""
    lines = []
    if name:
        lines.append(f"name: {name}")
    lines.append(f"dim: {fan.ambient_dim}")
    lines.append("rays:")
    lines.extend("  " + " ".join(map(int_text, r)) for r in fan.rays)
    lines.append("max_cones:")
    lines.extend("  " + " ".join(str(i) for i in c.ray_indices) for c in fan.max_cones)
    return "\n".join(lines) + "\n"


def monomial_sort_key(mono: Monomial):
    """Rendering order: ascending degree, then the fixed monomial order
    (smaller ray index more significant, higher exponent first)."""
    return (monomial_degree(mono), tuple((ray, -e) for ray, e in mono))


def _int_of(token: str) -> int:
    """The integer ``token`` writes as ASCII ``[+-]?[0-9]+`` between
    optional whitespace, also past the interpreter's digit limit.  Any
    other text raises ``ValueError``, with ``int``'s message where ``int``
    rejects it too: ``int`` alone reads ``1_0`` as 10 and the
    Arabic-Indic digit one as 1, and ``Decimal`` reads ``1.5``."""
    if _INT.fullmatch(token.strip()):
        try:
            return int(token)
        except ValueError:  # past the digit limit
            return int(Decimal(token))
    int(token)  # raises int's own message for text it rejects
    raise ValueError(f"invalid literal for int() with base 10: {token!r}")


def render_class(c: GradedClass) -> str:
    """Render a class as a polynomial string, e.g. ``1 + 2*x1 + 4*x1*x2``.
    Coefficients may be ``Fraction`` or ``int``; a zero coefficient takes
    a minus sign, as a negative one does."""
    if not c:
        return "0"
    parts: list[str] = []
    for mono in sorted(c, key=monomial_sort_key):
        q = c[mono]
        num, den = q.numerator, q.denominator
        if num <= 0:
            sign, num = "-", -num
        else:
            sign = "+"
        if den != 1:
            coeff = f"{int_text(num)}/{int_text(den)}"
        elif num != 1 or not mono:
            coeff = int_text(num)
        else:
            coeff = ""
        if mono:
            vars_part = "*".join([f"x{ray}" if e == 1 else f"x{ray}^{e}" for ray, e in mono])
            body = f"{coeff}*{vars_part}" if coeff else vars_part
        else:
            body = coeff
        parts.append(f"{sign} {body}")
    first = parts[0]
    parts[0] = first[2:] if first[0] == "+" else f"-{first[2:]}"
    return " ".join(parts)


_TERM = re.compile(r"[+-]?[^+-]+")
_VAR = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")
_NUM = re.compile(r"[0-9]+(?:/[0-9]+)?")


def parse_class(s: str) -> GradedClass:
    """Parse a polynomial string back into a class (inverse of
    ``render_class``)."""
    s = s.replace(" ", "")
    if not s:
        raise ValidationError("empty polynomial string")
    if s == "0":
        return {}
    out: GradedClass = {}
    consumed = 0
    for tok in _TERM.findall(s):
        consumed += len(tok)
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("+-")
        if not tok:
            raise ValidationError(f"dangling sign in polynomial string {s!r}")
        coeff = Fraction(sign)
        exps: dict[int, int] = {}
        for factor in tok.split("*"):
            if _NUM.fullmatch(factor):
                num, _, den = factor.partition("/")
                try:
                    coeff *= Fraction(_int_of(num), _int_of(den or "1"))
                except ZeroDivisionError:
                    raise ValidationError(f"zero denominator in term factor {factor!r}") from None
                continue
            vm = _VAR.fullmatch(factor)
            if not vm:
                raise ValidationError(f"cannot parse term factor {factor!r}")
            ray, e = _int_of(vm.group(1)), _int_of(vm.group(2) or "1")
            if e:  # x^0 is 1: a monomial holds only positive exponents
                exps[ray] = exps.get(ray, 0) + e
        mono = tuple(sorted((ray, e) for ray, e in exps.items()))
        total = out.get(mono, Fraction(0)) + coeff
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    if consumed != len(s):
        raise ValidationError(f"cannot parse polynomial string {s!r}")
    return out
