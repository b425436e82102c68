"""A pure-Python structural-Verilog-subset parser and simulator.

The in-process verification harness (:mod:`repro.evaluation.verification`)
is three-way differential: the model against the testbench golden, and
the module text against the model and against the golden.  Its other
oracles share Python semantics, so only here is the emitted module text
*parsed and executed as Verilog*, without any external tool: this module
implements exactly the Verilog-2001 subset that
:func:`repro.rtl.verilog.generate_mlp_verilog` emits —

* ``module``/``endmodule`` with ANSI port declarations,
* ``wire [signed] [msb:lsb] name [= expr];`` and ``assign name = expr;``,
* ``localparam [integer|[msb:lsb]] name = const;``,
* ``reg``/``integer`` declarations,
* one-pass combinational ``always @*`` blocks with blocking assignments
  and ``if``/``else`` chains (the behavioural argmax),
* expressions over ``+ - & | ^ << >> >>> < <= > >= == != ?: ~ !``,
  sized/unsized literals, bit/part-selects and concatenations —

with the *bit-true width and signedness rules of the language*, not of
Python: context-determined operand sizing, signed-iff-all-operands-signed
propagation, two's-complement truncation on assignment, arithmetic
versus logical right shift, and unsigned self-determined part-selects.
That independence is the point: a generator bug that slips through the
Python oracles (a mis-sized wire, a dropped ``signed``, an illegal
expression part-select) changes the *Verilog* meaning of the text and is
caught here, the same way iverilog would catch it in a real EDA flow.

A module text is handled in four stages, each once:

1. **scan** — one :data:`_TOKEN_RE` ``findall`` pass; each match folds
   in the whitespace and comments before its token, each distinct token
   text is classified once, and a character no token starts with is
   rejected, never skipped;
2. **parse** — recursive descent for module items and statements,
   precedence climbing over :data:`_PRECEDENCE` for expressions;
3. **resolve** — the drivers are ordered topologically and every
   expression node's context width and signedness is fixed once,
   compiling it into a closure over the net values;
4. **evaluate** — the closures run over the whole stimulus batch: every
   net is an ``(n_vectors,)`` int64 array of bit patterns (literals and
   localparams are broadcast scalars), and ``if`` statements merge lanes
   with boolean masks.

Declared widths are capped at :data:`MAX_WIDTH` bits so int64 bit
patterns stay exact.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "MAX_WIDTH",
    "MicroVerilogError",
    "MicroVerilogModule",
    "Port",
    "parse_module",
    "simulate_mlp_module",
]

#: Largest declared (or context) bit width the simulator accepts; keeps
#: every bit pattern exactly representable in a non-negative int64.
MAX_WIDTH = 62

#: Name of one neuron's accumulator net in a generated MLP module.
_ACCUMULATOR_NET_RE = re.compile(r"acc_l(\d+)_n(\d+)")


class MicroVerilogError(ValueError):
    """The text is outside the supported subset, malformed, or uses a
    width/feature the simulator cannot evaluate exactly."""


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

#: One token, in its one group, and the whitespace and comments before
#: it.  The comment patterns match any text in one way only, and ``\S``
#: (a character no token starts with) and ``\Z`` (the end, captured as
#: ``""``) always match where the skip stops, so ``findall`` never skips
#: text and never backtracks super-linearly.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:(?://[^\n]*(?:\n|\Z)|/\*(?:[^*]|\*(?!/))*\*/)\s*)*
    (
      <<<|>>>|<<|>>|<=|>=|==|!=|&&|\|\||[-+*&|^~!<>?:=;,().\[\]{}@#]
    | [A-Za-z_][A-Za-z0-9_$]*
    | \d*\s*'[sS]?[bodhBODH][0-9a-fA-F_xzXZ?]+
    | \d[\d_]*
    | \S
    | \Z
    )
    """,
    re.VERBOSE,
)

_OPERATORS = frozenset(
    "<<< >>> << >> <= >= == != && || - + * & | ^ ~ ! < > ? : = ; , ( ) . [ ] { } @ #".split()
)
_IDENT_START = frozenset(string.ascii_letters + "_")
_FOUR_STATE_RE = re.compile(r"[xzXZ?]")
_BASES = {"b": 2, "o": 8, "d": 10, "h": 16}


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op"
    text: str
    #: For "num": (value, width, signed, sized)
    number: Optional[Tuple[int, int, bool, bool]] = None


def _based_number(literal: str) -> Tuple[int, int, bool, bool]:
    size, _, rest = literal.partition("'")
    signed = rest[0] in "sS"
    digits = rest[signed + 1 :].replace("_", "")
    if _FOUR_STATE_RE.search(digits):
        raise MicroVerilogError(f"4-state value {literal!r} is unsupported")
    base = _BASES[rest[signed].lower()]
    try:
        value = int(digits, base)
    except ValueError:
        raise MicroVerilogError(f"literal {literal!r} has digits outside base {base}") from None
    # ``int`` ignores the blanks a sized literal may have before its ``'``.
    width = int(size) if size else 32
    if width <= 0:
        raise MicroVerilogError(f"zero-width literal {literal!r}")
    if value >> width:
        raise MicroVerilogError(f"literal {literal!r} does not fit in {width} bits")
    return value, width, signed, True


def _classify(literal: str, text: str) -> _Token:
    if literal in _OPERATORS:
        return _Token("op", literal)
    if literal[0] in _IDENT_START:
        return _Token("ident", literal)
    if "'" in literal and len(literal) > 1:
        return _Token("num", literal, _based_number(literal))
    if literal[0].isdecimal():  # what ``\d`` matches
        value = int(literal.replace("_", ""))
        # Unsized decimal literals are signed and at least 32 bits wide.
        return _Token("num", literal, (value, max(32, value.bit_length() + 1), True, False))
    # A lone ``\S``: find where it first stands, for the message.
    start = next(m.start(1) for m in _TOKEN_RE.finditer(text) if m[1] == literal)
    raise MicroVerilogError(f"unrecognized Verilog at {text[start : start + 20]!r}")


def _tokenize(text: str) -> List[_Token]:
    literals = _TOKEN_RE.findall(text)
    # The scan always ends on ``\Z``: drop its ``""`` (twice after blanks).
    del literals[literals.index("") :]
    # One token per distinct literal, classified in order of first
    # appearance, so the first bad token in the text is the one reported.
    tokens = {literal: _classify(literal, text) for literal in dict.fromkeys(literals)}
    return list(map(tokens.__getitem__, literals))


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


@dataclass
class _Literal:
    __slots__ = ("value", "width", "signed")
    value: int
    width: int
    signed: bool


@dataclass
class _Ident:
    __slots__ = ("name",)
    name: str


@dataclass
class _Select:
    """Bit/part-select ``name[msb:lsb]`` (``msb == lsb`` for a bit-select)."""

    __slots__ = ("name", "msb", "lsb")
    name: str
    msb: int
    lsb: int


@dataclass
class _Concat:
    __slots__ = ("parts",)
    parts: Tuple[object, ...]


@dataclass
class _Unary:
    __slots__ = ("op", "operand")
    op: str
    operand: object


@dataclass
class _Binary:
    __slots__ = ("op", "left", "right")
    op: str
    left: object
    right: object


@dataclass
class _Ternary:
    __slots__ = ("condition", "if_true", "if_false")
    condition: object
    if_true: object
    if_false: object


_COMPARISONS = {"<", "<=", ">", ">=", "==", "!="}
_SHIFTS = {"<<", ">>", ">>>"}

#: Binary operators by descending precedence tier (Verilog-2001 order
#: restricted to the supported subset).
_PRECEDENCE: Tuple[Tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*",),
)

#: ``{operator: tier}``; a higher tier binds tighter.
_TIERS = {op: tier for tier, ops in enumerate(_PRECEDENCE) for op in ops}


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Port:
    """One ANSI module port."""

    name: str
    direction: str  # "input" | "output"
    width: int
    signed: bool


@dataclass(frozen=True)
class _Signal:
    name: str
    width: int
    signed: bool
    kind: str  # "input" | "wire" | "reg" | "localparam"


@dataclass
class _AssignNode:
    """A continuous assignment (wire initializer or ``assign``)."""

    __slots__ = ("target", "expression")
    target: str
    expression: object


@dataclass
class _IfStatement:
    __slots__ = ("condition", "then_body", "else_body")
    condition: object
    then_body: Tuple[object, ...]
    else_body: Tuple[object, ...]


@dataclass
class _BlockingAssign:
    __slots__ = ("target", "expression")
    target: str
    expression: object


@dataclass
class _AlwaysNode:
    __slots__ = ("statements", "writes")
    statements: Tuple[object, ...]
    #: Registers this block assigns (the nets it drives).
    writes: Tuple[str, ...]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: Sentinel after the last token, so hot loops index without a bounds check.
_EOF = _Token("eof", "")


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self.tokens = tokens + [_EOF]
        self.index = 0
        #: Identifiers read, and blocking-assignment targets, since the
        #: caller last reset these lists.
        self.reads: List[str] = []
        self.writes: List[str] = []

    # -- token helpers -------------------------------------------------
    def peek(self) -> Optional[_Token]:
        token = self.tokens[self.index]
        return None if token is _EOF else token

    def next(self) -> _Token:
        token = self.tokens[self.index]
        if token is _EOF:
            raise MicroVerilogError("unexpected end of module text")
        self.index += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text:
            raise MicroVerilogError(f"expected {text!r}, got {token.text!r}")
        return token

    def accept(self, text: str) -> bool:
        if self.tokens[self.index].text == text:
            self.index += 1
            return True
        return False

    def expect_ident(self) -> str:
        token = self.next()
        if token.kind != "ident":
            raise MicroVerilogError(f"expected an identifier, got {token.text!r}")
        return token.text

    # -- constant expressions ------------------------------------------
    def _const(self, expression: object, localparams: Dict[str, _Literal]) -> int:
        if isinstance(expression, _Literal):
            return expression.value
        if isinstance(expression, _Ident) and expression.name in localparams:
            return localparams[expression.name].value
        if isinstance(expression, _Unary) and expression.op == "-":
            return -self._const(expression.operand, localparams)
        if isinstance(expression, _Binary) and expression.op in ("+", "-", "*"):
            left = self._const(expression.left, localparams)
            right = self._const(expression.right, localparams)
            if expression.op == "+":
                return left + right
            if expression.op == "-":
                return left - right
            return left * right
        raise MicroVerilogError("expected a constant expression")

    # -- declarations --------------------------------------------------
    def parse_range(self, localparams: Dict[str, _Literal]) -> Optional[Tuple[int, int]]:
        """``[msb:lsb]`` if present; ``None`` for a scalar declaration."""
        if not self.accept("["):
            return None
        msb = self._const(self.parse_expression(), localparams)
        self.expect(":")
        lsb = self._const(self.parse_expression(), localparams)
        self.expect("]")
        if lsb != 0 or msb < 0:
            raise MicroVerilogError(f"unsupported range [{msb}:{lsb}] (need [N:0])")
        return msb, lsb

    # -- expressions ---------------------------------------------------
    def parse_expression(self) -> object:
        condition = self._parse_binary(0)
        if self.tokens[self.index].text != "?":
            return condition
        self.index += 1
        if_true = self.parse_expression()
        self.expect(":")
        return _Ternary(condition, if_true, self.parse_expression())

    def _parse_binary(self, min_tier: int) -> object:
        """Precedence climbing: a unary operand, then every operator of
        tier ``>= min_tier`` (left-associative within a tier)."""
        tokens = self.tokens
        left = self._parse_unary()
        while True:
            op = tokens[self.index].text
            tier = _TIERS.get(op, -1)
            if tier < min_tier:
                return left
            self.index += 1
            left = _Binary(op, left, self._parse_binary(tier + 1))

    def _parse_unary(self) -> object:
        """A primary, after any prefix unary operators."""
        token = self.next()
        if token.kind == "ident":
            self.reads.append(token.text)
            if self.tokens[self.index].text != "[":
                return _Ident(token.text)
            self.index += 1
            msb = self._const(self.parse_expression(), {})
            lsb = self._const(self.parse_expression(), {}) if self.accept(":") else msb
            self.expect("]")
            if lsb < 0 or msb < lsb:
                raise MicroVerilogError(f"unsupported select {token.text}[{msb}:{lsb}]")
            return _Select(token.text, msb, lsb)
        if token.kind == "num":
            value, width, signed, _ = token.number  # type: ignore[misc]
            return _Literal(value, width, signed)
        if token.text in ("-", "~", "!", "+"):
            operand = self._parse_unary()
            return operand if token.text == "+" else _Unary(token.text, operand)
        if token.text == "(":
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if token.text == "{":
            parts = [self.parse_expression()]
            while self.accept(","):
                parts.append(self.parse_expression())
            self.expect("}")
            return _Concat(tuple(parts))
        raise MicroVerilogError(f"unexpected token {token.text!r} in expression")

    # -- statements ----------------------------------------------------
    def parse_statement(self) -> object:
        if self.accept("begin"):
            body: List[object] = []
            while not self.accept("end"):
                body.append(self.parse_statement())
            return _IfStatement(_Literal(1, 1, False), tuple(body), ())
        if self.accept("if"):
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            then_statement = self.parse_statement()
            else_body: Tuple[object, ...] = ()
            if self.accept("else"):
                else_body = (self.parse_statement(),)
            return _IfStatement(condition, (then_statement,), else_body)
        target = self.expect_ident()
        self.writes.append(target)
        self.expect("=")
        expression = self.parse_expression()
        self.expect(";")
        return _BlockingAssign(target, expression)

    def parse_assign(self, target: str) -> Tuple[_AssignNode, List[str]]:
        """The driver ``target = expression`` and the identifiers it reads."""
        self.reads = []
        return _AssignNode(target, self.parse_expression()), self.reads

    def parse_always(self) -> Tuple[_AlwaysNode, List[str]]:
        """An always block's body and the identifiers it reads."""
        self.reads, self.writes = [], []
        statement = self.parse_statement()
        return _AlwaysNode((statement,), tuple(dict.fromkeys(self.writes))), self.reads


# ---------------------------------------------------------------------------
# Resolution: width / signedness (simplified Verilog-2001 rules), compiled once
# ---------------------------------------------------------------------------

#: Net values (bit patterns by name) -> an expression's bit patterns.
_Compiled = Callable[[Dict[str, np.ndarray]], np.ndarray]
#: One driver of the plan: runs on (net values, number of vectors).
_Step = Callable[[Dict[str, np.ndarray], int], None]

_COMPARE = {
    "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    "==": np.equal, "!=": np.not_equal,
}
_BITWISE = {"&": np.bitwise_and, "|": np.bitwise_or, "^": np.bitwise_xor}


def _mask(width: int) -> int:
    return (1 << width) - 1


def _check_width(width: int) -> int:
    if width > MAX_WIDTH:
        raise MicroVerilogError(
            f"expression width {width} exceeds the supported {MAX_WIDTH} bits"
        )
    if width <= 0:
        raise MicroVerilogError(f"non-positive expression width {width}")
    return width


def _literal_value(literal: _Literal, width: int) -> int:
    """``literal``'s bit pattern in a ``width``-bit context."""
    _check_width(width)
    if literal.value >> width:
        raise MicroVerilogError(f"literal {literal.value} does not fit in {width} bits")
    return literal.value


class _Resolver:
    """Compiles a module's drivers into closures, once, in evaluation order.

    Each expression node is visited with its context width and signedness
    fixed and becomes a closure returning non-negative int64 *bit
    patterns* below ``2**width``.  Interpretation (two's complement or
    unsigned) happens only where the language requires it — comparisons,
    arithmetic right shifts — so truncation-on-assignment and wraparound
    arithmetic come out exactly as a Verilog simulator would produce them.
    Closures bind their operands as default arguments, not cells, so a
    node costs the garbage collector two objects.  :attr:`driven` holds
    the nets that have a value at the current point of evaluation.
    """

    def __init__(self, signals: Dict[str, _Signal]) -> None:
        self.signals = signals
        self.driven = {
            name for name, signal in signals.items() if signal.kind in ("input", "localparam")
        }

    def self_type(self, expression: object) -> Tuple[int, bool]:
        """Self-determined ``(width, signed)``."""
        if isinstance(expression, _Binary):
            if expression.op in _COMPARISONS or expression.op in ("&&", "||"):
                return 1, False
            width, signed = self.self_type(expression.left)
            if expression.op in _SHIFTS:
                return width, signed
            right_width, right_signed = self.self_type(expression.right)
            return max(width, right_width), signed and right_signed
        if isinstance(expression, _Literal):
            return expression.width, expression.signed
        if isinstance(expression, _Ident):
            signal = self._signal(expression.name)
            return signal.width, signal.signed
        if isinstance(expression, _Select):
            return expression.msb - expression.lsb + 1, False
        if isinstance(expression, _Concat):
            width = 0
            for part in expression.parts:
                width += self.self_type(part)[0]
            return width, False
        if isinstance(expression, _Unary):
            return (1, False) if expression.op == "!" else self.self_type(expression.operand)
        if isinstance(expression, _Ternary):
            width, signed = self.self_type(expression.if_true)
            false_width, false_signed = self.self_type(expression.if_false)
            return max(width, false_width), signed and false_signed
        raise MicroVerilogError(f"cannot size expression {expression!r}")

    def _signal(self, name: str) -> _Signal:
        try:
            return self.signals[name]
        except KeyError:
            raise MicroVerilogError(f"reference to undeclared identifier {name!r}") from None

    def read(self, name: str) -> _Signal:
        """The signal ``name``, which must hold a value at this point."""
        signal = self._signal(name)
        if name not in self.driven:
            raise MicroVerilogError(
                f"identifier {name!r} read before any driver ran (combinational "
                "cycle or undriven net)"
            )
        return signal

    # -- expressions ---------------------------------------------------
    def compile_self(self, expression: object) -> _Compiled:
        """Compile in the expression's own (self-determined) context."""
        return self.compile(expression, *self.self_type(expression))

    def compile(self, expression: object, width: int, signed: bool) -> _Compiled:
        """Compile to ``width``-bit patterns (context-determined)."""
        _check_width(width)
        mask = _mask(width)
        if isinstance(expression, _Binary):
            return self._binary(expression, width, signed, mask)
        if isinstance(expression, _Literal):
            value = np.int64(_literal_value(expression, width))
            return lambda state, value=value: value
        if isinstance(expression, _Ident):
            name, signal = expression.name, self.read(expression.name)
            if width < signal.width:
                return lambda state, name=name, mask=mask: state[name] & mask
            # Sign-extension applies only when the whole expression is
            # signed (in which case every context-determined operand is too).
            if width > signal.width and signed and signal.signed:
                sign = 1 << (signal.width - 1)
                return lambda state, name=name, sign=sign, mask=mask: (
                    (state[name] ^ sign) - sign
                ) & mask
            return lambda state, name=name: state[name]
        if isinstance(expression, _Select):
            name, lsb, signal = expression.name, expression.lsb, self._signal(expression.name)
            if expression.msb >= signal.width:
                raise MicroVerilogError(
                    f"select {name}[{expression.msb}:{lsb}] "
                    f"exceeds the declared width {signal.width}"
                )
            self.read(name)
            keep = _mask(min(expression.msb - lsb + 1, width))
            return lambda state, name=name, lsb=lsb, keep=keep: (state[name] >> lsb) & keep
        if isinstance(expression, _Concat):
            offset, shifted = self.self_type(expression)[0], []
            for part in expression.parts:
                offset -= self.self_type(part)[0]
                shifted.append((self.compile_self(part), offset))

            def concat(state: Dict[str, np.ndarray], shifted=shifted, mask=mask) -> np.ndarray:
                result = np.int64(0)
                for part, offset in shifted:
                    result = result | (part(state) << offset)
                return result & mask

            return concat
        if isinstance(expression, _Unary):
            if expression.op == "!":
                operand = self.compile_self(expression.operand)
                return lambda state, operand=operand: (operand(state) == 0).astype(np.int64)
            operand = self.compile(expression.operand, width, signed)
            if expression.op == "-":
                return lambda state, operand=operand, mask=mask: (-operand(state)) & mask
            # "~" of an in-range pattern
            return lambda state, operand=operand, mask=mask: operand(state) ^ mask
        if isinstance(expression, _Ternary):
            condition = self.compile_self(expression.condition)
            if_true = self.compile(expression.if_true, width, signed)
            if_false = self.compile(expression.if_false, width, signed)
            return lambda state, condition=condition, if_true=if_true, if_false=if_false: (
                np.where(condition(state) != 0, if_true(state), if_false(state))
            )
        raise MicroVerilogError(f"cannot evaluate expression {expression!r}")

    def _binary(self, expression: _Binary, width: int, signed: bool, mask: int) -> _Compiled:
        op = expression.op
        if op in ("+", "-"):
            return self._sum(expression, width, signed, mask)
        if op in _SHIFTS:
            left = self.compile(expression.left, width, signed)
            arithmetic = op == ">>>" and signed
            # Past the width every bit shifts out (or the sign fills in).
            limit = width - 1 if arithmetic else width
            sign = 1 << (width - 1)
            if isinstance(expression.right, _Literal):
                fixed = min(_literal_value(expression.right, expression.right.width), limit)
                if op == "<<":
                    return lambda state, left=left, keep=mask >> fixed, fixed=fixed: (
                        left(state) & keep
                    ) << fixed
                if arithmetic:
                    return lambda state, left=left, sign=sign, fixed=fixed, mask=mask: (
                        ((left(state) ^ sign) - sign) >> fixed
                    ) & mask
                return lambda state, left=left, fixed=fixed: left(state) >> fixed

            def shift(state, left=left, amount=self.compile_self(expression.right), op=op,
                      limit=limit, arithmetic=arithmetic, sign=sign, mask=mask):
                clipped = np.minimum(amount(state), limit)
                if op == "<<":
                    return (left(state) & (mask >> clipped)) << clipped
                if arithmetic:
                    return (((left(state) ^ sign) - sign) >> clipped) & mask
                return left(state) >> clipped

            return shift
        if op in _COMPARISONS:
            # Operands are sized to the larger of the two and compared
            # signed only when *both* are signed.
            left_width, left_signed = self.self_type(expression.left)
            right_width, right_signed = self.self_type(expression.right)
            operand_width = _check_width(max(left_width, right_width))
            operand_signed = left_signed and right_signed
            left = self.compile(expression.left, operand_width, operand_signed)
            right = self.compile(expression.right, operand_width, operand_signed)
            # Flipping the sign bit maps two's-complement order onto unsigned
            # order (and leaves (in)equality alone).
            flip = 1 << (operand_width - 1) if operand_signed else 0
            return lambda state, left=left, right=right, compare=_COMPARE[op], flip=flip: (
                compare(left(state) ^ flip, right(state) ^ flip).astype(np.int64)
            )
        if op in ("&&", "||"):
            left = self.compile_self(expression.left)
            right = self.compile_self(expression.right)
            merge = np.logical_and if op == "&&" else np.logical_or
            return lambda state, left=left, right=right, merge=merge: merge(
                left(state) != 0, right(state) != 0
            ).astype(np.int64)
        left = self.compile(expression.left, width, signed)
        if op == "*":
            right = self.compile(expression.right, width, signed)
            if 2 * width > 63:
                raise MicroVerilogError(
                    f"multiplication at width {width} may overflow the simulator"
                )
            return lambda state, left=left, right=right, mask=mask: (
                left(state) * right(state)
            ) & mask
        if op not in _BITWISE:
            raise MicroVerilogError(f"unsupported operator {op!r}")
        if isinstance(expression.right, _Literal):  # the common ``x & 4'd9``
            constant = _literal_value(expression.right, width)
            return lambda state, left=left, operation=_BITWISE[op], constant=constant: (
                operation(left(state), constant)
            )
        right = self.compile(expression.right, width, signed)
        return lambda state, left=left, operation=_BITWISE[op], right=right: operation(
            left(state), right(state)
        )

    def _sum(self, expression: _Binary, width: int, signed: bool, mask: int) -> _Compiled:
        """A left-deep ``a + b - c ...`` chain, wrapped to ``width`` once at
        the end: int64 holds every partial sum of in-range terms exactly."""
        terms: List[Tuple[bool, object]] = []
        while (
            isinstance(expression, _Binary)
            and expression.op in ("+", "-")
            and len(terms) + 2 <= 1 << (63 - width)
        ):
            terms.append((expression.op == "-", expression.right))
            expression = expression.left
        first = self.compile(expression, width, signed)
        rest = [(subtract, self.compile(term, width, signed)) for subtract, term in terms[::-1]]

        def chain(state: Dict[str, np.ndarray], first=first, rest=rest, mask=mask) -> np.ndarray:
            total = first(state)
            for subtract, term in rest:
                total = total - term(state) if subtract else total + term(state)
            return total & mask

        return chain

    # -- drivers -------------------------------------------------------
    def _driver(self, target: str, expression: object) -> _Compiled:
        """``expression`` in its assignment context, truncated to ``target``."""
        signal = self._signal(target)
        width, signed = self.self_type(expression)
        value = self.compile(expression, max(signal.width, width), signed)
        if width <= signal.width and not isinstance(expression, _Ident):
            return value  # already in range, and never a net's own array
        return lambda state, value=value, mask=_mask(signal.width): value(state) & mask

    def node(self, node: object) -> _Step:
        if isinstance(node, _AssignNode):
            target, value = node.target, self._driver(node.target, node.expression)
            self.driven.add(target)

            def assign(state: Dict[str, np.ndarray], n: int, target=target, value=value) -> None:
                result = value(state)
                state[target] = result if result.ndim else np.full(n, result)

            return assign
        statements = [self._statement(statement) for statement in node.statements]

        def always(state: Dict[str, np.ndarray], n: int, statements=statements) -> None:
            lanes = np.ones(n, dtype=bool)
            for statement in statements:
                statement(state, lanes)

        return always

    def _statement(self, statement: object) -> Callable[[Dict[str, np.ndarray], np.ndarray], None]:
        if isinstance(statement, _BlockingAssign):
            target = statement.target
            if self._signal(target).kind not in ("reg", "integer"):
                raise MicroVerilogError(f"procedural assignment to non-reg {target!r}")
            value = self._driver(target, statement.expression)
            driven = target in self.driven
            self.driven.add(target)

            def assign(state, lanes, target=target, value=value, driven=driven) -> None:
                state[target] = np.where(lanes, value(state), state[target] if driven else 0)

            return assign
        if isinstance(statement, _IfStatement):
            condition = self.compile_self(statement.condition)
            then_body = [self._statement(child) for child in statement.then_body]
            else_body = [self._statement(child) for child in statement.else_body]

            def branch(state, lanes, condition=condition, then_body=then_body, else_body=else_body):
                taken = condition(state) != 0
                inner = lanes & taken
                for child in then_body:
                    child(state, inner)
                inner = lanes & ~taken
                for child in else_body:
                    child(state, inner)

            return branch
        raise MicroVerilogError(f"unsupported statement {statement!r}")


# ---------------------------------------------------------------------------
# The module
# ---------------------------------------------------------------------------


@dataclass
class MicroVerilogModule:
    """A parsed module, ready for vectorized evaluation."""

    name: str
    ports: Tuple[Port, ...]
    signals: Dict[str, _Signal]
    localparams: Dict[str, _Literal]
    #: Continuous assignments and always blocks, topologically ordered.
    nodes: Tuple[object, ...] = field(default_factory=tuple)
    #: ``nodes`` compiled by :class:`_Resolver`, or why they cannot be
    #: simulated: text that parses is rejected only when it is evaluated.
    _plan: Tuple[_Step, ...] = field(init=False, repr=False, compare=False)
    _error: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        resolver, self._error = _Resolver(self.signals), None
        try:
            self._plan = tuple(resolver.node(node) for node in self.nodes)
            for port in self.outputs:
                resolver.read(port.name)
        except MicroVerilogError as error:
            self._plan, self._error = (), str(error)

    @property
    def inputs(self) -> Tuple[Port, ...]:
        """Input ports, in declaration order."""
        return tuple(port for port in self.ports if port.direction == "input")

    @property
    def outputs(self) -> Tuple[Port, ...]:
        """Output ports, in declaration order."""
        return tuple(port for port in self.ports if port.direction == "output")

    def evaluate(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Evaluate the module combinationally on a stimulus batch.

        Parameters
        ----------
        inputs:
            ``{port name: (n_vectors,) integer array}`` for every input
            port.  Values must be in the port's unsigned range.

        Returns
        -------
        ``{net name: (n_vectors,) int64 array}`` for every input, wire,
        reg and integer the module drives, each as its unsigned bit
        pattern.
        """
        declared = {port.name for port in self.inputs}
        provided = set(inputs)
        if declared != provided:
            raise MicroVerilogError(
                f"stimulus keys {sorted(provided)} do not match the module's "
                f"input ports {sorted(declared)}"
            )
        lengths = {np.asarray(values).shape for values in inputs.values()}
        if len(lengths) > 1:
            raise MicroVerilogError(f"ragged stimulus shapes {sorted(lengths)}")
        n = next(iter(lengths))[0] if lengths else 0

        state: Dict[str, np.ndarray] = {
            name: np.int64(literal.value) for name, literal in self.localparams.items()
        }
        for port in self.inputs:
            values = np.asarray(inputs[port.name], dtype=np.int64)
            if values.ndim != 1:
                raise MicroVerilogError(
                    f"stimulus for {port.name!r} must be one-dimensional"
                )
            if np.any(values < 0) or np.any(values > _mask(port.width)):
                raise MicroVerilogError(
                    f"stimulus for {port.name!r} outside its {port.width}-bit range"
                )
            state[port.name] = values

        if self._error is not None:
            raise MicroVerilogError(self._error)
        for step in self._plan:
            step(state, n)
        return {name: value for name, value in state.items() if name not in self.localparams}


# ---------------------------------------------------------------------------
# Module parsing
# ---------------------------------------------------------------------------


def _width_from_range(range_: Optional[Tuple[int, int]]) -> int:
    if range_ is None:
        return 1
    return range_[0] - range_[1] + 1


def parse_module(text: str) -> MicroVerilogModule:
    """Parse one module of the supported structural subset.

    Raises :class:`MicroVerilogError` on anything outside the subset —
    loudly, never by skipping text it does not understand.
    """
    parser = _Parser(_tokenize(text))
    parser.expect("module")
    module_name = parser.expect_ident()

    signals: Dict[str, _Signal] = {}
    localparams: Dict[str, _Literal] = {}
    ports: List[Port] = []

    def declare(signal: _Signal) -> None:
        if signal.name in signals:
            raise MicroVerilogError(f"duplicate declaration of {signal.name!r}")
        if signal.width > MAX_WIDTH:
            raise MicroVerilogError(
                f"declared width {signal.width} of {signal.name!r} exceeds the "
                f"supported {MAX_WIDTH} bits"
            )
        signals[signal.name] = signal

    # -- ANSI port list ------------------------------------------------
    parser.expect("(")
    while True:
        token = parser.next()
        if token.text not in ("input", "output"):
            raise MicroVerilogError(f"expected a port direction, got {token.text!r}")
        direction = token.text
        kind = "input" if direction == "input" else "wire"
        parser.accept("wire") or parser.accept("reg")
        signed = parser.accept("signed")
        range_ = parser.parse_range(localparams)
        name = parser.expect_ident()
        width = _width_from_range(range_)
        ports.append(Port(name=name, direction=direction, width=width, signed=signed))
        declare(_Signal(name=name, width=width, signed=signed, kind=kind))
        if parser.accept(")"):
            break
        parser.expect(",")
    parser.expect(";")

    # -- body ----------------------------------------------------------
    assigns: List[Tuple[_AssignNode, List[str]]] = []
    always_blocks: List[Tuple[_AlwaysNode, List[str]]] = []
    while True:
        token = parser.peek()
        if token is None:
            raise MicroVerilogError("missing endmodule")
        if parser.accept("endmodule"):
            break
        if parser.accept("wire"):
            signed = parser.accept("signed")
            range_ = parser.parse_range(localparams)
            name = parser.expect_ident()
            declare(_Signal(name, _width_from_range(range_), signed, "wire"))
            if parser.accept("="):
                assigns.append(parser.parse_assign(name))
            parser.expect(";")
        elif parser.accept("reg"):
            signed = parser.accept("signed")
            range_ = parser.parse_range(localparams)
            name = parser.expect_ident()
            declare(_Signal(name, _width_from_range(range_), signed, "reg"))
            parser.expect(";")
        elif parser.accept("integer"):
            name = parser.expect_ident()
            declare(_Signal(name, 32, True, "integer"))
            parser.expect(";")
        elif parser.accept("localparam"):
            signed = False
            width: Optional[int] = None
            if parser.accept("integer"):
                signed, width = True, 32
            else:
                signed = parser.accept("signed")
                range_ = parser.parse_range(localparams)
                if range_ is not None:
                    width = _width_from_range(range_)
            name = parser.expect_ident()
            parser.expect("=")
            value = parser._const(parser.parse_expression(), localparams)
            parser.expect(";")
            if width is None:
                width = max(32, value.bit_length() + 1)
                signed = True
            if value < 0:
                value &= _mask(width)
            if value >> width:
                raise MicroVerilogError(
                    f"localparam {name!r} value {value} does not fit in {width} bits"
                )
            declare(_Signal(name, width, signed, "localparam"))
            localparams[name] = _Literal(value, width, signed)
        elif parser.accept("assign"):
            name = parser.expect_ident()
            parser.expect("=")
            assigns.append(parser.parse_assign(name))
            parser.expect(";")
        elif parser.accept("always"):
            parser.expect("@")
            if not parser.accept("*"):
                parser.expect("(")
                parser.expect("*")
                parser.expect(")")
            always_blocks.append(parser.parse_always())
        else:
            raise MicroVerilogError(f"unsupported module item at {token.text!r}")
    if parser.peek() is not None:
        raise MicroVerilogError(
            f"trailing text after endmodule: {parser.peek().text!r}"
        )

    for assign, _ in assigns:
        if assign.target not in signals:
            raise MicroVerilogError(f"assignment to undeclared net {assign.target!r}")

    nodes = _order_nodes(assigns + always_blocks, signals)
    return MicroVerilogModule(
        name=module_name,
        ports=tuple(ports),
        signals=signals,
        localparams=localparams,
        nodes=nodes,
    )


def _order_nodes(
    drivers: Sequence[Tuple[object, List[str]]], signals: Dict[str, _Signal]
) -> Tuple[object, ...]:
    """Topologically order the drivers, ``(node, identifiers it reads)``
    pairs (wires before their readers).

    Driver-per-net uniqueness is enforced here too: two continuous
    assignments to one net, or a net driven both by an ``assign`` and an
    ``always`` block, is a (loud) error.
    """
    nodes = [node for node, _ in drivers]
    driver_of: Dict[str, int] = {}
    for index, node in enumerate(nodes):
        targets = [node.target] if isinstance(node, _AssignNode) else list(node.writes)
        for target in targets:
            if target in driver_of:
                raise MicroVerilogError(f"net {target!r} has multiple drivers")
            driver_of[target] = index

    dependencies: List[set] = []
    for node, reads in drivers:
        writes = {node.target} if isinstance(node, _AssignNode) else set(node.writes)
        wanted = set()
        for name in reads:
            if name in writes:
                continue  # an always block may read what it just wrote
            producer = driver_of.get(name)
            if producer is not None:
                wanted.add(producer)
            elif name not in signals:
                raise MicroVerilogError(f"reference to undeclared identifier {name!r}")
            elif signals[name].kind not in ("input", "localparam"):
                raise MicroVerilogError(f"net {name!r} is never driven")
        dependencies.append(wanted)

    ordered: List[object] = []
    placed = [False] * len(nodes)
    satisfied: set = set()
    remaining = len(nodes)
    while remaining:
        progressed = False
        for index, node in enumerate(nodes):
            if placed[index] or not dependencies[index] <= satisfied:
                continue
            ordered.append(node)
            placed[index] = True
            satisfied.add(index)
            remaining -= 1
            progressed = True
        if not progressed:
            cyclic = sorted(
                target
                for target, index in driver_of.items()
                if not placed[index]
            )
            raise MicroVerilogError(f"combinational cycle through {cyclic}")
    return tuple(ordered)


# ---------------------------------------------------------------------------
# Convenience entry point for the generated MLP modules
# ---------------------------------------------------------------------------


def simulate_mlp_module(
    source: Union[str, MicroVerilogModule], vectors: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Execute a generated MLP module on integer input vectors.

    Parses ``source`` (the output of
    :func:`repro.rtl.verilog.generate_mlp_verilog`, or that text already
    parsed by :func:`parse_module`), applies each row of
    ``vectors`` to the ``in0..inK`` ports and reads back the
    ``class_index`` output and every ``acc_lL_nJ`` accumulator net —
    the Verilog-semantics oracle of the differential verification
    harness.

    Parameters
    ----------
    source:
        Verilog module text (any module name), or its parsed
        :class:`MicroVerilogModule`; both get the same checks and give
        the same result.  Passing the module lets callers that simulate
        one text twice parse it once.
    vectors:
        ``(n_vectors, num_inputs)`` integer stimulus.

    Returns
    -------
    ``(class_index, accumulators)``: the ``(n_vectors,)`` int64
    predicted class indices, and per layer ``L`` an
    ``(n_vectors, fan_out)`` int64 array whose column ``J`` is net
    ``acc_lL_nJ`` read with its declared width and signedness.  Raises
    :class:`MicroVerilogError` when the driven accumulator nets skip a
    layer index or a neuron index below the largest one.
    """
    module = source if isinstance(source, MicroVerilogModule) else parse_module(source)
    vectors = np.asarray(vectors, dtype=np.int64)
    if vectors.ndim != 2:
        raise MicroVerilogError(f"vectors must be (n, num_inputs), got {vectors.shape}")
    input_ports = module.inputs
    expected = [f"in{i}" for i in range(len(input_ports))]
    if [port.name for port in input_ports] != expected:
        raise MicroVerilogError(
            f"module {module.name!r} does not expose the in0..in{len(input_ports) - 1} "
            "port convention"
        )
    if vectors.shape[1] != len(input_ports):
        raise MicroVerilogError(
            f"module {module.name!r} has {len(input_ports)} inputs, "
            f"stimulus provides {vectors.shape[1]}"
        )
    if "class_index" not in {port.name for port in module.outputs}:
        raise MicroVerilogError(f"module {module.name!r} has no class_index output")
    nets = module.evaluate(
        {port.name: vectors[:, i] for i, port in enumerate(input_ports)}
    )
    columns: Dict[int, Dict[int, np.ndarray]] = {}
    for name, bits in nets.items():
        match = _ACCUMULATOR_NET_RE.fullmatch(name)
        if match:
            signal = module.signals[name]
            sign = np.int64(1 << (signal.width - 1) if signal.signed else 0)
            columns.setdefault(int(match[1]), {})[int(match[2])] = (bits ^ sign) - sign
    accumulators: List[np.ndarray] = []
    for layer in range(max(columns, default=-1) + 1):
        neurons = columns.get(layer, {})
        missing = [j for j in range(max(neurons, default=0) + 1) if j not in neurons]
        if missing:
            raise MicroVerilogError(
                f"module {module.name!r} lacks net 'acc_l{layer}_n{missing[0]}'"
            )
        accumulators.append(np.stack([neurons[j] for j in range(len(neurons))], axis=1))
    return nets["class_index"], accumulators
