"""Tests for the microverilog parser/simulator — the module-text oracle.

Three layers:

* **language units** — literals, width/signedness contexts, operators,
  part-selects, concats, localparams, always blocks, and the loud-error
  paths (outside-subset text must raise, never parse-and-skip);
* **mutation detection** — programmatically tampered module text
  (flipped comparison, narrowed width, dropped ``signed``, altered
  saturation bound) must produce mismatches or a parse error; mutation
  seeds were chosen so each tamper provably changes behaviour on the
  applied vectors (a vacuously-passing oracle would fail these);
* **harness integration** — ``verify_design`` counts accumulator-net
  and class disagreements of the executed module text separately.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.approx.mlp import ApproximateMLP
from repro.approx.topology import Topology
from repro.eda.microverilog import (
    _PRECEDENCE,
    MAX_WIDTH,
    MicroVerilogError,
    _Token,
    _tokenize,
    parse_module,
    simulate_mlp_module,
)
from repro.evaluation.verification import verify_design
from repro.rtl.verilog import generate_mlp_verilog


#: The named-group scanner pattern: the reference ``_tokenize`` (one
#: unnamed group, classified per distinct text) must agree with.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:(?://[^\n]*(?:\n|\Z)|/\*(?:[^*]|\*(?!/))*\*/)\s*)*
    (?:
      (?P<op><<<|>>>|<<|>>|<=|>=|==|!=|&&|\|\||[-+*&|^~!<>?:=;,().\[\]{}@#])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<based>(?P<size>\d+)?\s*'(?P<signed>[sS])?(?P<base>[bodhBODH])(?P<digits>[0-9a-fA-F_xzXZ?]+))
    | (?P<dec>\d[\d_]*)
    | (?P<bad>.)
    | (?P<end>\Z)
    )
    """,
    re.VERBOSE,
)
_BASES = {"b": 2, "o": 8, "d": 10, "h": 16}


def _reference_based(match, literal):
    digits = match.group("digits").replace("_", "")
    if re.search(r"[xzXZ?]", digits):
        raise MicroVerilogError(f"4-state value {literal!r} is unsupported")
    base = _BASES[match.group("base").lower()]
    try:
        value = int(digits, base)
    except ValueError:
        raise MicroVerilogError(f"literal {literal!r} has digits outside base {base}") from None
    size = match.group("size")
    width = int(size) if size else 32
    if width <= 0:
        raise MicroVerilogError(f"zero-width literal {literal!r}")
    if value >> width:
        raise MicroVerilogError(f"literal {literal!r} does not fit in {width} bits")
    return value, width, match.group("signed") is not None, True


def _reference_tokens(text):
    """``(kind, text, number)`` per token, one ``finditer`` match each."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        literal = match[kind]
        if kind in ("ident", "op"):
            tokens.append((kind, literal, None))
        elif kind == "dec":
            value = int(literal.replace("_", ""))
            tokens.append(("num", literal, (value, max(32, value.bit_length() + 1), True, False)))
        elif kind == "based":
            tokens.append(("num", literal, _reference_based(match, literal)))
        elif kind == "bad":
            start = match.start(kind)
            raise MicroVerilogError(f"unrecognized Verilog at {text[start : start + 20]!r}")
    return tokens


_OPERATOR_TEXTS = (
    "<<< >>> << >> <= >= == != && || - + * & | ^ ~ ! < > ? : = ; , ( ) . [ ] { } @ #".split()
)
_DIGIT_FORMATS = {"b": "b", "o": "o", "d": "d", "h": "x"}


@st.composite
def _well_formed_literal(draw):
    """A based literal whose value fits its width: ``8'hff``, ``4 'sb10``,
    ``'o17`` (unsized, 32 bits)."""
    width = draw(st.integers(min_value=0, max_value=40))
    base = draw(st.sampled_from("bodhBODH"))
    value = draw(st.integers(min_value=0, max_value=(1 << (width or 32)) - 1))
    blank = draw(st.sampled_from(["", " ", "\t"]))
    size = f"{width}{blank}" if width else ""
    signed = draw(st.sampled_from(["", "s", "S"]))
    return f"{size}'{signed}{base}{format(value, _DIGIT_FORMATS[base.lower()])}"


#: One identifier, operator or well-formed literal.
_SCAN_TOKEN = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_$]{0,5}", fullmatch=True),
    st.sampled_from(_OPERATOR_TEXTS),
    st.from_regex(r"[0-9][0-9_]{0,12}", fullmatch=True),
    _well_formed_literal(),
)
#: A literal of any shape the pattern takes, legal or not.
_SCAN_LITERAL = st.from_regex(
    r"[0-9]{0,3}[ ]?'[sS]?[bodhBODH][0-9a-fA-F_xzXZ?]{1,10}", fullmatch=True
)
#: Blanks, a line comment or a block comment.
_SCAN_GAP = st.one_of(
    st.from_regex(r"[ \t\n\r]{1,3}", fullmatch=True),
    st.from_regex(r"//[^\n]{0,10}\n", fullmatch=True),
    st.from_regex(r"/\*([^*]|\*[^*/]){0,6}\*/", fullmatch=True),
)


def _module(body: str, ports: str = "input  wire [7:0] in0,\n    output wire [7:0] out") -> str:
    return f"module t (\n    {ports}\n);\n{body}\nendmodule\n"


def _eval1(body: str, in0: int, ports=None) -> int:
    text = _module(body) if ports is None else _module(body, ports)
    module = parse_module(text)
    return int(module.evaluate({"in0": np.array([in0])})["out"][0])


def _random_mlp(seed: int, sizes=(4, 3, 2)):
    rng = np.random.default_rng(seed)
    mlp = ApproximateMLP.random(Topology(sizes), ApproxConfig(), rng, mask_density=0.5)
    vectors = rng.integers(0, 16, size=(64, sizes[0]))
    return mlp, generate_mlp_verilog(mlp), vectors


# ----------------------------------------------------------------------
# Language semantics
# ----------------------------------------------------------------------
class TestExpressionSemantics:
    def test_sized_literal_and_masking(self):
        assert _eval1("    assign out = 8'd200;", 0) == 200

    def test_assignment_truncates_to_lhs_width(self):
        # 200 + 100 = 300 wraps to 44 in the 8-bit LHS context.
        assert _eval1("    assign out = 8'd200 + 8'd100;", 0) == 44

    def test_unsigned_subtraction_wraps(self):
        assert _eval1("    assign out = 8'd3 - 8'd5;", 0) == 254

    def test_signed_comparison_vs_unsigned_pattern(self):
        # -1 stored in a signed wire compares below zero; the same bit
        # pattern through an unsigned wire does not.
        body = (
            "    wire signed [7:0] s = -1;\n"
            "    wire [7:0] u = 8'd255;\n"
            "    assign out = {7'd0, s < 0} + {6'd0, (u < 8'd1), 1'b0};"
        )
        assert _eval1(body, 0) == 1

    def test_comparison_signed_iff_both_operands_signed(self):
        # signed -1 vs unsigned 1: the comparison happens unsigned, so
        # the 255 pattern is NOT below 1 (Verilog's classic footgun).
        body = (
            "    wire signed [7:0] s = -1;\n"
            "    assign out = {7'd0, s < 8'd1};"
        )
        assert _eval1(body, 0) == 0

    def test_arithmetic_shift_right_sign_extends(self):
        body = (
            "    wire signed [7:0] s = -8;\n"
            "    wire signed [7:0] sh = s >>> 2;\n"
            "    assign out = sh;"
        )
        assert _eval1(body, 0) == (-2) & 0xFF

    def test_logical_shift_right_zero_fills(self):
        body = (
            "    wire [7:0] u = 8'd248;\n"
            "    wire [7:0] sh = u >> 2;\n"
            "    assign out = sh;"
        )
        assert _eval1(body, 0) == 62

    def test_part_select_is_unsigned(self):
        body = (
            "    wire signed [7:0] s = -1;\n"
            "    assign out = {4'd0, s[3:0]};"
        )
        assert _eval1(body, 0) == 15

    def test_concat_orders_msb_first(self):
        assert _eval1("    assign out = {4'd10, 4'd5};", 0) == 0xA5

    def test_ternary_selects_by_condition(self):
        body = "    assign out = (in0 > 8'd10) ? 8'd1 : 8'd2;"
        assert _eval1(body, 11) == 1
        assert _eval1(body, 10) == 2

    def test_localparam_integer_is_signed_32bit(self):
        body = (
            "    localparam integer LIMIT = 100;\n"
            "    wire signed [8:0] s = -1;\n"
            "    assign out = {7'd0, s < LIMIT};"
        )
        assert _eval1(body, 0) == 1

    def test_sign_extension_through_wider_context(self):
        # A 4-bit signed value read in an 8-bit signed context extends.
        body = (
            "    wire signed [3:0] small = -3;\n"
            "    wire signed [7:0] wide = small;\n"
            "    assign out = wide;"
        )
        assert _eval1(body, 0) == (-3) & 0xFF

    def test_always_if_else_chain(self):
        body = (
            "    reg [7:0] r;\n"
            "    always @* begin\n"
            "        r = 8'd0;\n"
            "        if (in0 > 8'd10) begin\n"
            "            r = 8'd1;\n"
            "        end\n"
            "        if (in0 > 8'd100) begin\n"
            "            r = 8'd2;\n"
            "        end\n"
            "    end\n"
            "    assign out = r;"
        )
        assert _eval1(body, 5) == 0
        assert _eval1(body, 50) == 1
        assert _eval1(body, 200) == 2

    def test_assign_order_is_topological_not_textual(self):
        # "b" is declared/driven after "a" reads it textually.
        body = (
            "    wire [7:0] a = b + 8'd1;\n"
            "    wire [7:0] b = in0;\n"
            "    assign out = a;"
        )
        assert _eval1(body, 4) == 5

    def test_vectorized_evaluation_matches_scalar(self):
        text = _module("    assign out = (in0 > 8'd7) ? in0 - 8'd7 : 8'd0;")
        module = parse_module(text)
        batch = np.arange(20, dtype=np.int64)
        out = module.evaluate({"in0": batch})["out"]
        expected = np.where(batch > 7, batch - 7, 0)
        assert np.array_equal(out, expected)


class TestLoudErrors:
    def test_part_select_on_expression_is_rejected(self):
        """The exact illegal shape the generator used to emit."""
        body = (
            "    wire signed [9:0] acc = in0 + 8'd1;\n"
            "    assign out = (acc >>> 2)[7:0];"
        )
        with pytest.raises(MicroVerilogError):
            parse_module(_module(body))

    def test_four_state_literal_rejected(self):
        with pytest.raises(MicroVerilogError, match="4-state"):
            parse_module(_module("    assign out = 8'bxxxxxxxx;"))

    def test_oversized_literal_rejected(self):
        with pytest.raises(MicroVerilogError, match="does not fit"):
            parse_module(_module("    assign out = 4'd16 + 8'd0;"))

    def test_unknown_identifier_rejected(self):
        with pytest.raises(MicroVerilogError, match="ghost"):
            parse_module(_module("    assign out = ghost;"))

    def test_multiple_drivers_rejected(self):
        body = "    assign out = 8'd1;\n    assign out = 8'd2;"
        with pytest.raises(MicroVerilogError, match="multiple drivers"):
            parse_module(_module(body))

    def test_combinational_cycle_rejected(self):
        body = (
            "    wire [7:0] a = b;\n"
            "    wire [7:0] b = a;\n"
            "    assign out = a;"
        )
        with pytest.raises(MicroVerilogError, match="cycle"):
            parse_module(_module(body))

    def test_undriven_wire_rejected(self):
        body = "    wire [7:0] floating;\n    assign out = floating;"
        with pytest.raises(MicroVerilogError, match="never driven"):
            parse_module(_module(body))

    def test_width_beyond_supported_rejected(self):
        with pytest.raises(MicroVerilogError, match=str(MAX_WIDTH)):
            parse_module(_module(f"    wire [{MAX_WIDTH}:0] huge = 0;\n    assign out = huge[7:0];"))

    def test_select_past_declared_width_rejected(self):
        text = _module("    assign out = {4'd0, in0[11:8]};")
        with pytest.raises(MicroVerilogError, match="exceeds"):
            parse_module(text).evaluate({"in0": np.array([1])})

    def test_trailing_text_rejected(self):
        with pytest.raises(MicroVerilogError, match="trailing"):
            parse_module(_module("    assign out = in0;") + "module extra (); endmodule")

    def test_stimulus_out_of_range_rejected(self):
        module = parse_module(_module("    assign out = in0;"))
        with pytest.raises(MicroVerilogError, match="range"):
            module.evaluate({"in0": np.array([256])})

    def test_stimulus_port_mismatch_rejected(self):
        module = parse_module(_module("    assign out = in0;"))
        with pytest.raises(MicroVerilogError, match="input ports"):
            module.evaluate({"in0": np.array([1]), "in1": np.array([2])})

    @pytest.mark.parametrize("literal", ["4'b2", "8'd1f", "3'o9"])
    def test_digit_outside_base_rejected(self, literal):
        with pytest.raises(MicroVerilogError, match=re.escape(repr(literal))):
            parse_module(_module(f"    assign out = {literal};"))

    def test_non_mlp_port_convention_rejected(self):
        text = "module m (\n    input wire [3:0] data,\n    output wire [1:0] class_index\n);\n    assign class_index = data[1:0];\nendmodule\n"
        with pytest.raises(MicroVerilogError, match="in0"):
            simulate_mlp_module(text, np.zeros((1, 1), dtype=np.int64))


# ----------------------------------------------------------------------
# Operator grouping, checked by evaluation
# ----------------------------------------------------------------------
_ABC_PORTS = (
    "input  wire [3:0] a,\n    input  wire [3:0] b,\n    input  wire [3:0] c,\n"
    "    input  wire [3:0] d,\n    input  wire [3:0] e,\n    output wire [15:0] out"
)
#: Every 4-bit (a, b, c) triple, with d and e derived from a and c.
_GRID = np.array(np.meshgrid(*[np.arange(16)] * 3, indexing="ij")).reshape(3, -1)
_STIMULUS = {
    "a": _GRID[0],
    "b": _GRID[1],
    "c": _GRID[2],
    "d": (_GRID[0] + 5) % 16,
    "e": _GRID[2] ^ 9,
}


def _outputs(expression: str) -> np.ndarray:
    module = parse_module(_module(f"    assign out = {expression};", _ABC_PORTS))
    return module.evaluate(_STIMULUS)["out"]


def _assert_groups_as(expression: str, expected: str, other: str) -> None:
    """``expression`` evaluates like ``expected`` on every vector, and the
    stimulus tells ``expected`` apart from the ``other`` grouping."""
    assert np.array_equal(_outputs(expression), _outputs(expected))
    assert not np.array_equal(_outputs(expected), _outputs(other))


#: One operator per tier, picked so that the two groupings of every
#: cross-tier pair differ somewhere on the stimulus: ``(a * b) << c``
#: equals ``a * (b << c)``, and ``+`` re-associates with ``-``.
_TIER_OPERATOR = {tier: ops[0] for tier, ops in enumerate(_PRECEDENCE)}
_TIER_OPERATOR[7] = ">>"
_TIER_OPERATOR[8] = "-"
#: Within a tier, a pair whose two groupings differ.
_SAME_TIER = {5: ("==", "!="), 6: ("<", "<"), 7: ("<<", ">>"), 8: ("-", "-")}


class TestOperatorGrouping:
    @pytest.mark.parametrize("tier1", range(len(_PRECEDENCE)))
    @pytest.mark.parametrize("tier2", range(len(_PRECEDENCE)))
    def test_tier_pair(self, tier1, tier2):
        """``a op1 b op2 c`` binds the tighter tier first, left to right
        within a tier."""
        op1, op2 = _TIER_OPERATOR[tier1], _TIER_OPERATOR[tier2]
        if tier1 == tier2:
            if tier1 not in _SAME_TIER:
                # ||, &&, |, ^, & and * are associative: no stimulus can
                # tell the groupings apart, so check the tree instead.
                (node,) = parse_module(
                    _module(f"    assign out = a {op1} b {op2} c;", _ABC_PORTS)
                ).nodes
                assert node.expression.left.op == op1
                assert node.expression.right.name == "c"
                return
            op1, op2 = _SAME_TIER[tier1]
        left = f"(a {op1} b) {op2} c"
        right = f"a {op1} (b {op2} c)"
        expected, other = (left, right) if tier1 >= tier2 else (right, left)
        _assert_groups_as(f"a {op1} b {op2} c", expected, other)

    @pytest.mark.parametrize(
        "expression, expected, other",
        [
            ("a - b - c", "(a - b) - c", "a - (b - c)"),
            ("a << b >> c", "(a << b) >> c", "a << (b >> c)"),
            ("a >> b << c", "(a >> b) << c", "a >> (b << c)"),
        ],
    )
    def test_left_associative_within_a_tier(self, expression, expected, other):
        _assert_groups_as(expression, expected, other)

    @pytest.mark.parametrize(
        "expression, expected, other",
        [
            ("-a + b", "(-a) + b", "-(a + b)"),
            ("~a & b", "(~a) & b", "~(a & b)"),
            ("!a == b", "(!a) == b", "!(a == b)"),
        ],
    )
    def test_unary_binds_tighter_than_binary(self, expression, expected, other):
        _assert_groups_as(expression, expected, other)

    @pytest.mark.parametrize(
        "expression, expected, other",
        [
            ("a ? b : c ? d : e", "a ? b : (c ? d : e)", "(a ? b : c) ? d : e"),
            ("a ? b ? c : d : e", "a ? (b ? c : d) : e", "(a ? b : c) ? d : e"),
            ("a < b ? c : d + e", "(a < b) ? c : (d + e)", "a < (b ? c : d) + e"),
        ],
    )
    def test_ternary_nests_to_the_right(self, expression, expected, other):
        _assert_groups_as(expression, expected, other)


# ----------------------------------------------------------------------
# Scanner: nothing is skipped, positions point at tokens
# ----------------------------------------------------------------------
class TestScanner:
    @pytest.mark.parametrize("character", ["$", "`", "\\"])
    @pytest.mark.parametrize(
        "template",
        [
            "    assign out = in0 + {c} in0;",  # mid-expression
            "    assign out = in0; // note\n{c}",  # after a line comment
            "    assign out = in0;\n     {c}",  # after whitespace
        ],
    )
    def test_illegal_character_rejected(self, template, character):
        text = _module(template.format(c=character))
        at = text.index(character)
        with pytest.raises(MicroVerilogError) as error:
            parse_module(text)
        assert str(error.value) == f"unrecognized Verilog at {text[at : at + 20]!r}"

    @pytest.mark.parametrize("character", ["$", "`", "\\"])
    def test_illegal_last_character_rejected(self, character):
        text = _module("    assign out = in0;") + character
        with pytest.raises(MicroVerilogError) as error:
            parse_module(text)
        assert str(error.value) == f"unrecognized Verilog at {character!r}"

    @settings(max_examples=200, deadline=None)
    @given(pieces=st.lists(st.one_of(_SCAN_TOKEN, _SCAN_LITERAL, _SCAN_GAP), max_size=40))
    def test_tokens_match_reference(self, pieces):
        """Any text of tokens, literals (4-state, out-of-range and badly
        sized ones included), blanks and comments scans to the reference
        scanner's ``(kind, text, number)`` triples, or fails with its
        message."""
        text = "".join(pieces)
        try:
            expected = _reference_tokens(text)
        except MicroVerilogError as error:
            with pytest.raises(MicroVerilogError) as raised:
                _tokenize(text)
            assert str(raised.value) == str(error)
        else:
            assert [tuple(token) for token in _tokenize(text)] == expected

    @settings(max_examples=100, deadline=None)
    @given(
        pieces=st.lists(st.one_of(_SCAN_TOKEN, _SCAN_GAP), max_size=30),
        where=st.integers(min_value=0),
        character=st.sampled_from(["$", "`", "\\", "'", "/", '"', "%", "\u00e9", "\u00b2"]),
    )
    def test_illegal_character_anywhere_rejected(self, pieces, where, character):
        """An illegal character between any two blank-separated pieces
        is reported where it stands."""
        where %= len(pieces) + 1
        head = "".join(f"{piece} " for piece in pieces[:where])
        text = head + character + "".join(f" {piece}" for piece in pieces[where:])
        with pytest.raises(MicroVerilogError) as error:
            _tokenize(text)
        at = len(head)
        assert str(error.value) == f"unrecognized Verilog at {text[at : at + 20]!r}"

    def test_tokens_match_reference_on_edge_designs(self, edge_design):
        """Every corner design's module scans to the reference triples,
        each a ``_Token``."""
        mlp, _ = edge_design
        text = generate_mlp_verilog(mlp)
        tokens = _tokenize(text)
        assert [tuple(token) for token in tokens] == _reference_tokens(text)
        assert all(type(token) is _Token for token in tokens)

    def test_trailing_comment_and_whitespace_accepted(self):
        module = parse_module(_module("    assign out = in0;") + "  // end\n\n /* c */  ")
        assert module.name == "t"


# ----------------------------------------------------------------------
# Generated modules: simulator vs Python model
# ----------------------------------------------------------------------
class TestGeneratedModules:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_model_predictions(self, seed):
        mlp, text, vectors = _random_mlp(seed)
        assert np.array_equal(simulate_mlp_module(text, vectors)[0], mlp.predict(vectors))

    def test_three_layer_topology(self):
        mlp, text, vectors = _random_mlp(3, sizes=(5, 4, 3, 2))
        assert np.array_equal(simulate_mlp_module(text, vectors)[0], mlp.predict(vectors))

    def test_boundary_vectors(self):
        mlp, text, _ = _random_mlp(7)
        boundary = np.array([[0, 0, 0, 0], [15, 15, 15, 15]], dtype=np.int64)
        assert np.array_equal(
            simulate_mlp_module(text, boundary)[0], mlp.predict(boundary)
        )

    def test_module_ports_reflect_topology(self):
        _, text, _ = _random_mlp(0)
        module = parse_module(text)
        assert [port.name for port in module.inputs] == ["in0", "in1", "in2", "in3"]
        assert [port.name for port in module.outputs] == ["class_index"]

    def test_evaluate_returns_every_driven_net(self):
        _, text, vectors = _random_mlp(0)
        nets = parse_module(text).evaluate({f"in{i}": vectors[:, i] for i in range(4)})
        assert {"in0", "acc_l0_n0", "act_l0_n0", "acc_l1_n1", "class_index"} <= set(nets)
        assert "ACT_MAX_L0" not in nets

    def test_gap_in_accumulator_nets_rejected(self):
        _, text, vectors = _random_mlp(0)
        gapped = text.replace("acc_l0_n1", "acc_l0_n7")
        for source in (gapped, parse_module(gapped)):
            with pytest.raises(MicroVerilogError, match="lacks net 'acc_l0_n1'"):
                simulate_mlp_module(source, vectors)

    @pytest.mark.parametrize("seed", range(4))
    def test_parsed_module_simulates_like_its_text(self, seed):
        """A parsed module gives what its text gives, and can be run again."""
        _, text, vectors = _random_mlp(seed, sizes=(4, 3, 3, 2))
        module = parse_module(text)
        classes, accumulators = simulate_mlp_module(text, vectors)
        for _ in range(2):
            got_classes, got_accumulators = simulate_mlp_module(module, vectors)
            assert np.array_equal(got_classes, classes)
            assert len(got_accumulators) == len(accumulators)
            assert all(np.array_equal(a, b) for a, b in zip(got_accumulators, accumulators))

    def test_parsed_module_gets_the_port_checks(self):
        _, text, vectors = _random_mlp(0)
        module = parse_module(text)
        with pytest.raises(MicroVerilogError, match="has 4 inputs, stimulus provides 3"):
            simulate_mlp_module(module, vectors[:, :3])
        no_output = parse_module(text.replace("class_index", "class_out"))
        with pytest.raises(MicroVerilogError, match="has no class_index output"):
            simulate_mlp_module(no_output, vectors)


class TestEdgeCaseDesigns:
    """Corner designs the GA can reach, through every oracle."""

    def test_every_oracle_agrees(self, edge_design):
        mlp, vectors = edge_design
        verification = verify_design(mlp, vectors)
        assert verification.model_mismatches == 0
        assert verification.expression_mismatches == 0
        assert verification.eda_mismatches == 0
        predictions, _ = simulate_mlp_module(generate_mlp_verilog(mlp), vectors)
        assert np.array_equal(predictions, mlp.predict(vectors))


# ----------------------------------------------------------------------
# Mutation detection: tampered text must fail loudly
# ----------------------------------------------------------------------
class TestMutationDetection:
    """Each tamper provably alters behaviour for its chosen seed (the
    seeds were selected so the mutated text both still parses and
    disagrees with the model on the applied vectors)."""

    def _assert_detected(self, mlp, mutated, vectors):
        golden = mlp.predict(vectors)
        try:
            got, _ = simulate_mlp_module(mutated, vectors)
        except MicroVerilogError:
            return  # rejecting the tampered text is also a loud failure
        assert np.count_nonzero(got != golden) > 0, (
            "tampered Verilog simulated identically to the model — "
            "the oracle is vacuous"
        )

    def test_flipped_argmax_comparison(self):
        mlp, text, vectors = _random_mlp(0)
        mutated = text.replace("> best_score", "< best_score")
        assert mutated != text
        self._assert_detected(mlp, mutated, vectors)

    def test_narrowed_accumulator_width(self):
        mlp, text, vectors = _random_mlp(0)
        mutated = re.sub(
            r"wire signed \[\d+:0\] (acc_l1_)", r"wire signed [2:0] \1", text
        )
        assert mutated != text
        self._assert_detected(mlp, mutated, vectors)

    def test_dropped_sign_on_output_accumulators(self):
        mlp, text, vectors = _random_mlp(0)
        mutated = re.sub(r"wire signed (\[\d+:0\] acc_l1_)", r"wire \1", text)
        assert mutated != text
        self._assert_detected(mlp, mutated, vectors)

    def test_dropped_sign_on_hidden_accumulators(self):
        mlp, text, vectors = _random_mlp(1)
        mutated = re.sub(r"wire signed (\[\d+:0\] acc_l0_)", r"wire \1", text)
        assert mutated != text
        self._assert_detected(mlp, mutated, vectors)

    def test_tampered_saturation_bound(self):
        mlp, text, vectors = _random_mlp(1)
        mutated = re.sub(r"(ACT_MAX_L0 = )\d+", r"\g<1>3", text)
        assert mutated != text
        self._assert_detected(mlp, mutated, vectors)


# ----------------------------------------------------------------------
# verify_design integration
# ----------------------------------------------------------------------
class TestModuleTextOracleIntegration:
    def test_clean_design_has_zero_eda_mismatches(self):
        mlp, _, vectors = _random_mlp(2)
        verification = verify_design(mlp, vectors)
        assert verification.expression_mismatches == 0
        assert verification.eda_mismatches == 0
        assert verification.passed

    def test_tampered_module_text_counts_eda_mismatches(self):
        mlp, text, vectors = _random_mlp(0)
        mutated = text.replace("> best_score", "< best_score")
        verification = verify_design(mlp, vectors, verilog_text=mutated)
        assert verification.eda_mismatches > 0
        # The argmax tamper leaves every accumulator net intact.
        assert verification.expression_mismatches == 0
        assert not verification.passed
        assert verification.total_mismatches >= verification.eda_mismatches

    def test_unparsable_module_text_raises(self):
        mlp, text, vectors = _random_mlp(0)
        mutated = text.replace("endmodule", "endmodule garbage garbage")
        with pytest.raises(MicroVerilogError):
            verify_design(mlp, vectors, verilog_text=mutated)

    def test_dropped_sign_counts_accumulator_mismatches(self):
        """An accumulator net read unsigned disagrees with the model on
        every negative accumulator, whatever the class decision does."""
        mlp, text, vectors = _random_mlp(0)
        mutated = re.sub(r"wire signed (\[\d+:0\] acc_l1_)", r"wire \1", text)
        negative = int(np.count_nonzero(mlp.forward(vectors) < 0))
        assert negative > 0
        verification = verify_design(mlp, vectors, verilog_text=mutated)
        assert verification.expression_mismatches == negative
