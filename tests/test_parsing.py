"""Parser and formatter tests: grammar, precedence, round-trips, fuzzing
and the system-file schema."""
from random import Random

import pytest
import sympy as sp

import hamsym.parsing
from hamsym.expressions import TIME, coord, coord_deriv, momentum, momentum_deriv, parameter
from hamsym.parsing import (
    ParseContext,
    ParseError,
    SchemaError,
    _Parser,
    _tokenize,
    format_expression,
    parse_expression,
    parse_system_file,
)
from hamsym.registry import EXAMPLES

CTX1 = ParseContext(n=1)
CTX3 = ParseContext(n=3, parameters=frozenset({"K"}))


class TestParseExpression:
    def test_example_hamiltonian(self):
        e = parse_expression("(p1^2 + 1/q1^2)/2", CTX1)
        assert e == (momentum(1) ** 2 + 1 / coord(1) ** 2) / 2

    def test_time(self):
        assert parse_expression("t", CTX1) == TIME

    def test_kepler_potential(self):
        e = parse_expression("K^2/sqrt(q1^2+q2^2+q3^2)", CTX3)
        expected = parameter("K") ** 2 / sp.sqrt(coord(1) ** 2 + coord(2) ** 2 + coord(3) ** 2)
        assert e == expected

    def test_rational_number(self):
        assert parse_expression("1/2", CTX1) == sp.Rational(1, 2)
        assert parse_expression("-3/4", CTX1) == sp.Rational(-3, 4)

    def test_jet_tokens(self):
        assert parse_expression("dq1", CTX1) == coord_deriv(1)
        assert parse_expression("ddp1", CTX1) == momentum_deriv(1, 2)

    def test_subtraction_left_assoc(self):
        assert parse_expression("1-2-3", CTX1) == sp.Integer(-4)

    def test_power_right_assoc(self):
        assert parse_expression("2^3^2", CTX1) == sp.Integer(512)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_expression("-2^2", CTX1) == sp.Integer(-4)
        assert parse_expression("2^-2", CTX1) == sp.Rational(1, 4)

    def test_mul_before_add(self):
        assert parse_expression("2*3+4", CTX1) == sp.Integer(10)
        assert parse_expression("2+3*4", CTX1) == sp.Integer(14)

    def test_functions(self):
        assert parse_expression("arctan(p1/q1)", CTX1) == sp.atan(momentum(1) / coord(1))
        assert parse_expression("sin(t)^2", CTX1) == sp.sin(TIME) ** 2


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "q1 +", "(q1", "q1)", "1 2", "q1 q1", "@", "foo", "sqrt", "sqrt()", "bogus(q1)", "^2"],
    )
    def test_syntax_and_identifier_errors(self, text):
        with pytest.raises(ParseError) as info:
            parse_expression(text, CTX1)
        assert info.value.position >= 0

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_expression("q3", ParseContext(n=2))

    def test_zero_padded_index(self):
        with pytest.raises(ParseError):
            parse_expression("q01", CTX1)

    def test_jet_forbidden(self):
        with pytest.raises(ParseError):
            parse_expression("dq1", ParseContext(n=1, allow_jet=False))

    @pytest.mark.parametrize("text", ["ddp1", "dq01", "ddq3", "dddq1", "q0", "t1"])
    def test_jet_grammar(self, text):
        # order-2 jets are forbidden here; the rest are bad names or indices
        with pytest.raises(ParseError):
            parse_expression(text, ParseContext(n=2, allow_jet=False))

    def test_undeclared_parameter(self):
        with pytest.raises(ParseError):
            parse_expression("K*q1", CTX1)

    def test_irrational_exponent(self):
        # an exponent is a Rational as parsed or refused, never rounded to one
        for text in ("q1^p1", "q1^(exp(1/10^12))", "q1^(log(2)/log(4))"):
            with pytest.raises(ParseError, match="exponent must be a rational constant"):
                parse_expression(text, CTX1)

    def test_division_by_literal_zero(self):
        for text, message in (("1/0", "division by literal zero"), ("0^-1", "zero raised to a negative power")):
            with pytest.raises(ParseError, match=message):
                parse_expression(text, CTX1)


def _random_expression(rng: Random, depth: int = 0) -> sp.Expr:
    atoms = [
        TIME,
        coord(1),
        momentum(1),
        coord(2),
        momentum(2),
        coord_deriv(1),
        momentum_deriv(2),
        parameter("K"),
        sp.Rational(rng.randint(-9, 9), rng.randint(1, 9)),
        sp.Integer(rng.randint(-9, 9)),
    ]
    if depth >= 4 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    a = _random_expression(rng, depth + 1)
    if kind == 0:
        return a + _random_expression(rng, depth + 1)
    if kind == 1:
        return a - _random_expression(rng, depth + 1)
    if kind == 2:
        return a * _random_expression(rng, depth + 1)
    if kind == 3:
        b = _random_expression(rng, depth + 1)
        return a / b if b != 0 else a
    if kind == 4:
        exponent = rng.choice([-3, -2, -1, 2, 3, sp.Rational(1, 2), sp.Rational(3, 2)])
        if a == 0:
            return a
        candidate = a**exponent
        # sqrt of squares folds to Abs and roots of negatives go complex;
        # neither is expressible in the DSL, so fall back to the base
        if candidate.atoms(sp.Abs, sp.sign) or candidate.has(sp.I, sp.zoo, sp.nan):
            return a
        return candidate
    fn = rng.choice([sp.sin, sp.cos, sp.tan, sp.atan, sp.exp])
    candidate = fn(a)
    # applications on constants can fold to pi multiples or infinities,
    # which have no DSL spelling
    if candidate.has(sp.pi, sp.I, sp.zoo, sp.nan, sp.oo):
        return a
    return candidate


class TestFormatExpression:
    def test_documented_round_trip(self):
        ctx = ParseContext(n=1)
        e = parse_expression("p1*q1 - t*(p1^2 + 1/q1^2)", ctx)
        assert parse_expression(format_expression(e), ctx) == e

    def test_half_constant(self):
        assert format_expression(sp.Rational(1, 2)) == "1/2"

    def test_negative_power_fixed_choice(self):
        assert format_expression(coord(1) ** -3) == "q1^-3"

    def test_sqrt_fixed_choice(self):
        assert format_expression(sp.sqrt(coord(1))) == "sqrt(q1)"

    def test_round_trip_1000_random(self):
        rng = Random(2024)
        ctx = ParseContext(n=2, parameters=frozenset({"K"}))
        for k in range(1000):
            e = _random_expression(rng)
            text = format_expression(e)
            assert parse_expression(text, ctx) == e, f"case {k}: {text!r}"


class TestFuzz:
    def test_arbitrary_bytes_never_crash(self):
        rng = Random(99)
        alphabet = (
            "qp0123456789tdK+-*/^()., \t\nabcxyz#\"[]{}=_$%&!?\\'`~<>|;:\x00\x7fé☃"
        )
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            try:
                parse_expression(text, CTX3)
            except ParseError:
                pass  # the only acceptable failure mode

    @pytest.mark.parametrize(
        "text",
        ["sqrt(q1^2)", "arctan(1)*q1", "log(-1)*q1", "log(0)", "sqrt(-2)*q1", "exp(arctan(1))"]
        + ["exp(1)^2", "sqrt(exp(q1))", "cos(arctan(q1))", "log(-q1)", "tan(q1)^(3/2)"],
    )
    def test_written_form_agrees_with_the_printer(self, text):
        # parse_expression refuses exactly what format_expression cannot print
        raw = _Parser(_tokenize(text), CTX1).parse()
        try:
            format_expression(raw)
        except ValueError:
            with pytest.raises(ParseError, match="no written form: cannot format node"):
                parse_expression(text, CTX1)
        else:
            assert parse_expression(text, CTX1) == raw

    def test_a_parse_prints_nothing(self, monkeypatch):
        # printability is one walk over the node kinds, not a print
        def refuse(e):
            raise AssertionError(f"format_expression({e}) called during a parse")

        monkeypatch.setattr(hamsym.parsing, "format_expression", refuse)
        for text in EXAMPLES.values():
            parse_system_file(text)
        parse_expression("exp(1)*sin(q1)^2 + arctan(p1/q1) - log(t)/sqrt(q1)", CTX1)

    def test_non_string_input(self):
        with pytest.raises(ParseError):
            parse_expression(b"q1", CTX1)


class TestSystemFile:
    def test_example1_file(self, example1):
        assert example1.system.n == 1
        assert len(example1.symmetries) == 3
        assert example1.symmetry("X3").xi == TIME**2
        assert len(example1.relations) == 1

    def test_kepler3_file(self, kepler3):
        assert kepler3.system.n == 3
        assert kepler3.system.parameters == {"K": sp.Integer(1)}
        assert len(kepler3.symmetries) == 8
        assert kepler3.symmetry("Y1").v is not None

    def test_registry_round_trip(self):
        for text in EXAMPLES.values():
            parse_system_file(text)  # must not raise

    def test_missing_hamiltonian(self):
        with pytest.raises(SchemaError):
            parse_system_file("[system]\nn = 1\n")

    def test_missing_system_section(self):
        with pytest.raises(SchemaError):
            parse_system_file('[[symmetry]]\nname = "X"\n')

    def test_bad_dimension(self):
        with pytest.raises(SchemaError):
            parse_system_file('[system]\nn = 0\nhamiltonian = "1"\n')

    def test_eta_length_mismatch(self):
        text = (
            '[system]\nn = 2\nhamiltonian = "p1^2 + p2^2"\n'
            '[[symmetry]]\nname = "X"\nxi = "0"\neta = ["q1"]\nzeta = ["0", "0"]\n'
        )
        with pytest.raises(SchemaError) as info:
            parse_system_file(text)
        assert "eta" in str(info.value)

    def test_duplicate_symmetry_name(self):
        text = (
            '[system]\nn = 1\nhamiltonian = "p1^2"\n'
            '[[symmetry]]\nname = "X"\nxi = "0"\neta = ["0"]\nzeta = ["0"]\n'
            '[[symmetry]]\nname = "X"\nxi = "1"\neta = ["0"]\nzeta = ["0"]\n'
        )
        with pytest.raises(SchemaError):
            parse_system_file(text)

    def test_jet_symbols_rejected_in_hamiltonian(self):
        with pytest.raises(SchemaError):
            parse_system_file('[system]\nn = 1\nhamiltonian = "dq1"\n')

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            parse_system_file('[system]\nn = 1\nhamiltonian = "p1^2"\nextra = 3\n')

    def test_relation_over_symmetry_names(self):
        text = (
            '[system]\nn = 1\nhamiltonian = "p1^2/2"\n'
            '[[symmetry]]\nname = "A"\nxi = "1"\neta = ["0"]\nzeta = ["0"]\n'
            '[[relation]]\nname = "r"\nexpr = "A^2"\nequals = 1/4\n'
        )
        defn = parse_system_file(text)
        assert defn.relations[0].equals == sp.Rational(1, 4)

    def test_relation_unknown_name(self):
        text = (
            '[system]\nn = 1\nhamiltonian = "p1^2/2"\n'
            '[[relation]]\nname = "r"\nexpr = "B^2"\nequals = 1\n'
        )
        with pytest.raises(SchemaError):
            parse_system_file(text)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n[system]\n# inner\nn = 1\nhamiltonian = \"p1^2\"\n"
        assert parse_system_file(text).system.n == 1
        # trailing comments on scalar, string, list and inline-table lines;
        # a '#' inside a quoted string is kept
        text = (
            "[system]  # the system\n"
            "n = 1  # one degree of freedom\n"
            'hamiltonian = "p1^2/2 + K/q1"  # K is a parameter\n'
            "parameters = { K = 1/2 }  # rational value\n"
            'singularities = ["q1"]  # the pole\n'
            "[[symmetry]]\n"
            'name = "X#1"  # the time shift\n'
            'xi = "1"\neta = ["0"]\nzeta = ["0"]\n'
        )
        defn = parse_system_file(text)
        assert defn.system.n == 1
        assert defn.system.parameters == {"K": sp.Rational(1, 2)}
        assert defn.system.singularities == (coord(1),)
        assert defn.symmetries[0].name == "X#1"

    def test_empty_list_and_table(self):
        defn = parse_system_file('[system]\nn = 1\nhamiltonian = "p1^2"\nsingularities = []\nparameters = {}\n')
        assert (defn.system.singularities, defn.system.parameters) == ((), {})

    def test_reserved_parameter_name(self):
        with pytest.raises(SchemaError):
            parse_system_file('[system]\nn = 1\nhamiltonian = "p1^2"\nparameters = { t = 1 }\n')

    @pytest.mark.parametrize(
        "text, path, message",
        [
            ('[system]\nn = 1\nhamiltonian = "p1^2\n', "system.hamiltonian", "unterminated string"),
            ('[system]\nn = 1\nhamiltonian = "p1^2"\nsingularities = ["q1"\n', "system.singularities", "unterminated list"),
            ('[system]\nn = 1\nhamiltonian = "p1^2"\nparameters = { K = 1\n', "system.parameters", "unterminated table"),
            ('[system]\nn = 1\nhamiltonian = "p1^2"\nsingularities = [q1]\n', "system.singularities", "must be quoted strings"),
            ('[system]\nn = 1\nhamiltonian = "p1^2"\nparameters = { 1 }\n', "system.parameters", "bad table entry"),
            # a bracket nests: the whole inner table is one entry's value
            (
                '[system]\nn = 1\nhamiltonian = "p1^2"\nparameters = { K = 1, M = { a = 1, b = 2 } }\n',
                "system.parameters.M",
                "expected integer or rational, found '{ a = 1, b = 2 }'",
            ),
            ('[system]\nn = x\nhamiltonian = "p1^2"\n', "system.n", "expected integer or rational"),
            ('[system]\nn = 1\nhamiltonian = "p1^2"\nwhat\n', "file", "cannot parse line 4"),
            ('n = 1\n[system]\nhamiltonian = "p1^2"\n', "file", "key outside any section at line 1"),
            ('[system]\nn = 1\nn = 1\nhamiltonian = "p1^2"\n', "system", "duplicate key 'n'"),
            ("[system]\nn = 1\nhamiltonian = 1\n", "system.hamiltonian", "expected a quoted expression"),
            ('[system]\nn = 1\nhamiltonian = "p1^2"\nparameters = ["K"]\n', "system.parameters", "inline table"),
            ('[system]\nn = 1\nhamiltonian = "p1^2"\nsingularities = "q1"\n', "system.singularities", "must be a list"),
            (
                '[system]\nn = 1\nhamiltonian = "p1^2"\n[[symmetry]]\nname = 1\nxi = "1"\neta = ["0"]\nzeta = ["0"]\n',
                "symmetry[0].name",
                "name must be a string",
            ),
            (
                '[system]\nn = 1\nhamiltonian = "p1^2"\n[[symmetry]]\nname = "A"\nxi = "1"\neta = ["0"]\nzeta = ["0"]\n'
                '[[relation]]\nname = "r"\nexpr = "A"\nequals = "1"\n',
                "relation[0].equals",
                "equals must be a rational constant",
            ),
            ('[system]\nn = 1\nhamiltonian = "p1^2"\n[other]\n', "section #1", "unexpected section [other]"),
            *(
                (
                    '[system]\nn = 1\nhamiltonian = "p1^2"\nparameters = { K = 1 }\n'
                    f'[[symmetry]]\nname = "{name}"\nxi = "1"\neta = ["0"]\nzeta = ["0"]\n{relation}',
                    "symmetry[0].name",
                    f"symmetry name {name!r} collides with a {clash}",
                )
                for name, clash in (("K", "parameter"), ("t", "reserved token"))
                for relation in ("", f'[[relation]]\nname = "r"\nexpr = "{name}"\n')
            ),
        ],
        ids=[
            "unterminated-string",
            "unterminated-list",
            "unterminated-table",
            "unquoted-list-item",
            "bad-table-entry",
            "nested-table",
            "not-rational",
            "unparsable-line",
            "key-outside-section",
            "duplicate-key",
            "non-string-expression",
            "parameters-not-table",
            "singularities-not-list",
            "non-string-name",
            "equals-not-rational",
            "unexpected-section",
            "name-is-parameter",
            "name-is-parameter-in-relation",
            "name-is-t",
            "name-is-t-in-relation",
        ],
    )
    def test_schema_errors(self, text, path, message):
        # each malformed file is refused by its own rule, named at its path
        with pytest.raises(SchemaError) as info:
            parse_system_file(text)
        assert info.value.path == path and message in str(info.value)

    @pytest.mark.parametrize(
        "text, path",
        [
            ('[system]\nn = 1\nhamiltonian = "K*p1^2"\nparameters = { K = 1/0 }\n', "system.parameters.K"),
            (
                '[system]\nn = 1\nhamiltonian = "p1^2/2"\n'
                '[[symmetry]]\nname = "A"\nxi = "1"\neta = ["0"]\nzeta = ["0"]\n'
                '[[relation]]\nname = "r"\nexpr = "A"\nequals = 1/0\n',
                "relation.equals",
            ),
        ],
        ids=["parameter", "equals"],
    )
    def test_zero_denominator(self, text, path):
        with pytest.raises(SchemaError) as info:
            parse_system_file(text)
        assert info.value.path == path and "zero denominator" in str(info.value)
