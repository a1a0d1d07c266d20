"""System model: parsing, the F/H split, term classification, the input
check, round trips."""
import pytest

from fraclie import (DslSemanticError, DslSyntaxError, Jet, Rat, Sym, Var, ZERO,
                     add, classify_terms, expand, mul, neg,
                     parse_system, pow_, simplify, validate_system)
from fraclie.lemmas import (emit_dsl, jet_coefficients_of_whole_rhs,
                            rhs_partials_of_whole_rhs)
from fraclie.model import make_system, Signature
from conftest import DEMOS, HS_SRC, TELE_SRC, ZK_SRC


class TestParse:
    def test_zk(self, zk):
        assert zk.p == 2 and zk.q == 1 and zk.k == 3
        sig = zk.sig
        u, ux = sig.u(0), sig.u(0, (1, 0))
        uxxx, uxyy = sig.u(0, (3, 0)), sig.u(0, (1, 2))
        n_form = pow_(u, simplify(Sym("n")))
        want_f = add(neg(mul(n_form, ux)), neg(uxxx), neg(uxyy))
        assert zk.F[0] == simplify(want_f)
        assert zk.H[0] == ZERO

    def test_telegraph(self, tele):
        assert tele.q == 2
        sig = tele.sig
        assert tele.F[0] == sig.u(1, (1,))
        assert tele.H == (ZERO, ZERO)

    def test_pure_source_term(self):
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = Dx(u) + t*x;")
        sig = sys.sig
        assert sys.F[0] == sig.u(0, (1,))
        assert sys.H[0] == mul(sig.t, sig.x(0))

    def test_syntax_error_carries_position(self):
        with pytest.raises(DslSyntaxError) as ei:
            parse_system("alpha a; space x; dep u;\nDt^a(u) = $;")
        assert ei.value.line == 2

    def test_undeclared_symbol(self):
        with pytest.raises(DslSemanticError):
            parse_system("alpha a; space x; dep u; Dt^a(u) = m*Dx(u);")

    def test_t_derivative_on_rhs_rejected(self):
        with pytest.raises(DslSemanticError):
            parse_system("alpha a; space x; dep u; Dt^a(u) = Dt^1(u);")

    def test_alpha_out_of_range(self):
        with pytest.raises(DslSemanticError):
            parse_system("alpha 3/2; space x; dep u; Dt^a(u) = Dx(u);")

    def test_rational_alpha_accepted(self):
        from fractions import Fraction
        sys = parse_system("alpha 1/2; space x; dep u; Dt^alpha(u) = Dx(u);")
        assert sys.alpha == Rat(Fraction(1, 2))

    def test_missing_equation(self):
        with pytest.raises(DslSemanticError):
            parse_system("alpha a; space x; dep u, v; Dt^a(u) = Dx(v);")

    def test_duplicate_equation(self):
        with pytest.raises(DslSemanticError):
            parse_system("alpha a; space x; dep u; "
                         "Dt^a(u) = Dx(u); Dt^a(u) = 2*Dx(u);")

    def test_reserved_and_duplicate_names(self):
        with pytest.raises(DslSemanticError):
            parse_system("alpha a; space t; dep u; Dt^a(u) = Dt(u);")
        with pytest.raises(DslSemanticError):
            parse_system("alpha a; space x; dep x; Dt^a(x) = Dx(x);")

    def test_fn_argument_must_be_dependent(self):
        with pytest.raises(DslSemanticError):
            parse_system("alpha a; space x; dep u; fn P(x); "
                         "Dt^a(u) = P(x)*Dx(u);")

    def test_non_affine_exponent_rejected(self):
        with pytest.raises(DslSemanticError):
            parse_system("alpha a; space x; dep u; Dt^a(u) = Dx(u)^(u);")

    def test_trailing_garbage(self):
        with pytest.raises(DslSyntaxError):
            parse_system("alpha a; space x; dep u; Dt^a(u) = Dx(u); )")


class TestRoundTrip:
    @pytest.mark.parametrize("src", [ZK_SRC, HS_SRC, TELE_SRC])
    def test_emit_parse_round_trip(self, src):
        sys1 = parse_system(src)
        text = emit_dsl(sys1)
        sys2 = parse_system(text)
        assert sys2.sig == sys1.sig
        assert sys2.F == sys1.F
        assert sys2.H == sys1.H

    @pytest.mark.parametrize("src", [ZK_SRC, HS_SRC, TELE_SRC])
    def test_split_is_exact(self, src):
        sys = parse_system(src)
        for s in range(sys.q):
            back = simplify(expand(add(sys.F[s], sys.H[s])))
            assert back == simplify(expand(sys.rhs(s)))


class TestClassify:
    def test_zk_sets(self, zk):
        cl = classify_terms(zk)
        sig = zk.sig
        jets = {j.jet for j in cl.j_terms[0]}
        assert jets == {sig.u(0, (3, 0)), sig.u(0, (1, 2))}
        assert all(j.coeff == Rat(-1) for j in cl.j_terms[0])
        assert len(cl.rest[0]) == 1  # the u^n u_x term

    def test_hs_sets(self, hs):
        cl = classify_terms(hs)
        sig = hs.sig
        assert {j.jet for j in cl.j_terms[0]} == {sig.u(0, (3,))}
        assert len(cl.rest[0]) == 2  # u u_x and v v_x
        assert {j.jet for j in cl.j_terms[1]} == {sig.u(1, (3,))}

    def test_fully_linear(self):
        sys = parse_system("alpha a; space x; dep u; Dt^a(u) = 3*Dx(u);")
        cl = classify_terms(sys)
        assert len(cl.j_terms[0]) == 1 and not cl.rest[0]
        assert cl.j_terms[0][0].coeff == Rat(3)

    def test_zero_order_linear_term_is_j(self, tele_pow):
        cl = classify_terms(tele_pow)
        sig = tele_pow.sig
        assert {j.jet for j in cl.j_terms[1]} == {sig.u(0)}

    def test_opaque_function_terms_go_to_rest(self, tele):
        cl = classify_terms(tele)
        assert not cl.j_terms[1]
        assert len(cl.rest[1]) == 2

    def test_partition_reconstructs(self, zk, hs, tele):
        for sys in (zk, hs, tele):
            cl = classify_terms(sys)
            for s in range(sys.q):
                total = add(*[j.term() for j in cl.j_terms[s]], *cl.rest[s])
                assert simplify(expand(total - sys.F[s])) == ZERO


class TestValidate:
    """validate_system is the one input check, run by parse_system, which
    raises each problem at the declaration or token it is about."""

    def test_zk_clean(self, zk):
        assert validate_system(zk) == []

    def test_missing_space_coupling(self):
        sig = Signature(alpha_name="a", space_names=("x", "y"), dep_names=("u",))
        sys = make_system(sig, [sig.u(0, (1, 0))])
        assert validate_system(sys) == [
            ("y", "no equation differentiates any dependent in 'y'")]
        with pytest.raises(DslSemanticError) as exc:
            parse_system("alpha a;\nspace x, y;\ndep u;\nDt^a(u) = Dx(u);")
        assert (exc.value.line, exc.value.col) == (2, 10)
        assert str(exc.value) == ("semantic error at 2:10: no equation "
                                  "differentiates any dependent in 'y'")

    def test_time_derivative_on_rhs(self):
        with pytest.raises(DslSemanticError) as exc:
            parse_system("alpha a; space x; dep u;\nDt^a(u) = Dx(u) + Dt(Dx(u));")
        assert (exc.value.line, exc.value.col) == (2, 19)
        assert "t-derivatives may not appear" in str(exc.value)

    def test_alpha_out_of_range_diagnostic(self):
        with pytest.raises(DslSemanticError) as exc:
            parse_system("space x; dep u;\nalpha 2; Dt^alpha(u) = Dx(u);")
        assert (exc.value.line, exc.value.col) == (2, 7)
        assert "outside (0,1)" in str(exc.value)

    def test_one_assumptions_object_per_signature(self, zk):
        assert zk.assumptions() is zk.assumptions()
        assert zk.assumptions() is zk.sig.assumptions()
        assert zk.assumptions().is_declared_nonzero("n")


_ROOT = DEMOS.parent
SYSTEM_FILES = sorted([*(_ROOT / "demos").glob("*.fpde"),
                       *(_ROOT / "tests" / "corpus").glob("*.fpde"),
                       *(_ROOT / "perfbench" / "inputs").glob("*.fpde")])


def _keyed(facts):
    """A nested tuple of facts with every expression replaced by its key."""
    if isinstance(facts, (tuple, list)):
        return tuple(_keyed(f) for f in facts)
    return facts.key()


class TestSystemFacts:
    """The facts the invariance condition reads come from the fragments of
    rhs_s; the route through the whole rhs (fraclie.lemmas) is the
    reference, key for key."""

    def test_all_systems_are_read(self):
        assert len(SYSTEM_FILES) == 25

    @pytest.mark.parametrize("path", SYSTEM_FILES, ids=lambda p: p.stem)
    def test_rhs_partials_equal_the_whole_rhs_route(self, path):
        sys = parse_system(path.read_text())
        assert _keyed(sys.rhs_partials) == _keyed(rhs_partials_of_whole_rhs(sys))

    @pytest.mark.parametrize("path", SYSTEM_FILES, ids=lambda p: p.stem)
    def test_jet_coefficients_equal_the_whole_rhs_route(self, path):
        sys = parse_system(path.read_text())
        assert _keyed(sys.jet_coefficients) \
            == _keyed(jet_coefficients_of_whole_rhs(sys))

    def test_a_variable_inside_a_jet_monomial(self):
        # (x + u)^(1/2) holds x with the jet: that fragment is
        # differentiated whole
        sys = parse_system("alpha a; space x; dep u;"
                           " Dt^a(u) = t*(x + u)^(1/2)*Dx(u) + x^2*Dx(u);")
        assert _keyed(sys.rhs_partials) == _keyed(rhs_partials_of_whole_rhs(sys))
        assert _keyed(sys.jet_coefficients) \
            == _keyed(jet_coefficients_of_whole_rhs(sys))


class TestSignatureNodes:
    """t, x(i), space(name) and the plain u(s) are built once per
    signature, and equal freshly built nodes."""

    def test_equal_to_fresh_nodes(self):
        sig = Signature("a", ("x", "y"), ("u", "v"))
        assert sig.t == Var("t", -1) and sig.t.key() == Var("t", -1).key()
        for i, name in enumerate(sig.space_names):
            assert sig.x(i) == Var(name, i)
            assert sig.space(name) == Var(name, i)
        for s, name in enumerate(sig.dep_names):
            assert sig.u(s) == Jet(s, (0, 0))
            assert sig.dep(name) == Jet(s, (0, 0))

    def test_built_once(self):
        sig = Signature("a", ("x",), ("u",))
        assert sig.t is sig.t
        assert sig.x(0) is sig.x(0) and sig.space("x") is sig.x(0)
        assert sig.u(0) is sig.u(0) and sig.dep("u") is sig.u(0)

    def test_jets_with_orders_are_built_fresh(self):
        sig = Signature("a", ("x", "y"), ("u",))
        assert sig.u(0, (1,)) == Jet(0, (1, 0))
        assert sig.u(0, (), 1) == Jet(0, (0, 0), 1)
        assert sig.u(0, (), 0, 2) == Jet(0, (0, 0), 0, 2)

    def test_equal_signatures_stay_equal(self):
        a = Signature("a", ("x",), ("u",))
        b = Signature("a", ("x",), ("u",))
        a.t, a.x(0), a.u(0)
        assert a == b and hash(a) == hash(b)
