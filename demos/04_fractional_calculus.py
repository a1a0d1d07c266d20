"""Walkthrough: the closed-form Riemann-Liouville toolkit and its numeric
cross-check.

Power rule, generalized binomials, the Leibniz expansion (exact when the
polynomial factor terminates the series), the truncated series form, and the
two oracle paths.
"""
from fractions import Fraction

from fraclie import (Assumptions, ExponentForm, PowerSum, Sym, Var, ONE,
                     evaluate, numeric_rl_oracle, render, rl_derivative)
from fraclie.lemmas import gen_binomial, leibniz_expand, rl_series_truncated

F = Fraction
t = Var("t", -1)
a = Sym("a")
ASM = Assumptions("a")


def main():
    print("generalized binomial coefficients C(a, k):")
    for k in range(5):
        print(f"   k={k}:", render(gen_binomial(a, k)))

    print("\npower rule:")
    for g in (F(2), F(1, 2), F(-1, 2)):
        got = rl_derivative(Var("t", -1) ** ExponentForm.rational(g), F(1, 2),
                            tvar=t)
        print(f"   Dt^(1/2) t^({g}) =", render(got.to_expr()))

    print("\nsymbolic order, exponent a-1 sits in the kernel of Dt^a:")
    ta1 = t ** (ExponentForm.symbol("a") - ExponentForm.rational(1))
    print("   Dt^a t^(a-1) =",
          render(rl_derivative(ta1, a, tvar=t, assumptions=ASM).to_expr()))

    print("\nLeibniz expansion terminates for polynomial left factors:")
    lhs = leibniz_expand(t ** ExponentForm.rational(2),
                         t ** ExponentForm.rational(3), F(1, 2), 2, tvar=t)
    rhs = rl_derivative(t ** ExponentForm.rational(5), F(1, 2), tvar=t)
    print("   sum_k C(1/2,k) Dt^k(t^2) Dt^(1/2-k)(t^3) =", render(lhs))
    print("   Dt^(1/2) t^5                             =", render(rhs.to_expr()))

    print("\ntruncated series form (test fixture):")
    print("   K=0, e=1:", render(rl_series_truncated(ONE, a, 0, tvar=t,
                                                     assumptions=ASM)))

    print("\nnumeric oracle vs closed form at (gamma, alpha, t) = (2, 1/2, 1):")
    ps = PowerSum.build(t, [(ONE, ExponentForm.rational(2))])
    closed = evaluate(rl_derivative(ps, F(1, 2)).to_expr(), {"t": 1.0})
    gj = numeric_rl_oracle(ps, F(1, 2), [1.0])
    gl = numeric_rl_oracle(lambda s: s * s, F(1, 2), [1.0])
    print(f"   closed form        : {closed:.12f}")
    print(f"   Gauss-Jacobi path  : {gj.values[0]:.12f}  (est err {gj.errors[0]:.1e})")
    print(f"   Grunwald-Letnikov  : {gl.values[0]:.12f}  (est err {gl.errors[0]:.1e})")


if __name__ == "__main__":
    main()
