"""Walkthrough: time-fractional Hirota-Satsuma coupled KdV system.

    Dt^a(u) = u u_x + v v_x + u_xxx
    Dt^a(v) = -u v_x - 2 v_xxx

Determining system, exact basis, translation reduction and a closed-form
solution check.
"""
import pathlib

from fraclie import (ExponentForm, Sym, parse_system, pow_, render,
                     scaling_similarity, solve_system, translation_reduction,
                     verify_exact_solution)

HERE = pathlib.Path(__file__).resolve().parent


def main():
    sys = parse_system((HERE / "hs.fpde").read_text())
    sig = sys.sig
    ds, basis = solve_system(sys)

    print("reduced determining system:")
    for eq in ds.reduced():
        print("  ", render(eq, sig), "= 0")

    print(f"\nbasis (dimension {basis.dimension}):")
    for g in basis.generators:
        print("   X =", g.describe())

    dx = next(g for g in basis.generators if g.tau == sys.F[0] * 0 != g.xi[0])
    red = translation_reduction(sys, dx)
    print("\ntranslation reduction by d/dx:")
    for s, d in enumerate(red.system.sig.dep_names):
        print(f"   Dt^a({d}) =", render(red.system.rhs[s], red.system.sig))
    print("   solving the reduced pair gives u = C1 t^(a-1), v = C2 t^(a-1)")

    af = ExponentForm.symbol("a")
    ta1 = pow_(sig.t, af - ExponentForm.rational(1))
    sol = [Sym("C1") * ta1, Sym("C2") * ta1]
    residuals = verify_exact_solution(sys, sol)
    print("   residuals of that pair:", [render(r, sig) for r in residuals])

    scaling = next(g for g in basis.generators if g.tau != sys.F[0] * 0)
    ek = scaling_similarity(scaling, sys.alpha)
    print("\nscaling reduction metadata:")
    for line in ek.describe():
        print("  ", line)


if __name__ == "__main__":
    main()
