"""Walkthrough: time-fractional generalized Zakharov-Kuznetsov equation.

    Dt^a(u) + u^n u_x + u_xxx + u_xyy = 0,   0 < a < 1,  n != 0

Builds the structured ansatz, separates the determining conditions, solves
them exactly, and reduces by each admitted generator.
"""
import pathlib

from fraclie import (NotScaling, NotTranslation, PipelineConfig, parse_system,
                     render, run_pipeline, scaling_similarity, solve_system,
                     translation_reduction)

HERE = pathlib.Path(__file__).resolve().parent
SRC = (HERE / "zk.fpde").read_text()


def main():
    sys = parse_system(SRC)
    sig = sys.sig
    print("system:")
    print("  Dt^a(u) =", render(sys.rhs[0], sig))

    ds, basis = solve_system(sys)

    print("\nseparated determining system (one equation per jet monomial):")
    for eq in ds.integer_eqs:
        print("  ", render(eq, sig), "= 0")
    print("\nafter propagating forced zeros:")
    for eq in ds.reduced():
        print("  ", render(eq, sig), "= 0")
    print("\nfractional condition on the inhomogeneous part:")
    for eq in ds.frac_eqs:
        print("  ", render(eq, sig), "= 0")

    print(f"\npoint-symmetry basis (dimension {basis.dimension}):")
    for g in basis.generators:
        print("   X =", g.describe())

    print("\nreductions:")
    for g in basis.generators:
        try:
            red = translation_reduction(sys, g)
        except NotTranslation:
            pass
        else:
            print(f"   translation d/d{red.removed}:")
            for s, d in enumerate(red.system.sig.dep_names):
                print(f"     Dt^a({d}) =", render(red.system.rhs[s], red.system.sig))
            continue
        try:
            ek = scaling_similarity(g, sys.alpha)
        except NotScaling:
            continue
        print("   scaling generator gives similarity variables:")
        for line in ek.describe():
            print("     ", line)

    # full pipeline + deterministic JSON, as the CLI would produce
    report = run_pipeline(SRC, PipelineConfig(reduce=True))
    print(f"\npipeline done in {report.elapsed:.2f}s; assumptions recorded:")
    for a in report.basis.assumptions:
        print("   -", a)


if __name__ == "__main__":
    main()
