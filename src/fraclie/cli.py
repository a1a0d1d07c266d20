"""Command-line interface.

    fraclie analyze FILE [--poly-degree N] [--h-template EXPR]...
                        [--branch both|zero]
                        [--verify-generator FILE] [--reduce]
                        [--emit text|json|latex] [--oracle-check]

Exit codes: 0 success with a nonempty point-symmetry basis, 2 success with an
empty one (shift-only or no symmetries), 1 error.
"""
from __future__ import annotations

import argparse
import sys as _sys

from .report import PipelineConfig, emit, run_pipeline


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fraclie",
                                 description="Lie point symmetries of systems "
                                 "of multi-dimensional time-fractional PDEs")
    sub = ap.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="run the full symmetry pipeline")
    an.add_argument("file", help="input system in the .fpde language")
    an.add_argument("--poly-degree", type=int, default=3,
                    help="polynomial degree for unknown x-functions (default 3)")
    an.add_argument("--h-template", action="append", default=[],
                    metavar="EXPR",
                    help="extra closed-form template for the h parts, added to "
                    "the default library; repeatable")
    an.add_argument("--branch", choices=("both", "zero"), default="both",
                    help="both: every generator, chi2 free; zero: only those "
                    "with chi2 = 0, a subspace of the same solution "
                    "(default both)")
    an.add_argument("--verify-generator", metavar="FILE",
                    help="verify a concrete generator file instead of trusting "
                    "the basis alone")
    an.add_argument("--reduce", action="store_true",
                    help="emit symmetry reductions for translation and scaling "
                    "generators")
    an.add_argument("--emit", choices=("text", "json", "latex"), default="text")
    an.add_argument("--oracle-check", action="store_true",
                    help="cross-check the power rule against the numeric oracle")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
        gen_text = None
        if args.verify_generator:
            with open(args.verify_generator, "r", encoding="utf-8") as fh:
                gen_text = fh.read()
        cfg = PipelineConfig(poly_degree=args.poly_degree,
                             h_templates=tuple(args.h_template),
                             branch=args.branch,
                             reduce=args.reduce,
                             oracle_check=args.oracle_check,
                             verify_generator_text=gen_text)
        report = run_pipeline(source, cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    _sys.stdout.buffer.write(emit(report, args.emit))
    _sys.stdout.buffer.flush()
    checks_ok = all(bool(c.get("pass", c.get("ok", True)))
                    for c in report.checks.values())
    if not checks_ok:
        return 1
    return 0 if report.basis.dimension > 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
