"""Reports, emission determinism, CLI surface and exit codes."""
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import fraclie
from fraclie import (DslSemanticError, PipelineConfig, Sym, emit, mul,
                     parse_expression, parse_system, run_pipeline)
from conftest import DEMOS, TELE_POW_GEN, ZK_SRC

NO_SYMMETRY_SRC = "alpha a; space x; dep u; Dt^a(u) = Dx(u) + x*u^3 + u^2 + u^4;"
REFERENCE_JSON = DEMOS.parent / "perfbench" / "reference" / "demos"
ORACLE_CHECK_JSON = pathlib.Path(__file__).resolve().parent / "zk_oracle_check.json"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "fraclie.cli", *args],
                          capture_output=True, text=True, cwd=cwd or str(DEMOS.parent))


class TestReport:
    def test_json_schema_keys(self, zk):
        r = run_pipeline(ZK_SRC)
        payload = json.loads(emit(r, "json"))
        assert payload["schema"] == 1
        assert set(payload) == {"schema", "system", "determining", "assumptions",
                                "basis", "reductions", "checks"}
        assert payload["basis"]["dimension"] == 3
        assert len(payload["basis"]["generators"]) == 3
        assert all(g["residuals_zero"] for g in payload["basis"]["generators"])

    def test_json_byte_identical_across_runs(self):
        r1 = run_pipeline(ZK_SRC, PipelineConfig(reduce=True))
        r2 = run_pipeline(ZK_SRC, PipelineConfig(reduce=True))
        assert emit(r1, "json") == emit(r2, "json")

    def test_empty_basis_serializes(self):
        r = run_pipeline(NO_SYMMETRY_SRC)
        payload = json.loads(emit(r, "json"))
        assert payload["basis"]["generators"] == []

    def test_same_report_emitted_twice_is_identical(self):
        r = run_pipeline(ZK_SRC)
        assert emit(r, "json") == emit(r, "json")
        assert emit(r, "latex") == emit(r, "latex")

    def test_text_contains_sections(self):
        r = run_pipeline(ZK_SRC)
        text = emit(r, "text").decode()
        for section in ("== system ==", "== determining system", "== basis",
                        "elapsed:"):
            assert section in text

    def test_latex_standalone(self):
        r = run_pipeline(ZK_SRC)
        tex = emit(r, "latex").decode()
        assert tex.startswith("\\documentclass")
        assert tex.rstrip().endswith("\\end{document}")

    def test_reductions_present(self):
        r = run_pipeline(ZK_SRC, PipelineConfig(reduce=True))
        kinds = sorted(red["type"] for red in r.reductions)
        assert kinds == ["scaling", "translation", "translation"]

    def test_verify_generator_check(self, tele_pow):
        src = (DEMOS / "telegraph_power.fpde").read_text()
        r = run_pipeline(src, PipelineConfig(verify_generator_text=TELE_POW_GEN))
        assert r.checks["verify_generator"]["ok"] is True

    def test_oracle_check(self):
        r = run_pipeline(ZK_SRC, PipelineConfig(oracle_check=True))
        assert r.checks["oracle"]["pass"] is True
        assert r.checks["oracle"]["worst_abs_error"] < 1e-8

    def test_oracle_check_evaluates_the_symbolic_power_rule(self, monkeypatch):
        # a power rule off by a factor 2 fails the check, whatever the oracle
        import fraclie.report as report
        doubled = lambda *args, **kw: fraclie.PowerSum(
            kw["tvar"], tuple((mul(2, c), g) for c, g in
                              fraclie.rl_derivative(*args, **kw).terms))
        monkeypatch.setattr(report, "rl_derivative", doubled)
        oracle = run_pipeline(ZK_SRC, PipelineConfig(oracle_check=True)).checks["oracle"]
        assert oracle["pass"] is False and oracle["worst_abs_error"] > 0.1

    def test_custom_h_templates(self):
        r = run_pipeline(ZK_SRC, PipelineConfig(h_templates=("t^(a-1)", "1")))
        assert r.basis.dimension == 3

    @pytest.mark.parametrize("template", ["u", "Dx(u)", "t*u"])
    def test_h_template_mentioning_a_dependent_is_refused(self, template):
        # h_s is a function of t and the space variables
        with pytest.raises(DslSemanticError,
                           match=f"h-template '{re.escape(template)}' mentions "
                           "a dependent"):
            run_pipeline(ZK_SRC, PipelineConfig(h_templates=("1", template)))


class TestCli:
    def test_analyze_zk_exit_zero(self):
        out = run_cli("analyze", "demos/zk.fpde", "--emit", "json")
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["basis"]["dimension"] == 3

    def test_exit_two_on_trivial_basis(self, tmp_path):
        f = tmp_path / "nosym.fpde"
        f.write_text(NO_SYMMETRY_SRC)
        out = run_cli("analyze", str(f))
        assert out.returncode == 2, out.stdout + out.stderr

    def test_exit_one_on_error(self, tmp_path):
        f = tmp_path / "bad.fpde"
        f.write_text("alpha a; space x; dep u; Dt^a(u) = ;")
        out = run_cli("analyze", str(f))
        assert out.returncode == 1
        assert "error" in out.stderr

    def test_division_by_zero_is_a_located_error(self, tmp_path):
        f = tmp_path / "div0.fpde"
        f.write_text("alpha a; space x; dep u;\nDt^a(u) = u^(1/0);\n")
        out = run_cli("analyze", str(f))
        assert out.returncode == 1
        assert out.stderr == "error: semantic error at 2:16: division by zero\n"
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("src,message", [
        ((DEMOS.parent / "tests" / "corpus" / "transport.fpde").read_text()
         .replace("space x;\n", "space x;\nspace y;\n"),
         "4:7: no equation differentiates any dependent in 'y'"),
        ("alpha a; space x; dep u;\nfn P(x);\nDt^a(u) = P(u)*Dx(u);\n",
         "2:6: fn P argument 'x' is not a dependent"),
        ("alpha a; space x;\ndep u, v;\nDt^a(u) = Dx(u);\n",
         "2:8: missing equation(s) for v"),
    ], ids=["uncoupled_space_variable", "fn_argument", "missing_equation"])
    def test_system_checks_are_located_errors(self, tmp_path, src, message):
        f = tmp_path / "bad.fpde"
        f.write_text(src)
        out = run_cli("analyze", str(f))
        assert out.returncode == 1
        assert out.stderr == f"error: semantic error at {message}\n"

    @pytest.mark.parametrize("power", ["0^(-1)", "0^(a-1)"])
    def test_zero_to_a_negative_power_is_a_located_error(self, tmp_path, power):
        f = tmp_path / "zero_base.fpde"
        f.write_text(f"alpha a; space x; dep u;\nDt^a(u) = Dx(u) + {power}*x;\n")
        out = run_cli("analyze", str(f))
        assert out.returncode == 1
        assert out.stderr == ("error: semantic error at 2:19: zero to the power "
                              f"{power[3:-1]}\n")

    @pytest.mark.parametrize("power", ["0^2", "0^(1/2)"])
    def test_zero_to_a_positive_power_is_zero(self, power):
        src = f"alpha a; space x; dep u;\nDt^a(u) = Dx(u) + {power}*x;\n"
        plain = "alpha a; space x; dep u;\nDt^a(u) = Dx(u);\n"
        assert parse_system(src).F == parse_system(plain).F
        assert parse_system(src).H == parse_system(plain).H

    @pytest.mark.parametrize("name, src, where", [
        ("xi", "alpha a; space x; dep u;\nparam xi nonzero;\n"
         "Dt^a(u) = Dx^2(u) + xi*u;\n", "2:7"),
        ("psi", "alpha a; dep u;\nspace x, psi;\n"
         "Dt^a(u) = Dx^2(u) + Dpsi^2(u);\n", "2:10"),
        ("g", "alpha a; space x; dep u;\nfn g(u);\n"
         "Dt^a(u) = Dx^2(u) + g(u);\n", "2:4"),
        ("h", "space x; dep u;\nalpha h;\nDt^h(u) = Dx^2(u);\n", "2:7"),
        ("f1", "alpha a; space x;\ndep u, f1;\n"
         "Dt^a(u) = Dx^2(u); Dt^a(f1) = Dx(u);\n", "2:8"),
        ("gamma", "alpha a; space x; dep u;\nparam gamma nonzero;\n"
         "Dt^a(u) = Dx^2(u) + gamma*u*Dx(u);\n", "2:7"),
        ("chi1", "alpha a; space x; dep u;\nparam chi1;\n"
         "Dt^a(u) = Dx^2(u) + chi1*u*Dx(u);\n", "2:7"),
        ("chi2", "alpha a; dep u;\nspace chi2;\nDt^a(u) = Dchi2^2(u);\n", "2:7"),
    ])
    def test_names_of_generator_unknowns_are_rejected(self, tmp_path, name,
                                                      src, where):
        f = tmp_path / "clash.fpde"
        f.write_text(src)
        out = run_cli("analyze", str(f))
        assert out.returncode == 1
        assert out.stderr == (f"error: semantic error at {where}: {name!r} "
                              "names an unknown of the symmetry generator\n")

    @pytest.mark.parametrize("name,src,where", [
        ("Dx", "alpha a; space x;\nfn Dx(u); dep u;\n"
         "Dt^a(u) = Dx^2(u);\n", "2:4"),
        ("Dx", "alpha a; space x;\ndep Dx;\n"
         "Dt^a(Dx) = Dx^2(Dx);\n", "2:5"),
        ("Dx", "alpha a; space x; dep u;\nparam Dx;\n"
         "Dt^a(u) = Dx^2(u);\n", "2:7"),
        ("Dt", "alpha a; space x; dep u;\nparam Dt;\n"
         "Dt^a(u) = Dx^2(u);\n", "2:7"),
    ])
    def test_names_of_derivative_operators_are_rejected(self, tmp_path, name,
                                                        src, where):
        f = tmp_path / "clash.fpde"
        f.write_text(src)
        out = run_cli("analyze", str(f))
        assert out.returncode == 1
        assert out.stderr == (f"error: semantic error at {where}: {name!r} "
                              "names a derivative operator\n")

    @pytest.mark.parametrize("gen,where,why", [
        ("param x;\nxi[x] = x;\n", "1:7", "'x' names a variable of the system"),
        ("param u;\neta[u] = u;\n", "1:7", "'u' names a variable of the system"),
        ("param t;\ntau = t;\n", "1:7", "'t' is reserved"),
        ("param Gamma;\ntau = t;\n", "1:7", "'Gamma' is reserved"),
        ("param a;\ntau = a*t;\n", "1:7", "'a' names the fractional order"),
        ("param k;\ntau = k*t;\n", "1:7", "'k' names a parameter of the system"),
        ("param P;\ntau = P*t;\n", "1:7", "'P' names a function of the system"),
        ("param Dx;\ntau = t;\n", "1:7", "'Dx' names a derivative operator"),
        ("param c;\nparam c;\nxi[x] = c;\n", "2:7", "'c' declared twice"),
        ("tau = t;\ntau = 0;\n", "2:1", "tau assigned twice"),
        ("xi[x] = 1;\nxi[x] = x;\n", "2:1", "xi[x] assigned twice"),
        ("eta[u] = u;\neta[u] = 0;\n", "2:1", "eta[u] assigned twice"),
    ])
    def test_generator_name_clashes_are_located_errors(self, tmp_path, gen,
                                                       where, why):
        system = tmp_path / "sys.fpde"
        system.write_text("param k;\nalpha a; space x; dep u;\nfn P(u);\n"
                          "Dt^a(u) = Dx^2(u) + k*P(u)*Dx(u);\n")
        gfile = tmp_path / "clash.gen"
        gfile.write_text(gen)
        out = run_cli("analyze", str(system), "--verify-generator", str(gfile))
        assert out.returncode == 1
        assert out.stderr == f"error: semantic error at {where}: {why}\n"

    @pytest.mark.parametrize("gen,ok", [("xi[x] = x;", False),
                                        ("eta[u] = u;", True)])
    def test_generator_names_are_those_of_the_system(self, gen, ok):
        heat = "alpha a; space x; dep u; Dt^a(u) = Dx^2(u);"
        check = run_pipeline(heat, PipelineConfig(
            verify_generator_text=gen)).checks["verify_generator"]
        assert check["ok"] is ok
        if not ok:
            assert check["integer_residuals"] == [[("u_xx", "2")]]

    def test_parse_expression_refuses_a_clashing_extra_symbol(self, hs):
        with pytest.raises(DslSemanticError, match="'u' names a variable"):
            parse_expression("C1*u", hs.sig, {"C1", "u"})
        assert parse_expression("C1*t", hs.sig, {"C1"}) == mul(Sym("C1"), hs.sig.t)

    @pytest.mark.parametrize("degree", ["-1", "-3"])
    def test_negative_poly_degree_is_refused(self, degree):
        out = run_cli("analyze", "demos/zk.fpde", "--poly-degree", degree)
        assert out.returncode == 1
        assert out.stderr == ("error: the polynomial degree must be at least "
                              f"0, not {degree}\n")

    def test_exit_one_on_missing_file(self):
        out = run_cli("analyze", "no-such-file.fpde")
        assert out.returncode == 1

    def test_verify_generator_flag(self):
        out = run_cli("analyze", "demos/telegraph_power.fpde",
                      "--verify-generator", "demos/telegraph_power.gen",
                      "--emit", "json")
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["checks"]["verify_generator"]["ok"] is True

    def test_verify_generator_refuses_a_jet_inside_gamma(self, tmp_path):
        gfile = tmp_path / "gamma.gen"
        gfile.write_text("eta[u] = Gamma(u);\n")
        out = run_cli("analyze", "demos/telegraph.fpde",
                      "--verify-generator", str(gfile))
        assert out.returncode == 1
        assert out.stderr == "error: eta must be linear in the dependents\n"

    def test_reduce_flag_and_branch(self):
        out = run_cli("analyze", "demos/hs.fpde", "--reduce", "--branch", "zero",
                      "--emit", "json")
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert any(r["type"] == "scaling" for r in payload["reductions"])

    def test_branch_is_both_or_zero(self, capsys):
        from fraclie.cli import build_arg_parser
        ap = build_arg_parser()
        for branch in ("both", "zero"):
            assert ap.parse_args(["analyze", "f", "--branch", branch]).branch == branch
        with pytest.raises(SystemExit):
            ap.parse_args(["analyze", "f", "--branch", "nonzero"])
        assert "invalid choice: 'nonzero'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="'both' or 'zero'"):
            run_pipeline(ZK_SRC, PipelineConfig(branch="nonzero"))

    def test_deterministic_json_output(self):
        out1 = run_cli("analyze", "demos/zk.fpde", "--emit", "json")
        out2 = run_cli("analyze", "demos/zk.fpde", "--emit", "json")
        assert out1.stdout == out2.stdout


@pytest.mark.parametrize("name", ["zk", "hs", "telegraph", "telegraph_power"])
def test_demo_json_matches_recorded_contract(name):
    # the behaviour contract: the CLI's JSON for each bundled demo is
    # byte-identical to the recorded reference
    out = subprocess.run([sys.executable, "-m", "fraclie.cli", "analyze",
                          f"demos/{name}.fpde", "--emit", "json"],
                         capture_output=True, cwd=str(DEMOS.parent))
    assert out.returncode == 0, out.stderr
    assert out.stdout == (REFERENCE_JSON / f"{name}.json").read_bytes()


def test_oracle_check_json_matches_recording():
    # --oracle-check adds the numeric oracle's verdict to zk's JSON; its
    # worst error is that of the stdlib Gauss-Jacobi rules
    out = subprocess.run([sys.executable, "-m", "fraclie.cli", "analyze",
                          "demos/zk.fpde", "--oracle-check", "--emit", "json"],
                         capture_output=True, cwd=str(DEMOS.parent))
    assert out.returncode == 0, out.stderr
    assert out.stdout == ORACLE_CHECK_JSON.read_bytes()
    oracle = json.loads(out.stdout)["checks"]["oracle"]
    assert oracle["worst_abs_error"] == 9.254108590539545e-11


# Start-up: the CLI path needs no code generation (dataclasses, inspect), no
# numerics and no lemma fixtures; random loads only under --oracle-check,
# and numpy and scipy never load: the oracle's quadrature is stdlib code.
STARTUP_PROBE = """
import sys
sys.path.insert(0, {src!r})
import {module}
print(" ".join(m for m in {banned!r} if m in sys.modules))
"""


@pytest.mark.parametrize("module", ["fraclie", "fraclie.cli"])
def test_import_leaves_heavy_modules_unloaded(module):
    # -S: no site hooks, so nothing but this import can load the modules
    src = str(pathlib.Path(fraclie.__file__).resolve().parents[1])
    banned = ("dataclasses", "inspect", "random", "numpy", "scipy",
              "fraclie.lemmas")
    probe = STARTUP_PROBE.format(src=src, module=module, banned=banned)
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


ORACLE_PROBE = """
import sys
sys.path.insert(0, {src!r})
import fraclie.cli
fraclie.cli.main(["analyze", "demos/zk.fpde", "--oracle-check", "--emit", "json"])
print(" ".join(m for m in ("numpy", "scipy") if m in sys.modules), file=sys.stderr)
"""


def test_oracle_check_loads_neither_numpy_nor_scipy():
    # -S: no site hooks and no site-packages, so an import of either would
    # fail the run as well as show in sys.modules
    src = str(pathlib.Path(fraclie.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", ORACLE_PROBE.format(src=src)],
                         capture_output=True, text=True, cwd=str(DEMOS.parent))
    assert out.returncode == 0, out.stderr
    assert '"worst_abs_error"' in out.stdout
    assert out.stderr.split() == []


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_script_runs(script):
    # each narrative demo runs to completion in a fresh interpreter
    src = str(pathlib.Path(fraclie.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(DEMOS / script)],
                         capture_output=True, text=True, env=env,
                         cwd=str(DEMOS.parent))
    assert out.returncode == 0, out.stderr
