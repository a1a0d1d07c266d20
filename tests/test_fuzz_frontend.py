"""Bad input ends in a typed error: a mutation fuzz of the front end.

Each case takes a bundled .fpde file and deletes characters, inserts
tokens of the input language and duplicates slices of it, then runs the
whole pipeline.  Whatever the text, the outcome is a Report or an
exception of one of fraclie's own classes (a DslSyntaxError or
DslSemanticError from the parser, DegreeInsufficient from the solver, ...),
never a bare builtin error or a traceback from deep inside.  The run is
derandomized, so every run draws the same cases.
"""
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fraclie import Report, run_pipeline
from conftest import DEMOS

_ROOT = DEMOS.parent
SOURCES = [p.read_text() for p in sorted([
    *(_ROOT / "demos").glob("*.fpde"),
    *(_ROOT / "tests" / "corpus").glob("*.fpde"),
    *(_ROOT / "perfbench" / "inputs").glob("*.fpde")])]

_TOKENS = [";", ",", "(", ")", "^", "+", "-", "*", "/", "=", "0", "1", "2",
           "1/2", "u", "v", "x", "y", "t", "a", "n", "Dx", "Dy", "Dt", "Dt^a",
           "Gamma", "alpha", "param", "space", "dep", "fn", "nonzero",
           "positive", "in", "#", "space y;", "dep v;", "param m;"]

# transport.fpde with a space variable that no equation differentiates in
UNCOUPLED = ("# Time-fractional transport equation.\n"
             "alpha a;\nspace x;\nspace y;\ndep u;\nDt^a(u) = Dx(u);\n")


@st.composite
def mutants(draw):
    text = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "insert", "duplicate")))
        i = draw(st.integers(0, len(text)))
        if kind == "delete":
            text = text[:i] + text[draw(st.integers(i, min(len(text), i + 8))):]
        elif kind == "insert":
            text = f"{text[:i]} {draw(st.sampled_from(_TOKENS))} {text[i:]}"
        else:
            j = draw(st.integers(i, min(len(text), i + 40)))
            k = draw(st.integers(0, len(text)))
            text = text[:k] + text[i:j] + text[k:]
    return text


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
@example(UNCOUPLED)
def test_pipeline_ends_in_a_report_or_a_typed_error(text):
    try:
        out = run_pipeline(text)
    except Exception as exc:  # noqa: BLE001 - the class is what is tested
        assert type(exc).__module__.startswith("fraclie."), (
            f"{type(exc).__name__}: {exc}\n--- input ---\n{text}")
    else:
        assert isinstance(out, Report)
