import os
import pathlib
from fractions import Fraction

import pytest

from fraclie import ONE, ZERO, Rat, parse_system

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# Tests that start `python -m fraclie.cli` need this checkout's package, which
# pytest's `pythonpath` setting puts on sys.path of this process only.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH")]))

ZK_SRC = (DEMOS / "zk.fpde").read_text()
HS_SRC = (DEMOS / "hs.fpde").read_text()
TELE_SRC = (DEMOS / "telegraph.fpde").read_text()
TELE_POW_SRC = (DEMOS / "telegraph_power.fpde").read_text()
TELE_POW_GEN = (DEMOS / "telegraph_power.gen").read_text()


def chi2_zero_case(ans):
    """The paper's chi2 = 0 case of the ansatz: chi2 = 0 and gamma_s = 0."""
    return {ans.chi2: ZERO, **{ans.gamma(s): ZERO for s in range(ans.sig.q)}}


def chi2_nonzero_case(ans):
    """The paper's chi2 != 0 case of the ansatz: gamma_s = (alpha-1)/2."""
    gamma = (ans.alpha - ONE) * Rat(Fraction(1, 2))
    return {ans.gamma(s): gamma for s in range(ans.sig.q)}


@pytest.fixture(scope="session")
def zk():
    return parse_system(ZK_SRC)


@pytest.fixture(scope="session")
def hs():
    return parse_system(HS_SRC)


@pytest.fixture(scope="session")
def tele():
    return parse_system(TELE_SRC)


@pytest.fixture(scope="session")
def tele_pow():
    return parse_system(TELE_POW_SRC)
