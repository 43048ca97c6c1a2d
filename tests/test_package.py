import os
import subprocess
import sys
from pathlib import Path

import pytest

import fxcorr

SRC = Path(fxcorr.__file__).parents[1]
WORLD = str(Path(__file__).parent / "data" / "golden" / "world.json")


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports fxcorr from this source tree."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def test_every_exported_name_resolves():
    missing = [name for name in fxcorr.__all__ if not hasattr(fxcorr, name)]
    assert missing == []


def test_every_exported_name_is_its_home_modules_object():
    for name in fxcorr.__all__:
        value = getattr(fxcorr, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(fxcorr.__all__) <= set(dir(fxcorr))


_LAZY = """import sys
import fxcorr
assert set(fxcorr.__all__) <= set(dir(fxcorr))
assert "fxcorr.montecarlo" not in sys.modules
price = fxcorr.price
assert sys.modules["fxcorr.montecarlo"].price is price is fxcorr.price
from fxcorr import correlation  # a submodule, not an exported name
assert correlation is sys.modules["fxcorr.correlation"]
try:
    fxcorr.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""


def test_exported_names_are_imported_on_first_use():
    run = run_python(_LAZY)
    assert run.returncode == 0, run.stderr


def test_importing_the_cli_loads_no_engine():
    engine = ("fxcorr.montecarlo", "fxcorr.correlation", "fxcorr.vanilla", "fxcorr.term_structure",
              "concurrent.futures", "numpy")
    run = run_python("import sys, fxcorr.cli; print(*(m for m in sys.argv[1:] if m in sys.modules))", *engine)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


_CLI = """import sys
from fxcorr.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:  # --version
    status = exc.code
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(status)
"""

# the argv of each command, and whether it loads numpy
COMMANDS = {
    "version": (["--version"], False),
    "corr": (["corr", WORLD, "--pair-a", "GBP/JPY", "--pair-b", "USD/EUR", "--maturity", "1.5", "--audit"], False),
    "corr-buckets": (["corr", WORLD, "--pair-a", "JPY/USD", "--pair-b", "EUR/GBP", "--buckets", "0.5,1,2"], False),
    "implied-vol": (["implied-vol", WORLD, "--pair", "EUR/USD", "--strike", "0.9", "--maturity", "0.75",
                     "--price", "0.03", "--kind", "call"], False),
    "validate": (["validate", WORLD], False),
    "bootstrap": (["bootstrap", WORLD, "--pair", "USD/GBP"], False),
    "corr-matrix": (["corr-matrix", WORLD, "--pairs", "EUR/GBP,EUR/JPY,USD/EUR", "--buckets", "0.5,1"], True),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_only_the_matrix_and_the_engine_load_numpy(command):
    argv, loads_numpy = COMMANDS[command]
    run = run_python(_CLI, *argv)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == str(loads_numpy)


_PRICE = """import sys
from fxcorr.cli import main
status = main(sys.argv[1:])
print("fxcorr.vanilla" in sys.modules, file=sys.stderr)
sys.exit(status)
"""


def test_price_loads_no_vanilla_module():
    # the engine checks strikes by the market_data rule; vanilla holds the closed forms, which price never runs
    golden = Path(WORLD).parent  # the price-basket case of tests/test_golden.py
    run = run_python(_PRICE, "price", WORLD, str(golden / "basket.json"), "--grid", "0.5,1.0", "--paths", "20000",
                     "--seed", "5", "--antithetic")
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "False"
