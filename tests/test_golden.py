"""Golden CLI results: the ``result`` section of a fixed set of commands,
compared byte for byte with files stored under ``tests/data/golden``.

The manifest is dropped (it holds paths and a timestamp).  A change that
claims to keep behaviour must leave every stored result as it is.  After a
change that is meant to alter a result, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and explain the difference.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fxcorr import cli

DATA = Path(__file__).parent / "data" / "golden"

CASES = {
    "corr-triangle": ["corr", "world.json", "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY",
                      "--maturity", "0.75", "--audit"],
    "corr-cross": ["corr", "world.json", "--pair-a", "GBP/JPY", "--pair-b", "USD/EUR",
                   "--maturity", "1.5", "--audit"],
    "corr-degenerate": ["corr", "world.json", "--pair-a", "EUR/USD", "--pair-b", "USD/EUR",
                        "--maturity", "1.0", "--audit"],
    "corr-buckets-triangle": ["corr", "world.json", "--pair-a", "USD/GBP", "--pair-b", "USD/JPY",
                              "--buckets", "0.25,0.5,1,2", "--audit"],
    "corr-buckets-cross": ["corr", "world.json", "--pair-a", "JPY/USD", "--pair-b", "EUR/GBP",
                           "--buckets", "0.5,1,2", "--audit"],
    "matrix-psd": ["corr-matrix", "world.json", "--pairs",
                   "EUR/GBP,EUR/JPY,USD/EUR,GBP/JPY,GBP/USD,JPY/USD", "--buckets", "0.5,1,2"],
    "matrix-indefinite": ["corr-matrix", "perturbed.json", "--pairs", "AAA/BBB,CCC/DDD,AAA/CCC",
                          "--buckets", "1.0"],
    "matrix-repair": ["corr-matrix", "perturbed.json", "--pairs", "AAA/BBB,CCC/DDD,AAA/CCC",
                      "--buckets", "1.0", "--repair"],
    "matrix-clamp": ["corr-matrix", "arb.json", "--pairs", "EUR/USD,EUR/JPY,JPY/USD",
                     "--buckets", "1.0", "--clamp"],
    "price-basket": ["price", "world.json", "basket.json", "--grid", "0.5,1.0",
                     "--paths", "20000", "--seed", "5", "--antithetic"],
    "price-barrier": ["price", "world.json", "barrier.json", "--grid", "0.25,0.5,0.75,1.0",
                      "--paths", "20000", "--seed", "9", "--workers", "2"],
    "bootstrap": ["bootstrap", "world.json", "--pair", "USD/GBP"],
}


def _argv(case: str) -> list[str]:
    return [str(DATA / a) if a.endswith(".json") else a for a in CASES[case]]


def result_text(case: str) -> str:
    """The command's ``result`` section, serialised as the CLI serialises it."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(_argv(case))
    assert code == 0, case
    return json.dumps(json.loads(out.getvalue())["result"], indent=2) + "\n"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_result_matches_golden(case):
    assert result_text(case) == (DATA / f"{case}.result.json").read_text()


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    for name in sys.argv[1:] or sorted(CASES):
        (DATA / f"{name}.result.json").write_text(result_text(name))
