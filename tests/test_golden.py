"""Golden CLI results: the ``result`` section of a fixed set of commands,
compared byte for byte with files stored under ``tests/data/golden``.

The manifest's paths and timestamp are dropped: its ``config`` is compared
with ``manifest-config.json``.  The ``--pretty`` rendering, with the golden
directory stripped from the paths it names, is compared with
``pretty.json``.  A change that claims to keep behaviour must leave every
stored file as it is.  After a change that is meant to alter an output,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and explain the difference.
"""

import io
import json
import os
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
    "validate-consistent": ["validate", "world.json"],
    "validate-violating": ["validate", "violating.json"],
    "implied-vol": ["implied-vol", "world.json", "--pair", "EUR/USD", "--strike", "0.9",
                    "--maturity", "0.75", "--price", "0.03", "--kind", "call"],
}

# A violating snapshot still prints its result, and exits 1.
EXIT_CODES = {"validate-violating": 1}


def _argv(case: str) -> list[str]:
    return [str(DATA / a) if a.endswith(".json") else a for a in CASES[case]]


def stdout_of(case: str, *flags: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(_argv(case) + list(flags))
    assert code == EXIT_CODES.get(case, 0), case
    return out.getvalue()


def result_text(case: str) -> str:
    """The command's ``result`` section, serialised as the CLI serialises it."""
    return json.dumps(json.loads(stdout_of(case))["result"], indent=2) + "\n"


def manifest_config(case: str) -> dict:
    return json.loads(stdout_of(case))["manifest"]["config"]


def pretty_text(case: str) -> str:
    return stdout_of(case, "--pretty").replace(f"{DATA}{os.sep}", "")


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_result_matches_golden(case):
    assert result_text(case) == (DATA / f"{case}.result.json").read_text()


def _stored(name: str) -> dict:
    return json.loads((DATA / name).read_text())


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_manifest_config_matches_golden(case):
    # compared as text, so the key order is pinned too
    expected = _stored("manifest-config.json")[case]
    assert json.dumps(manifest_config(case), indent=2) == json.dumps(expected, indent=2)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_pretty_output_matches_golden(case):
    assert pretty_text(case) == _stored("pretty.json")[case]


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    names = sys.argv[1:] or sorted(CASES)
    for name in names:
        (DATA / f"{name}.result.json").write_text(result_text(name))
    for stored, render in [("manifest-config.json", manifest_config), ("pretty.json", pretty_text)]:
        docs = _stored(stored) if (DATA / stored).exists() else {}
        docs.update((name, render(name)) for name in names)
        (DATA / stored).write_text(json.dumps(dict(sorted(docs.items())), indent=2) + "\n")
