import json
import warnings
from pathlib import Path

import pytest

from fxcorr import SimulationConfig, load_snapshot, payoff_from_dict, price
from fxcorr import cli

from conftest import json_with_huge_integer, snapshot_doc, three_ccy_doc


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_doc(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def snapshot_path(tmp_path):
    return write(tmp_path, "snapshot.json", three_ccy_doc())


def oracle_doc():
    # rates chosen to match the frozen vanilla oracle (r_d 3%, r_f 1%)
    return snapshot_doc(
        spots={"EUR/USD": 1.25},
        vols={"EUR/USD": [(1.0, 0.10)]},
        rates={"EUR": [(1.0, 0.03)], "USD": [(1.0, 0.01)]},
    )


class TestValidate:
    def test_consistent_snapshot_passes(self, capsys, snapshot_path):
        doc = run_doc(capsys, ["validate", snapshot_path])
        assert doc["result"]["consistent"] is True
        assert doc["manifest"]["subcommand"] == "validate"

    def test_triangle_violation_fails(self, capsys, tmp_path):
        bad = three_ccy_doc()
        bad["spots"][1]["value"] = 130.0
        path = write(tmp_path, "bad.json", bad)
        code, out, err = run(capsys, ["validate", path])
        assert code == 1
        result = json.loads(out)["result"]
        assert result["consistent"] is False
        assert result["triangle_violations"][0]["magnitude"] == pytest.approx(0.04, rel=1e-9)

    def test_infinite_magnitude_is_an_error_line(self, capsys, tmp_path):
        doc = snapshot_doc(
            spots={"EUR/JPY": 1e200, "JPY/USD": 1e200, "EUR/USD": 1.0},
            vols={"EUR/USD": [(1.0, 0.2)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)], "JPY": [(1.0, 0.0)]},
        )
        code, out, err = run(capsys, ["validate", write(tmp_path, "huge.json", doc)])
        assert (code, out) == (1, "")
        assert err == "error: the result holds a value that is not finite\n"

    def test_schema_error_exits_1(self, capsys, tmp_path):
        doc = three_ccy_doc()
        doc["surprise"] = True
        path = write(tmp_path, "odd.json", doc)
        code, _, err = run(capsys, ["validate", path])
        assert code == 1
        assert "unknown key" in err


class TestImpliedVol:
    def test_oracle_fixture_recovers_vol(self, capsys, tmp_path):
        path = write(tmp_path, "snap.json", oracle_doc())
        doc = run_doc(capsys, [
            "implied-vol", path, "--pair", "EUR/USD", "--strike", "1.25",
            "--maturity", "1.0", "--price", "0.06208826018941123", "--kind", "call",
        ])
        assert doc["result"]["implied_vol"] == pytest.approx(0.10, abs=1e-10)

    def test_round_trip_through_documents(self, capsys, tmp_path):
        path = write(tmp_path, "snap.json", oracle_doc())
        doc = run_doc(capsys, [
            "implied-vol", path, "--pair", "EUR/USD", "--strike", "1.30",
            "--maturity", "1.0", "--price", "0.04", "--kind", "call",
        ])
        sigma = doc["result"]["implied_vol"]
        from fxcorr import FxPair, PricingInputs, VanillaSpec, gk_price

        spec = VanillaSpec(FxPair.parse("EUR/USD"), 1.30, 1.0, "call")
        assert gk_price(spec, PricingInputs(1.25, 0.03, 0.01, sigma)) == pytest.approx(
            0.04, abs=1e-12
        )

    def test_below_intrinsic_exits_2(self, capsys, tmp_path):
        path = write(tmp_path, "snap.json", oracle_doc())
        code, _, err = run(capsys, [
            "implied-vol", path, "--pair", "EUR/USD", "--strike", "1.0",
            "--maturity", "1.0", "--price", "0.01", "--kind", "call",
        ])
        assert code == 2
        assert "below intrinsic" in err

    def test_pretty_prints_ten_digits(self, capsys, tmp_path):
        path = write(tmp_path, "snap.json", oracle_doc())
        code, out, _ = run(capsys, [
            "implied-vol", path, "--pair", "EUR/USD", "--strike", "1.25",
            "--maturity", "1.0", "--price", "0.06208826018941123", "--kind", "call",
            "--pretty",
        ])
        assert code == 0
        assert out.strip() == "0.1"


class TestCorr:
    def test_equilateral_triangle(self, capsys, snapshot_path):
        doc = run_doc(capsys, [
            "corr", snapshot_path, "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY",
            "--maturity", "1.0",
        ])
        assert doc["result"]["correlation"] == pytest.approx(0.5, rel=1e-15)

    def test_four_currency_cancellation(self, capsys, tmp_path):
        from conftest import four_ccy_equal_doc

        path = write(tmp_path, "four.json", four_ccy_equal_doc())
        doc = run_doc(capsys, [
            "corr", path, "--pair-a", "AUD/CAD", "--pair-b", "CHF/DKK",
            "--maturity", "1.0", "--audit",
        ])
        assert doc["result"]["correlation"] == 0.0
        assert doc["result"]["provenance"]["formula"] == "cross"

    def test_missing_vol_exits_3(self, capsys, snapshot_path):
        code, _, err = run(capsys, [
            "corr", snapshot_path, "--pair-a", "EUR/USD", "--pair-b", "EUR/GBP",
            "--maturity", "1.0",
        ])
        assert code == 3
        assert "GBP" in err

    def test_out_of_range_exits_4(self, capsys, tmp_path):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25, "EUR/JPY": 125.0, "USD/JPY": 100.0},
            vols={
                "EUR/USD": [(1.0, 0.3)],
                "EUR/JPY": [(1.0, 0.4)],
                "USD/JPY": [(1.0, 0.05)],
            },
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)], "JPY": [(1.0, 0.0)]},
        )
        path = write(tmp_path, "arb.json", doc)
        argv = ["corr", path, "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY",
                "--maturity", "1.0"]
        code, _, err = run(capsys, argv)
        assert code == 4
        assert "outside" in err
        with pytest.warns(UserWarning):
            doc = run_doc(capsys, argv + ["--clamp"])
        assert doc["result"]["correlation"] == 1.0

    def test_bucketed_output(self, capsys, snapshot_path):
        doc = run_doc(capsys, [
            "corr", snapshot_path, "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY",
            "--buckets", "1.0,2.0",
        ])
        buckets = doc["result"]["buckets"]
        assert [b["end"] for b in buckets] == [1.0, 2.0]
        for b in buckets:
            assert b["correlation"] == pytest.approx(0.5, rel=1e-14)

    def test_bucketed_audit_prints_each_provenance(self, capsys, snapshot_path):
        # one bucket over (0, 1] is the total horizon: its audit lines are the maturity form's, indented under it
        argv = ["corr", snapshot_path, "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY", "--audit", "--pretty"]
        _, total, _ = run(capsys, argv + ["--maturity", "1.0"])
        _, bucketed, _ = run(capsys, argv + ["--buckets", "1.0"])
        audit = total.splitlines()[1:]
        assert audit[0] == "  formula: triangle" and len(audit) == 4
        assert bucketed.splitlines()[2:] == ["  " + line for line in audit]

    def test_audit_is_sufficient_to_recompute(self, capsys, snapshot_path):
        doc = run_doc(capsys, [
            "corr", snapshot_path, "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY",
            "--maturity", "2.0", "--audit",
        ])
        prov = doc["result"]["provenance"]
        sigma = {v["role"]: v["sigma"] for v in prov["vols"]}
        manual = (sigma["sigma_ik"] ** 2 + sigma["sigma_ij"] ** 2 - sigma["sigma_jk"] ** 2) / (
            2 * sigma["sigma_ik"] * sigma["sigma_ij"]
        )
        assert manual == pytest.approx(doc["result"]["correlation"], rel=1e-15)


class TestCorrMatrix:
    def test_two_by_two(self, capsys, snapshot_path):
        doc = run_doc(capsys, [
            "corr-matrix", snapshot_path, "--pairs", "EUR/USD,EUR/JPY",
            "--buckets", "1.0",
        ])
        bucket = doc["result"]["buckets"][0]
        assert bucket["matrix"][0][0] == 1.0
        assert bucket["matrix"][0][1] == pytest.approx(0.5, rel=1e-15)
        assert bucket["status"] == "psd"
        assert bucket["min_eigenvalue"] >= -1e-10

    def test_indefinite_is_data_not_failure(self, capsys, tmp_path):
        from test_correlation import perturbed_matrix_doc

        path = write(tmp_path, "pert.json", perturbed_matrix_doc(0.42))
        argv = ["corr-matrix", path, "--pairs", "AAA/BBB,CCC/DDD,AAA/CCC",
                "--buckets", "1.0"]
        doc = run_doc(capsys, argv)
        bucket = doc["result"]["buckets"][0]
        assert bucket["status"] == "indefinite"
        assert bucket["min_eigenvalue"] < -1e-6

        doc = run_doc(capsys, argv + ["--repair"])
        bucket = doc["result"]["buckets"][0]
        assert bucket["status"] == "repaired"
        assert bucket["min_eigenvalue"] >= -1e-10
        assert bucket["frobenius_change"] > 0


class TestPrice:
    def vanilla_payoff_path(self, tmp_path):
        return write(tmp_path, "payoff.json", {
            "type": "vanilla", "pair": "EUR/USD", "strike": 1.25, "kind": "call",
        })

    def test_matches_analytic_within_4_se(self, capsys, tmp_path, snapshot_path):
        payoff = self.vanilla_payoff_path(tmp_path)
        doc = run_doc(capsys, [
            "price", snapshot_path, payoff, "--grid", "1.0",
            "--paths", "200000", "--seed", "7",
        ])
        result = doc["result"]
        from fxcorr import FxPair, PricingInputs, VanillaSpec, gk_price

        analytic = gk_price(
            VanillaSpec(FxPair.parse("EUR/USD"), 1.25, 1.0, "call"),
            PricingInputs(1.25, 0.02, 0.03, 0.2),
        )
        assert abs(result["price"] - analytic) <= 4 * result["standard_error"]
        assert result["discount_currency"] == "EUR"

    def test_result_section_is_reproducible(self, capsys, tmp_path, snapshot_path):
        payoff = self.vanilla_payoff_path(tmp_path)
        argv = ["price", snapshot_path, payoff, "--grid", "0.5,1.0",
                "--paths", "20000", "--seed", "42"]
        first = json.dumps(run_doc(capsys, argv)["result"], sort_keys=True)
        second = json.dumps(run_doc(capsys, argv)["result"], sort_keys=True)
        assert first == second

    def test_in_out_parity_same_seed(self, capsys, tmp_path, snapshot_path):
        base = {
            "type": "barrier", "payoff_pair": "EUR/USD", "strike": 1.25,
            "kind": "call", "barrier_pair": "JPY/USD", "barrier_level": 0.0115,
            "direction": "up",
        }
        argv_tail = ["--grid", "0.25,0.5,0.75,1.0", "--paths", "20000", "--seed", "11"]
        k_in = run_doc(capsys, [
            "price", snapshot_path, write(tmp_path, "ki.json", {**base, "style": "knock-in"}),
        ] + argv_tail)["result"]["price"]
        k_out = run_doc(capsys, [
            "price", snapshot_path, write(tmp_path, "ko.json", {**base, "style": "knock-out"}),
        ] + argv_tail)["result"]["price"]
        vanilla = run_doc(capsys, [
            "price", snapshot_path, self.vanilla_payoff_path(tmp_path),
        ] + argv_tail)["result"]["price"]
        assert k_in + k_out == pytest.approx(vanilla, rel=1e-12)

    def test_barrier_on_the_inverse_pair(self, capsys, tmp_path, snapshot_path):
        payoff = {
            "type": "barrier", "payoff_pair": "USD/EUR", "strike": 0.8, "kind": "call",
            "barrier_pair": "EUR/USD", "barrier_level": 1.3, "direction": "up",
            "style": "knock-in",
        }
        doc = run_doc(capsys, [
            "price", snapshot_path, write(tmp_path, "inverse.json", payoff),
            "--grid", "0.5,1.0", "--paths", "2000",
        ])
        assert doc["result"]["price"] > 0
        assert doc["manifest"]["config"]["payoff"] == payoff

    def test_bad_payoff_type_exits_1(self, capsys, tmp_path, snapshot_path):
        payoff = write(tmp_path, "weird.json", {"type": "asian"})
        code, _, err = run(capsys, ["price", snapshot_path, payoff, "--grid", "1.0"])
        assert code == 1
        assert "unknown payoff type" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow in the weighted sum
    def test_infinite_price_is_an_error_line(self, capsys, tmp_path, snapshot_path):
        payoff = write(tmp_path, "huge.json", {
            "type": "basket", "strike": 1.0, "kind": "call", "weights": [
                {"pair": "EUR/USD", "weight": 1e305}, {"pair": "EUR/JPY", "weight": 1e305}],
        })
        code, out, err = run(capsys, ["price", snapshot_path, payoff, "--grid", "1.0", "--paths", "100"])
        assert (code, out) == (1, "")
        assert err == "error: the result holds a value that is not finite\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_1(self, capsys, tmp_path, snapshot_path, workers):
        payoff = self.vanilla_payoff_path(tmp_path)
        code, out, err = run(capsys, [
            "price", snapshot_path, payoff, "--grid", "1.0", "--paths", "100", "--workers", workers,
        ])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "workers" in err


class TestPriceRepairAndClamp:
    """``--repair`` and ``--clamp`` reach the matrix ``price`` builds."""

    GOLDEN = Path(__file__).parent / "data" / "golden"

    def run_both(self, capsys, tmp_path, snapshot_file, weights, strike, option):
        payoff = {"type": "basket", "strike": strike, "kind": "call",
                  "weights": [{"pair": p, "weight": w} for p, w in weights.items()]}
        argv = ["price", str(self.GOLDEN / snapshot_file), write(tmp_path, "basket.json", payoff),
                "--grid", "1.0", "--paths", "20000", "--seed", "5"]
        code, out, _ = run(capsys, argv)
        assert out == ""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            doc = run_doc(capsys, argv + [f"--{option}"])
            expected = price(payoff_from_dict(payoff), load_snapshot(self.GOLDEN / snapshot_file),
                             SimulationConfig(20_000, 5, (1.0,)), **{option: True})
        assert doc["result"] == expected.to_dict()
        return code, caught

    def test_repair(self, capsys, tmp_path):
        code, caught = self.run_both(capsys, tmp_path, "perturbed.json",
                                     {"AAA/BBB": 1.0, "AAA/CCC": 1.0, "AAA/DDD": 1.0}, 3.0, "repair")
        assert code == 1 and caught == []  # FactorizationError without --repair

    def test_clamp(self, capsys, tmp_path):
        code, caught = self.run_both(capsys, tmp_path, "arb.json", {"EUR/USD": 1.0, "EUR/JPY": 0.01}, 2.5, "clamp")
        assert code == 4  # CorrelationRangeError without --clamp
        assert [w.filename for w in caught] == [cli.__file__, __file__]  # the CLI's notice, then price's


class TestBootstrap:
    def test_flat_structure(self, capsys, snapshot_path):
        doc = run_doc(capsys, ["bootstrap", snapshot_path, "--pair", "EUR/USD"])
        values = [b["sigma"] for b in doc["result"]["buckets"]]
        assert values == pytest.approx([0.2, 0.2], rel=1e-14)

    def test_two_point_fixture(self, capsys, tmp_path):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25},
            vols={"EUR/USD": [(1.0, 0.10), (2.0, 0.12)]},
            rates={"EUR": [(2.0, 0.0)], "USD": [(2.0, 0.0)]},
        )
        path = write(tmp_path, "two.json", doc)
        out = run_doc(capsys, ["bootstrap", path, "--pair", "EUR/USD"])
        values = [b["sigma"] for b in out["result"]["buckets"]]
        assert values[0] == 0.10
        assert values[1] == pytest.approx(0.13711309200802088, abs=1e-15)
        assert max(abs(r) for r in out["result"]["reconstruction_residuals"]) <= 1e-14

    def test_calendar_arbitrage_exits_5(self, capsys, tmp_path):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25},
            vols={"EUR/USD": [(1.0, 0.20), (2.0, 0.10)]},
            rates={"EUR": [(2.0, 0.0)], "USD": [(2.0, 0.0)]},
        )
        path = write(tmp_path, "arb.json", doc)
        code, _, err = run(capsys, ["bootstrap", path, "--pair", "EUR/USD"])
        assert code == 5
        assert "calendar" in err


class TestExitCodes:
    def test_usage_error_exits_1_not_2(self, capsys, snapshot_path):
        # argparse's default usage-error status would collide with the
        # no-implied-vol code
        with pytest.raises(SystemExit) as exc:
            cli.main(["corr", snapshot_path, "--pair-a", "EUR/USD", "--maturity", "1.0"])
        assert exc.value.code == 1
        assert "pair-b" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["price", "snap.json", "payoff.json", "--grid", "1,x"], "expected comma-separated numbers"),
        (["validate"], "the following arguments are required: snapshot"),
    ], ids=["grid-not-a-number", "no-snapshot"])
    def test_usage_errors_exit_1(self, capsys, monkeypatch, argv, message):
        monkeypatch.delenv("FXCORR_SNAPSHOT", raising=False)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    def test_missing_snapshot_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["validate", str(tmp_path / "absent.json")])
        assert code == 1


def exit_table_case(tmp_path, status):
    """An argv whose error maps to ``status``, and the stderr line it must print."""
    if status == 2:
        argv = ["implied-vol", write(tmp_path, "snap.json", oracle_doc()), "--pair", "EUR/USD",
                "--strike", "1.0", "--maturity", "1.0", "--price", "0.01", "--kind", "call"]
        return argv, "error: no implied vol: below intrinsic (price 0.01 <= 0.267116758638)"
    if status == 3:
        argv = ["corr", write(tmp_path, "snap.json", three_ccy_doc()),
                "--pair-a", "EUR/USD", "--pair-b", "EUR/GBP", "--maturity", "1.0"]
        return argv, ("error: missing data: no vol term structure for pair EUR/GBP "
                      "(needed over (0.0, 1.0])")
    if status == 4:
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25, "EUR/JPY": 125.0, "USD/JPY": 100.0},
            vols={"EUR/USD": [(1.0, 0.3)], "EUR/JPY": [(1.0, 0.4)], "USD/JPY": [(1.0, 0.05)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)], "JPY": [(1.0, 0.0)]},
        )
        argv = ["corr", write(tmp_path, "arb.json", doc),
                "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY", "--maturity", "1.0"]
        return argv, ("error: correlation out of range: implied correlation 1.03125 outside "
                      "[-1, 1]: EUR/USD vs EUR/JPY over (0.0, 1.0]; the input vols admit "
                      "arbitrage (pass clamp to force the nearest bound)")
    if status == 5:
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25},
            vols={"EUR/USD": [(1.0, 0.20), (2.0, 0.10)]},
            rates={"EUR": [(2.0, 0.0)], "USD": [(2.0, 0.0)]},
        )
        argv = ["bootstrap", write(tmp_path, "cal.json", doc), "--pair", "EUR/USD"]
        return argv, ("error: calendar arbitrage: EUR/USD: calendar arbitrage at point 1: "
                      "total variance falls from 0.04 (T=1.0) to 0.02 (T=2.0)")
    absent = tmp_path / "absent.json"  # an OSError
    return ["validate", str(absent)], f"error: [Errno 2] No such file or directory: '{absent}'"


class TestExitTable:
    @pytest.mark.parametrize("status", [2, 3, 4, 5, 1])
    def test_first_stderr_line_and_status(self, capsys, tmp_path, status):
        argv, line = exit_table_case(tmp_path, status)
        code, out, err = run(capsys, argv)
        assert (code, out, err.splitlines()[0]) == (status, "", line)


class TestManifest:
    def test_every_output_embeds_the_manifest(self, capsys, snapshot_path):
        doc = run_doc(capsys, ["validate", snapshot_path])
        manifest = doc["manifest"]
        assert manifest["subcommand"] == "validate"
        assert manifest["inputs"]["snapshot"] == snapshot_path
        assert manifest["version"]
        assert manifest["timestamp"]

    def test_snapshot_env_default(self, capsys, snapshot_path, monkeypatch):
        monkeypatch.setenv("FXCORR_SNAPSHOT", snapshot_path)
        doc = run_doc(capsys, [
            "corr", "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY", "--maturity", "1.0",
        ])
        assert doc["result"]["correlation"] == pytest.approx(0.5, rel=1e-15)


class TestPayoffErrors:
    def test_bad_monitoring_entry_is_an_error_line(self, capsys, tmp_path, snapshot_path):
        payoff = write(tmp_path, "soon.json", {
            "type": "barrier", "payoff_pair": "EUR/USD", "strike": 1.25, "kind": "call",
            "barrier_pair": "JPY/USD", "barrier_level": 0.0115, "direction": "up",
            "style": "knock-out", "monitoring": ["soon"],
        })
        code, out, err = run(capsys, ["price", snapshot_path, payoff, "--grid", "1.0"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "monitoring[0]" in err


class TestDigitLimit:
    def test_validate_huge_spot_is_an_error_line(self, capsys, tmp_path):
        doc = three_ccy_doc()
        doc["spots"][0]["value"] = "HUGE"
        path = tmp_path / "huge.json"
        path.write_text(json_with_huge_integer(doc))
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_price_huge_strike_is_an_error_line(self, capsys, tmp_path, snapshot_path):
        payoff = tmp_path / "huge.json"
        payoff.write_text(json_with_huge_integer(
            {"type": "vanilla", "pair": "EUR/USD", "strike": "HUGE", "kind": "call"}
        ))
        code, out, err = run(capsys, ["price", snapshot_path, str(payoff), "--grid", "1.0"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestUndecodableFile:
    def test_validate_non_utf8_snapshot_is_an_error_line(self, capsys, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_bytes(b"\xff" + json.dumps(three_ccy_doc()).encode())
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid JSON") and "Traceback" not in err

    def test_price_non_utf8_payoff_is_an_error_line(self, capsys, tmp_path, snapshot_path):
        payoff = tmp_path / "payoff.json"
        payoff.write_bytes(b'{"type": "vanilla", "pair": "EUR/USD", "strike": 1.25, "kind": "call\xe9"}')
        code, out, err = run(capsys, ["price", snapshot_path, str(payoff), "--grid", "1.0"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid JSON") and "Traceback" not in err


class TestNonFiniteArguments:
    @pytest.mark.parametrize("flag,value", [
        ("--price", "nan"), ("--price", "inf"), ("--maturity", "inf"), ("--strike", "inf"),
    ])
    def test_implied_vol_is_an_error_line(self, capsys, tmp_path, flag, value):
        path = write(tmp_path, "snap.json", oracle_doc())
        args = {"--strike": "1.25", "--maturity": "1.0", "--price": "0.06", flag: value}
        argv = ["implied-vol", path, "--pair", "EUR/USD", "--kind", "call"]
        code, out, err = run(capsys, argv + [x for item in args.items() for x in item])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("horizon", [["--maturity", "inf"], ["--buckets", "0.5,inf"]])
    def test_corr_is_an_error_line_without_warnings(self, capsys, snapshot_path, horizon):
        argv = ["corr", snapshot_path, "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY"] + horizon
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv)
        assert (code, out, caught) == (1, "", [])
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("grid", ["0.5,inf", "0.5,nan"])
    def test_price_grid_is_an_error_line_without_warnings(self, capsys, tmp_path, snapshot_path, grid):
        payoff = write(tmp_path, "payoff.json", {
            "type": "vanilla", "pair": "EUR/USD", "strike": 1.25, "kind": "call",
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["price", snapshot_path, payoff, "--grid", grid])
        assert (code, out, caught) == (1, "", [])
        assert err.startswith("error:") and "finite" in err and "Warning" not in err


class TestOutOfRangeOptions:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_validate_tol_is_an_error_line(self, capsys, tmp_path, tol):
        doc = three_ccy_doc()
        doc["spots"][1]["value"] = 130.0  # violates the triangle at any tolerance below 0.04
        code, out, err = run(capsys, ["validate", write(tmp_path, "bad.json", doc), "--tol", tol])
        assert (code, out) == (1, "")
        assert err.startswith("error: tol must be finite and >= 0") and "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", str(2**128), str(2**130)])
    def test_price_seed_is_an_error_line(self, capsys, tmp_path, snapshot_path, seed):
        payoff = write(tmp_path, "payoff.json", {
            "type": "vanilla", "pair": "EUR/USD", "strike": 1.25, "kind": "call",
        })
        argv = ["price", snapshot_path, payoff, "--grid", "0.5,1.0", "--paths", "1000", "--seed", seed]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: seed must be an integer in") and "Traceback" not in err


class TestHairlineBuckets:
    def test_corr_buckets_is_an_error_line(self, capsys, snapshot_path):
        argv = ["corr", snapshot_path, "--pair-a", "EUR/USD", "--pair-b", "EUR/JPY",
                "--buckets", "1e-13,1.0"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "width" in err and "Traceback" not in err
