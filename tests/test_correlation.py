import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fxcorr import (
    BucketedCorrelationMatrix,
    BucketStatus,
    CorrelationClampWarning,
    CorrelationRangeError,
    CorrQuery,
    ExtrapolationWarning,
    FxPair,
    MissingDataError,
    UndefinedCorrelationError,
    ValidationError,
    bootstrap_piecewise_vol,
    bucket_corrs,
    build_matrix,
    canonicalize,
    cross_corr,
    implied_corr,
    integrated_correlation,
    load_snapshot,
    loads_snapshot,
    term_corr,
    triangle_corr,
)

from fxcorr.correlation import PSD_TOL, _clip_to_psd
from fxcorr.term_structure import MIN_BUCKET_WIDTH

from conftest import four_ccy_equal_doc, snapshot_doc, three_ccy_doc
from oracles import DriverWorld


def pair(label):
    return FxPair.parse(label)


class TestTriangleCorr:
    def test_equilateral(self):
        assert triangle_corr(0.2, 0.2, 0.2) == pytest.approx(0.5, rel=1e-15)

    def test_pythagorean(self):
        assert triangle_corr(0.3, 0.4, 0.5) == pytest.approx(0.0, abs=1e-16)

    def test_degenerate_perfect_correlation(self):
        assert triangle_corr(0.3, 0.4, 0.1) == pytest.approx(1.0, rel=1e-15)

    def test_zero_denominator(self):
        with pytest.raises(UndefinedCorrelationError):
            triangle_corr(0.0, 0.2, 0.2)

    def test_out_of_range_raises_by_default(self):
        with pytest.raises(CorrelationRangeError):
            triangle_corr(0.3, 0.4, 0.05)

    def test_out_of_range_clamps_on_request(self):
        with pytest.warns(CorrelationClampWarning):
            assert triangle_corr(0.3, 0.4, 0.05, clamp=True) == 1.0

    def test_headroom_snaps_silently(self):
        # 1 + less than 1e-12 of overshoot: snapped without warning or error
        value = triangle_corr(0.3, 0.4, 0.1 * (1 - 1e-14))
        assert value == 1.0


class TestCrossCorr:
    def test_all_equal_vols_cancel(self):
        assert cross_corr(0.2, 0.2, 0.2, 0.2, 0.2, 0.2) == 0.0

    def test_reduction_to_triangle_is_exact(self):
        # m = i: sigma_im = 0, sigma_mj = sigma_ij, sigma_mk = sigma_ik
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            s_ik, s_ij, s_jk = rng.uniform(0.01, 0.6, 3)
            try:
                expected = triangle_corr(s_ik, s_ij, s_jk)
            except CorrelationRangeError:
                continue
            reduced = cross_corr(s_ij, s_ik, s_ik, s_ij, s_jk, 0.0)
            assert abs(reduced - expected) <= 1e-15

    def test_zero_denominator(self):
        with pytest.raises(UndefinedCorrelationError):
            cross_corr(0.2, 0.0, 0.2, 0.2, 0.2, 0.2)

    def test_negative_cross_vol_rejected(self):
        with pytest.raises(ValidationError):
            cross_corr(0.2, 0.2, -0.1, 0.2, 0.2, 0.2)


class TestDriverWorldRecovery:
    def test_triangle_recovers_analytic_correlation(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            world = DriverWorld.random(["AAA", "BBB", "CCC"], rng)
            s_ab = world.vol("AAA", "BBB", 1.0)
            s_ac = world.vol("AAA", "CCC", 1.0)
            s_bc = world.vol("BBB", "CCC", 1.0)
            got = triangle_corr(s_ac, s_ab, s_bc, clamp=True)
            want = world.bucket_corr(0, "AAA", "CCC", "AAA", "BBB")
            assert abs(got - want) <= 1e-12

    def test_cross_recovers_analytic_correlation(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            world = DriverWorld.random(["AAA", "BBB", "CCC", "DDD"], rng)
            v = {
                (a, b): world.vol(a, b, 1.0)
                for a in world.codes
                for b in world.codes
                if a != b
            }
            got = cross_corr(
                v["AAA", "BBB"], v["CCC", "DDD"],
                v["AAA", "DDD"], v["CCC", "BBB"],
                v["BBB", "DDD"], v["AAA", "CCC"],
                clamp=True,
            )
            want = world.bucket_corr(0, "AAA", "BBB", "CCC", "DDD")
            assert abs(got - want) <= 1e-12

    def test_variance_identities(self):
        # the decomposition identities behind both formulas, checked as
        # numbers in a consistent world
        rng = np.random.default_rng(47)
        for _ in range(100):
            world = DriverWorld.random(["AAA", "BBB", "CCC", "DDD"], rng)
            var = {
                (a, b): world.total_variance(a, b, 1.0)
                for a in world.codes
                for b in world.codes
                if a != b
            }
            corr = lambda a, b, c, d: world.bucket_corr(0, a, b, c, d)

            # Var(Y_jk) = Var(Y_ik) + Var(Y_ij) - 2 rho sqrt(Var Var), i=A, j=B, k=C
            lhs = var["BBB", "CCC"]
            rhs = (
                var["AAA", "CCC"] + var["AAA", "BBB"]
                - 2.0 * corr("AAA", "CCC", "AAA", "BBB")
                * math.sqrt(var["AAA", "CCC"] * var["AAA", "BBB"])
            )
            assert lhs == pytest.approx(rhs, abs=1e-14)

            # Var(Y_ij + Y_mk), once via the pair correlation, once expanded
            # through Y_mk = Y_ik - Y_im with i=A, j=B, m=C, k=D
            s_ij = math.sqrt(var["AAA", "BBB"])
            s_mk = math.sqrt(var["CCC", "DDD"])
            direct = (
                var["AAA", "BBB"] + var["CCC", "DDD"]
                + 2.0 * corr("CCC", "DDD", "AAA", "BBB") * s_ij * s_mk
            )
            s_ik = math.sqrt(var["AAA", "DDD"])
            s_im = math.sqrt(var["AAA", "CCC"])
            expanded = (
                var["AAA", "BBB"] + var["AAA", "DDD"] + var["AAA", "CCC"]
                + 2.0 * corr("AAA", "BBB", "AAA", "DDD") * s_ij * s_ik
                - 2.0 * corr("AAA", "BBB", "AAA", "CCC") * s_ij * s_im
                - 2.0 * corr("AAA", "DDD", "AAA", "CCC") * s_ik * s_im
            )
            assert direct == pytest.approx(expanded, abs=1e-14)


class TestImpliedCorr:
    def test_shared_denominating_uses_triangle(self, three_ccy_snapshot):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/JPY"), 1.0)
        res = implied_corr(query, three_ccy_snapshot)
        assert res.value == pytest.approx(0.5, rel=1e-15)
        assert res.provenance.formula == "triangle"
        assert len(res.provenance.vols) == 3

    def test_four_currencies_use_cross(self, four_ccy_equal_snapshot):
        query = CorrQuery.total(pair("AUD/CAD"), pair("CHF/DKK"), 1.0)
        res = implied_corr(query, four_ccy_equal_snapshot)
        assert res.value == 0.0
        assert res.provenance.formula == "cross"
        assert len(res.provenance.vols) == 6

    def test_degenerate_same_pair(self, three_ccy_snapshot):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/USD"), 1.0)
        res = implied_corr(query, three_ccy_snapshot)
        assert res.value == 1.0
        assert res.degenerate

    def test_degenerate_inverse_pair(self, three_ccy_snapshot):
        query = CorrQuery.total(pair("EUR/USD"), pair("USD/EUR"), 1.0)
        res = implied_corr(query, three_ccy_snapshot)
        assert res.value == -1.0
        assert res.degenerate

    def test_flipping_one_pair_negates_exactly(self, three_ccy_snapshot):
        a, b = pair("EUR/USD"), pair("EUR/JPY")
        base = implied_corr(CorrQuery.total(a, b, 1.0), three_ccy_snapshot).value
        flipped = implied_corr(
            CorrQuery.total(a, b.inverse(), 1.0), three_ccy_snapshot
        ).value
        assert flipped == -base

    def test_symmetric_in_arguments_exactly(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            world = DriverWorld.random(["AAA", "BBB", "CCC", "DDD"], rng)
            snap = world.snapshot()
            for a, b in [("AAA/BBB", "CCC/DDD"), ("AAA/BBB", "AAA/CCC"), ("BBB/AAA", "DDD/CCC")]:
                qa = CorrQuery.total(pair(a), pair(b), 1.0)
                qb = CorrQuery.total(pair(b), pair(a), 1.0)
                assert (
                    implied_corr(qa, snap, clamp=True).value
                    == implied_corr(qb, snap, clamp=True).value
                )

    def test_all_orientations_match_oracle(self):
        # every sharing configuration and orientation against the analytic world
        rng = np.random.default_rng(59)
        for _ in range(50):
            world = DriverWorld.random(["AAA", "BBB", "CCC", "DDD"], rng)
            snap = world.snapshot()
            cases = [
                ("AAA/BBB", "AAA/CCC"),  # shared denominating
                ("AAA/BBB", "CCC/BBB"),  # shared foreign
                ("AAA/BBB", "BBB/CCC"),  # pair_a foreign = pair_b denominating
                ("BBB/AAA", "AAA/CCC"),  # pair_a denominating = pair_b foreign
                ("AAA/BBB", "CCC/DDD"),  # four distinct
                ("BBB/AAA", "DDD/CCC"),  # four distinct, both flipped
            ]
            for label_a, label_b in cases:
                got = implied_corr(
                    CorrQuery.total(pair(label_a), pair(label_b), 1.0), snap, clamp=True
                ).value
                ca, cb = label_a.split("/"), label_b.split("/")
                want = world.bucket_corr(0, ca[0], ca[1], cb[0], cb[1])
                assert abs(got - want) <= 1e-12, (label_a, label_b)

    def test_every_returned_value_is_in_range(self):
        # random (not necessarily consistent) vol surfaces: the result is
        # either a correlation in [-1, 1] or a range error, never outside
        rng = np.random.default_rng(67)
        labels = ["AAA/BBB", "AAA/CCC", "AAA/DDD", "BBB/CCC", "BBB/DDD", "CCC/DDD"]
        for _ in range(300):
            doc = snapshot_doc(
                spots={p: 1.0 for p in labels},
                vols={p: [(1.0, rng.uniform(0.05, 0.5))] for p in labels},
                rates={c: [(1.0, 0.0)] for c in ["AAA", "BBB", "CCC", "DDD"]},
            )
            snap = loads_snapshot(json.dumps(doc))
            query = CorrQuery.total(pair("AAA/BBB"), pair("CCC/DDD"), 1.0)
            try:
                value = implied_corr(query, snap).value
            except CorrelationRangeError:
                continue
            assert -1.0 <= value <= 1.0

    def test_missing_vol_names_pair_and_horizon(self, three_ccy_snapshot):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/GBP"), 1.0)
        with pytest.raises(MissingDataError, match="GBP"):
            implied_corr(query, three_ccy_snapshot)

    def test_provenance_recomputes_by_hand(self, three_ccy_snapshot):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/JPY"), 2.0)
        res = implied_corr(query, three_ccy_snapshot)
        by_role = {v.role: v.sigma for v in res.provenance.vols}
        manually = (
            by_role["sigma_ik"] ** 2 + by_role["sigma_ij"] ** 2 - by_role["sigma_jk"] ** 2
        ) / (2 * by_role["sigma_ik"] * by_role["sigma_ij"])
        assert manually == pytest.approx(res.value, rel=1e-15)


def two_bucket_triangle_doc():
    # Instantaneous rho 0.8 on (0,1], 0.2 on (1,2], constant instantaneous
    # vols 0.10 (EUR/JPY) and 0.15 (EUR/USD); the USD/JPY cross vols follow
    # from the variance of the difference of the two log-rates.
    s_ij, s_ik = 0.15, 0.10  # i=EUR, j=USD, k=JPY
    tv1 = s_ij**2 + s_ik**2 - 2 * 0.8 * s_ij * s_ik
    tv2 = tv1 + s_ij**2 + s_ik**2 - 2 * 0.2 * s_ij * s_ik
    return snapshot_doc(
        spots={"EUR/USD": 1.25, "EUR/JPY": 125.0, "USD/JPY": 100.0},
        vols={
            "EUR/USD": [(1.0, s_ij), (2.0, s_ij)],
            "EUR/JPY": [(1.0, s_ik), (2.0, s_ik)],
            "USD/JPY": [(1.0, math.sqrt(tv1)), (2.0, math.sqrt(tv2 / 2.0))],
        },
        rates={"EUR": [(2.0, 0.0)], "USD": [(2.0, 0.0)], "JPY": [(2.0, 0.0)]},
    )


class TestTermCorr:
    def test_flat_structures_give_constant_correlation(self, three_ccy_snapshot):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/JPY"), 2.0)
        single = implied_corr(query, three_ccy_snapshot).value
        pc = term_corr(query, three_ccy_snapshot, [1.0, 2.0])
        assert pc.breakpoints == (0.0, 1.0, 2.0)
        for value in pc.values:
            assert value == pytest.approx(single, rel=1e-14)

    def test_two_bucket_recovery(self):
        snap = loads_snapshot(json.dumps(two_bucket_triangle_doc()))
        query = CorrQuery.total(pair("EUR/JPY"), pair("EUR/USD"), 2.0)
        pc = term_corr(query, snap, [1.0, 2.0])
        assert abs(pc.values[0] - 0.8) <= 1e-12
        assert abs(pc.values[1] - 0.2) <= 1e-12

    def test_integrated_matches_single_horizon(self):
        snap = loads_snapshot(json.dumps(two_bucket_triangle_doc()))
        query = CorrQuery.total(pair("EUR/JPY"), pair("EUR/USD"), 2.0)
        pc = term_corr(query, snap, [1.0, 2.0])
        sig_a = bootstrap_piecewise_vol(snap.vol_structure(pair("EUR/JPY")))
        sig_b = bootstrap_piecewise_vol(snap.vol_structure(pair("EUR/USD")))
        integrated = integrated_correlation(pc, sig_a, sig_b, 2.0)
        single = implied_corr(query, snap).value
        assert abs(integrated - single) <= 1e-12

    def test_errors_carry_bucket_index(self, three_ccy_snapshot):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/GBP"), 2.0)
        with pytest.raises(MissingDataError, match=r"bucket 0 \(0\.0, 1\.0\]"):
            term_corr(query, three_ccy_snapshot, [1.0, 2.0])


def perturbed_matrix_doc(sigma_bd: float) -> dict:
    # Pairs AAA/BBB, CCC/DDD, AAA/CCC; sigma_BD is the knob: 0.3 keeps the
    # 3x3 matrix positive definite, 0.42 drives it indefinite.
    return snapshot_doc(
        spots={p: 1.0 for p in
               ["AAA/BBB", "AAA/CCC", "AAA/DDD", "BBB/CCC", "BBB/DDD", "CCC/DDD"]},
        vols={
            "AAA/BBB": [(1.0, 0.2)],
            "AAA/CCC": [(1.0, 0.2)],
            "AAA/DDD": [(1.0, math.sqrt(0.12))],
            "BBB/CCC": [(1.0, 0.2)],
            "BBB/DDD": [(1.0, sigma_bd)],
            "CCC/DDD": [(1.0, 0.2)],
        },
        rates={c: [(1.0, 0.0)] for c in ["AAA", "BBB", "CCC", "DDD"]},
    )


MATRIX_PAIRS = [FxPair.parse("AAA/BBB"), FxPair.parse("CCC/DDD"), FxPair.parse("AAA/CCC")]


class TestBuildMatrix:
    def test_two_pairs(self, three_ccy_snapshot):
        matrix = build_matrix(
            [pair("EUR/USD"), pair("EUR/JPY")], three_ccy_snapshot, [1.0]
        )
        mat = matrix.matrices[0]
        assert mat[0, 0] == 1.0 and mat[1, 1] == 1.0
        assert mat[0, 1] == mat[1, 0] == pytest.approx(0.5, rel=1e-15)
        assert matrix.statuses[0].status == "psd"

    def test_consistent_world_matches_oracle_and_is_psd(self):
        rng = np.random.default_rng(61)
        world = DriverWorld.random(["AAA", "BBB", "CCC"], rng)
        snap = world.snapshot()
        pairs = [pair("AAA/BBB"), pair("AAA/CCC"), pair("BBB/CCC")]
        matrix = build_matrix(pairs, snap, [1.0])
        mat = matrix.matrices[0]
        for a in range(3):
            for b in range(3):
                ca = pairs[a]
                cb = pairs[b]
                want = (
                    1.0
                    if a == b
                    else world.bucket_corr(
                        0, ca.denominating.code, ca.foreign.code,
                        cb.denominating.code, cb.foreign.code,
                    )
                )
                assert abs(mat[a, b] - want) <= 1e-12
        assert matrix.statuses[0].min_eigenvalue >= -1e-10
        assert matrix.statuses[0].status == "psd"

    def test_matrix_is_exactly_symmetric_with_unit_diagonal(self, four_ccy_equal_snapshot):
        pairs = [pair("AUD/CAD"), pair("CHF/DKK"), pair("AUD/CHF")]
        matrix = build_matrix(pairs, four_ccy_equal_snapshot, [0.5, 1.0])
        for mat in matrix.matrices:
            assert np.array_equal(mat, mat.T)
            assert np.all(np.diag(mat) == 1.0)
            assert np.all(np.abs(mat) <= 1.0)

    def test_perturbed_vols_flag_indefinite(self):
        snap = loads_snapshot(json.dumps(perturbed_matrix_doc(0.42)))
        matrix = build_matrix(MATRIX_PAIRS, snap, [1.0])
        assert matrix.statuses[0].status == "indefinite"
        assert matrix.statuses[0].min_eigenvalue < -1e-6

    def test_repair_produces_unit_diagonal_psd(self):
        snap = loads_snapshot(json.dumps(perturbed_matrix_doc(0.42)))
        matrix = build_matrix(MATRIX_PAIRS, snap, [1.0], repair=True)
        status = matrix.statuses[0]
        assert status.status == "repaired"
        assert status.min_eigenvalue >= -1e-10
        assert status.frobenius_change > 0.0
        mat = matrix.matrices[0]
        assert np.all(np.diag(mat) == 1.0)
        assert np.array_equal(mat, mat.T)

    def test_unperturbed_matrix_stays_psd(self):
        snap = loads_snapshot(json.dumps(perturbed_matrix_doc(0.30)))
        matrix = build_matrix(MATRIX_PAIRS, snap, [1.0])
        assert matrix.statuses[0].status == "psd"

    def test_entry_failure_names_entry(self, three_ccy_snapshot):
        with pytest.raises(MissingDataError, match="matrix entry"):
            build_matrix(
                [pair("EUR/USD"), pair("EUR/GBP")], three_ccy_snapshot, [1.0]
            )

    def test_duplicate_canonical_pair_rejected(self, three_ccy_snapshot):
        with pytest.raises(ValidationError, match="duplicates"):
            build_matrix(
                [pair("EUR/USD"), pair("USD/EUR")], three_ccy_snapshot, [1.0]
            )

    def test_duplicate_check_hashes_each_pair(self, monkeypatch):
        # a scan of the pairs seen so far costs one FxPair comparison per earlier pair
        codes = ["AAA", "BBB", "CCC", "DDD", "EEE"]
        labels = [f"{a}/{b}" for n, a in enumerate(codes) for b in codes[n + 1:]]
        snap = loads_snapshot(json.dumps(snapshot_doc(
            spots={label: 1.0 for label in labels}, vols={label: [(1.0, 0.2)] for label in labels},
            rates={c: [(1.0, 0.0)] for c in codes},
        )))
        calls = []
        compare = FxPair.__eq__
        monkeypatch.setattr(FxPair, "__eq__", lambda a, b: calls.append(1) or compare(a, b))
        build_matrix([pair(label) for label in labels], snap, [1.0])
        assert len(calls) < len(labels)

    @pytest.mark.parametrize("pairs", [[], ["EUR/USD"]])
    def test_needs_two_pairs(self, three_ccy_snapshot, pairs):
        with pytest.raises(ValidationError, match="need at least two pairs"):
            build_matrix([pair(label) for label in pairs], three_ccy_snapshot, [1.0])


def _scanned_bucket(breakpoints, t):
    """The bucket of t by a linear scan over the right ends."""
    return next(n for n in range(len(breakpoints) - 1) if t <= breakpoints[n + 1])


class TestBucketIndex:
    @pytest.mark.parametrize("breakpoints", [(0.0, 0.25, 0.5, 1.0, 2.0), (0.0, 1.0)])
    def test_matches_a_linear_scan(self, breakpoints):
        n = len(breakpoints) - 1
        matrix = BucketedCorrelationMatrix(
            ("EUR/USD",), breakpoints, (np.eye(1),) * n, (BucketStatus("psd", 1.0),) * n
        )
        times = [t for b in breakpoints for t in (b, math.nextafter(b, math.inf))]
        times = [t for t in times if 0 < t <= breakpoints[-1]] + [0.1]
        for t in times:
            assert matrix.bucket_index(t) == _scanned_bucket(breakpoints, t), t
        for t in (0.0, math.nextafter(breakpoints[-1], math.inf), math.nan, True, "0.5"):  # not a bool or a string
            with pytest.raises(ValidationError, match=f"t={t} outside"):
                matrix.bucket_index(t)


class TestNonFiniteVols:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_triangle_rejects_non_finite_cross_vol(self, bad):
        with pytest.raises(ValidationError):
            triangle_corr(0.2, 0.2, bad, clamp=True)

    @pytest.mark.parametrize("args", [(math.nan, 0.2, 0.2), (0.2, math.nan, 0.2), (math.inf, 0.2, 0.2)])
    def test_triangle_rejects_non_finite_queried_vol(self, args):
        with pytest.raises(UndefinedCorrelationError):
            triangle_corr(*args, clamp=True)

    @pytest.mark.parametrize("slot", range(2, 6))
    def test_cross_rejects_nan_cross_vol(self, slot):
        vols = [0.2] * 6
        vols[slot] = math.nan
        with pytest.raises(ValidationError):
            cross_corr(*vols, clamp=True)

    @pytest.mark.parametrize("slot", range(2))
    def test_cross_rejects_nan_queried_vol(self, slot):
        vols = [0.2] * 6
        vols[slot] = math.nan
        with pytest.raises(UndefinedCorrelationError):
            cross_corr(*vols, clamp=True)


def reference_matrix(pairs, snap, breakpoints, clamp):
    """The entry-by-entry loop: one implied_corr query per upper entry."""
    matrices = []
    for n, (left, right) in enumerate(zip(breakpoints, breakpoints[1:])):
        mat = np.eye(len(pairs))
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                query = CorrQuery(pairs[a], pairs[b], (left, right))
                try:
                    value = implied_corr(query, snap, clamp=clamp).value
                except (CorrelationRangeError, MissingDataError, UndefinedCorrelationError) as exc:
                    raise type(exc)(
                        f"matrix entry ({pairs[a]}, {pairs[b]}) bucket {n} ({left}, {right}]: {exc}"
                    ) from exc
                mat[a, b] = mat[b, a] = value
        matrices.append(mat)
    return matrices


def outcome(fn):
    """The matrices, or the error's type and message; and the clamp warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("matrices", list(fn()))
        except Exception as exc:  # compared, not handled
            result = ("error", (type(exc), str(exc)))
    clamps = [str(w.message) for w in caught if w.category is CorrelationClampWarning]
    return result, clamps


class TestNonFiniteMatrixEntries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_entry_rejected_naming_its_bucket(self, bad):
        matrix = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValidationError, match="bucket 1 has a non-finite entry"):
            BucketedCorrelationMatrix(
                ("EUR/USD", "EUR/JPY"), (0.0, 0.5, 1.0), (np.eye(2), matrix),
                (BucketStatus("psd", 1.0),) * 2,
            )

    @pytest.mark.parametrize("matrices, n_statuses, message", [
        ((np.eye(2),), 2, "one matrix per bucket required"),
        ((np.eye(2),) * 3, 3, "one matrix per bucket required"),
        ((np.eye(2),) * 2, 1, "one status per bucket required"),
        ((np.eye(2), np.eye(3)), 2, r"matrix shape \(3, 3\) does not match 2 pairs"),
    ], ids=["too-few-matrices", "too-many-matrices", "status-count", "shape"])
    def test_bucket_counts_and_shapes(self, matrices, n_statuses, message):
        with pytest.raises(ValidationError, match=message):
            BucketedCorrelationMatrix(
                ("EUR/USD", "EUR/JPY"), (0.0, 0.5, 1.0), matrices, (BucketStatus("psd", 1.0),) * n_statuses,
            )

    @pytest.mark.parametrize("status", ["psd", ("psd", 1.0, 0.0), None])
    def test_statuses_must_be_records(self, status):
        with pytest.raises(ValidationError, match="statuses must be BucketStatus records"):
            BucketedCorrelationMatrix(("EUR/USD", "EUR/JPY"), (0.0, 1.0), (np.eye(2),), (status,))


class TestMatrixMatchesQueries:
    CODES = ["AAA", "BBB", "CCC", "DDD", "EEE"]

    def random_doc(self, rng, drop=None):
        labels = [f"{a}/{b}" for n, a in enumerate(self.CODES) for b in self.CODES[n + 1:]]
        vols = {}
        for label in labels:
            s1 = rng.uniform(0.02, 0.5)
            s2 = math.sqrt(s1 * s1 * 0.5 + rng.uniform(0.0, 0.3) ** 2 * 0.5)
            vols[label] = [(0.5, s1), (1.0, s2)]
        if rng.uniform() < 0.3:
            vols[labels[rng.integers(len(labels))]][0] = (0.5, 0.0)
        if drop is not None:
            del vols[drop]
        return snapshot_doc(
            spots={label: 1.0 for label in labels},
            vols=vols,
            rates={c: [(1.0, 0.0)] for c in self.CODES},
        )

    def test_every_entry_equals_its_query_exactly(self):
        rng = np.random.default_rng(71)
        for trial in range(60):
            drop = "BBB/DDD" if trial % 7 == 3 else None
            snap = loads_snapshot(json.dumps(self.random_doc(rng, drop)))
            size = int(rng.integers(2, 8))
            labels = rng.choice(
                [f"{a}/{b}" for a in self.CODES for b in self.CODES if a != b], size, replace=False
            )
            pairs = [pair(label) for label in labels]
            canon = [canonicalize(p)[0] for p in pairs]
            if len(set(canon)) < len(canon):
                continue
            for clamp in (False, True):
                got, got_clamps = outcome(
                    lambda: build_matrix(pairs, snap, [0.25, 0.5, 1.0], clamp=clamp).matrices
                )
                want, want_clamps = outcome(
                    lambda: reference_matrix(canon, snap, (0.0, 0.25, 0.5, 1.0), clamp)
                )
                assert got_clamps == want_clamps
                assert got[0] == want[0]
                if want[0] == "error":
                    assert got == want
                else:
                    assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))

    def test_golden_world_matrix_equals_queries(self):
        snap = load_snapshot(Path(__file__).parent / "data" / "golden" / "world.json")
        labels = ["EUR/GBP", "EUR/JPY", "EUR/USD", "GBP/JPY", "GBP/USD", "JPY/USD"]
        pairs = [pair(label) for label in labels]
        got = build_matrix(pairs, snap, [0.5, 1.0, 2.0]).matrices
        want = reference_matrix(pairs, snap, (0.0, 0.5, 1.0, 2.0), False)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def reference_statuses(matrices, repair):
    """The per-bucket PSD check: one eigvalsh (and one repair) per matrix."""
    repaired, statuses = [], []
    for mat in matrices:
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig >= -PSD_TOL:
            status = BucketStatus("psd", min_eig)
        elif repair:
            mat, change = _clip_to_psd(mat)
            status = BucketStatus("repaired", float(np.linalg.eigvalsh(mat)[0]), change)
        else:
            status = BucketStatus("indefinite", min_eig)
        repaired.append(mat)
        statuses.append(status)
    return repaired, statuses


class TestOnePassMatrix:
    """The whole-grid build equals the entry-by-entry queries and the
    per-bucket eigenvalue check, bit for bit."""

    GOLDEN = Path(__file__).parent / "data" / "golden"

    def check(self, pairs, snap, buckets, repair=False):
        got = build_matrix(pairs, snap, buckets, repair=repair)
        canon = [canonicalize(p)[0] for p in pairs]
        want, statuses = reference_statuses(reference_matrix(canon, snap, got.breakpoints, False), repair)
        assert len(got.matrices) == len(want) == len(got.breakpoints) - 1
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.matrices, want))
        assert got.statuses == tuple(statuses)
        return got

    def test_weekly_grid(self):
        snap = load_snapshot(self.GOLDEN / "world.json")
        pairs = [pair(label) for label in ["EUR/GBP", "JPY/EUR", "EUR/USD", "GBP/JPY", "USD/GBP", "JPY/USD"]]
        got = self.check(pairs, snap, [k / 52 for k in range(1, 53)])
        assert got.n_buckets == 52

    @pytest.mark.parametrize("n_buckets", [1, 3, 10])
    def test_repair_over_several_buckets(self, n_buckets):
        snap = load_snapshot(self.GOLDEN / "perturbed.json")
        pairs = MATRIX_PAIRS
        for repair in (False, True):
            got = self.check(pairs, snap, [k / n_buckets for k in range(1, n_buckets + 1)], repair)
            assert {s.status for s in got.statuses} == {"repaired" if repair else "indefinite"}

    def test_zero_forward_vol_in_a_later_bucket_names_it(self):
        # EUR/USD's total variance is 0.0625 at T = 0.25 and at T = 1: zero forward vol on bucket 2 only
        doc = three_ccy_doc()
        for entry in doc["vols"]:
            entry["points"] = [{"T": 0.25, "sigma": 0.5}, {"T": 1.0, "sigma": 0.5}]
        doc["vols"][0]["points"][1]["sigma"] = 0.25
        snap = loads_snapshot(json.dumps(doc))
        pairs = [pair("EUR/USD"), pair("EUR/JPY")]
        message = r"matrix entry \(EUR/USD, EUR/JPY\) bucket 2 \(0\.25, 1\.0\]: zero or non-finite implied vol"
        with pytest.raises(UndefinedCorrelationError, match=message):
            build_matrix(pairs, snap, [0.125, 0.25, 1.0])
        got = outcome(lambda: build_matrix(pairs, snap, [0.125, 0.25, 1.0]).matrices)
        assert got == outcome(lambda: reference_matrix(pairs, snap, (0.0, 0.125, 0.25, 1.0), False))
        self.check(pairs, snap, [0.125, 0.25])

    @pytest.mark.parametrize("repair", [False, True])
    def test_matrices_are_read_only(self, repair):
        snap = load_snapshot(self.GOLDEN / "perturbed.json")
        pairs = MATRIX_PAIRS
        for mat in build_matrix(pairs, snap, [0.5, 1.0], repair=repair).matrices:
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 1] = 0.0


class TestNonFiniteHorizons:
    @pytest.mark.parametrize("end", [math.inf, math.nan])
    def test_query_rejects_non_finite_end(self, end):
        with pytest.raises(ValidationError, match="horizon"):
            CorrQuery.total(pair("EUR/USD"), pair("EUR/JPY"), end)

    def test_query_stores_a_tuple_horizon(self):
        query = CorrQuery(pair("EUR/USD"), pair("EUR/JPY"), [0.0, 1.0])
        assert type(query.horizon) is tuple
        assert hash(query) == hash(CorrQuery.total(pair("EUR/USD"), pair("EUR/JPY"), 1.0))

    @pytest.mark.parametrize("horizon", [(0.0, 1.0, 2.0), (1.0,), 1.0, "01", (0.0, "1"), (False, 1.0)],
                             ids=["three", "one", "scalar", "str", "str-end", "bool-start"])
    def test_query_needs_two_numbers(self, horizon):
        with pytest.raises(ValidationError, match="horizon must be finite with 0 <= start < end"):
            CorrQuery(pair("EUR/USD"), pair("EUR/JPY"), horizon)

    @pytest.mark.parametrize("buckets", [[1.0, math.inf], [math.nan, 1.0], [0.5, math.nan]])
    def test_buckets_reject_non_finite_boundary(self, three_ccy_snapshot, buckets):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/JPY"), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                term_corr(query, three_ccy_snapshot, buckets)


class TestHairlineBuckets:
    """A bucket narrower than MIN_BUCKET_WIDTH is rejected by every entry
    point that takes bucket boundaries, with the same message."""

    @pytest.mark.parametrize("buckets", [(1e-13, 1.0), (0.5, 0.5 + 1e-13, 1.0)])
    @pytest.mark.parametrize("entry", [bucket_corrs, term_corr])
    def test_rejected(self, three_ccy_snapshot, entry, buckets):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/JPY"), 1.0)
        with pytest.raises(ValidationError, match=r"has width .* < 1e-12"):
            entry(query, three_ccy_snapshot, buckets)

    def test_matrix_rejects_hairline_bucket(self, three_ccy_snapshot):
        with pytest.raises(ValidationError, match=r"bucket 0 has width"):
            build_matrix([pair("EUR/USD"), pair("EUR/JPY")], three_ccy_snapshot, (1e-13, 1.0))

    def test_min_width_accepted(self, three_ccy_snapshot):
        query = CorrQuery.total(pair("EUR/USD"), pair("EUR/JPY"), 1.0)
        results = bucket_corrs(query, three_ccy_snapshot, (MIN_BUCKET_WIDTH, 1.0))
        assert len(results) == 2


class TestCorrelationMatrixChecks:
    """A matrix that is not a correlation matrix is rejected, naming its bucket."""

    def make(self, matrix):
        # buckets 1 and 2 hold the matrix: the first is named
        return BucketedCorrelationMatrix(
            ("EUR/USD", "EUR/JPY"), (0.0, 0.5, 1.0, 2.0), (np.eye(2), np.array(matrix), np.array(matrix)),
            (BucketStatus("psd", 1.0),) * 3,
        )

    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.9], [-0.9, 1.0]],
        [[1.0, 0.5], [math.nextafter(0.5, 1.0), 1.0]],
        [[4.0, 0.5], [0.5, 4.0]],
        [[1.0, 0.5], [0.5, math.nextafter(1.0, 0.0)]],
        [[1.0, 1.5], [1.5, 1.0]],
        [[1.0, -math.nextafter(1.0, 2.0)], [-math.nextafter(1.0, 2.0), 1.0]],
    ], ids=["one-triangle", "one-ulp-asymmetric", "scaled-diagonal", "diagonal-below-1", "above-1", "below-minus-1"])
    def test_rejected_naming_its_bucket(self, matrix):
        with pytest.raises(ValidationError, match=r"bucket 1 is not symmetric with a unit diagonal and entries in \[-1, 1\]"):
            self.make(matrix)

    def test_non_finite_entry_is_reported_first(self):
        with pytest.raises(ValidationError, match="bucket 1 has a non-finite entry"):
            self.make([[2.0, math.nan], [0.5, 1.0]])

    def test_bounds_are_accepted(self):
        assert self.make([[1.0, -1.0], [-1.0, 1.0]]).n_buckets == 3

    @pytest.mark.parametrize("breakpoints, message", [
        ((0.0, 2.0, 1.0), "bucket 1 has width -1 < 1e-12"),  # t in (1, 2] would read bucket 0
        ((0.0, 1.0, 1.0 + 1e-13), "bucket 1 has width"),
        ((0.0, True), r"breakpoints must be finite, > 0 and strictly increasing, got \(True,\)"),
    ], ids=["decreasing", "hairline", "bool"])
    def test_breakpoints_rejected(self, breakpoints, message):
        n = len(breakpoints) - 1
        with pytest.raises(ValidationError, match=message):
            BucketedCorrelationMatrix(("EUR/USD",), breakpoints, (np.eye(1),) * n, (BucketStatus("psd", 1.0),) * n)


class TestMatrixInputs:
    """The matrix takes its inputs as the other frozen constructors do:
    distinct canonical pair labels, tuples, and read-only float copies."""

    PSD = (BucketStatus("psd", 0.5),)

    @pytest.mark.parametrize("labels, message", [
        (("nonsense", "x"), "pair label must look like 'EUR/USD'"),
        (("EUR/USD", "EUR/USD"), "pairs must be distinct labels in canonical orientation"),
        (("USD/EUR", "JPY/EUR"), "pairs must be distinct labels in canonical orientation"),
    ], ids=["not-pairs", "repeated", "not-canonical"])
    def test_labels_rejected(self, labels, message):
        # ("USD/EUR", "JPY/EUR") used to build, and simulating USD/EUR then
        # reported its correlation entry missing
        with pytest.raises(ValidationError, match=message):
            BucketedCorrelationMatrix(labels, (0.0, 1.0), (np.eye(2),), self.PSD)

    def test_nested_lists_are_read_as_a_float_matrix(self):
        matrix = BucketedCorrelationMatrix(("EUR/JPY", "EUR/USD"), (0.0, 1.0), ([[1, 0.5], [0.5, 1]],), self.PSD)
        assert matrix.matrices[0].dtype == np.float64
        assert matrix.matrices[0].tolist() == [[1.0, 0.5], [0.5, 1.0]]

    @pytest.mark.parametrize("matrix, message", [
        (np.eye(2, dtype=bool), "bucket 0 holds bool entries, not numbers"),
        ([[1.0, 0.5], [0.5]], "bucket 0 matrix has rows of different lengths"),
    ], ids=["bool", "ragged"])
    def test_matrices_that_are_not_numbers_rejected(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            BucketedCorrelationMatrix(("EUR/JPY", "EUR/USD"), (0.0, 1.0), (matrix,), self.PSD)

    def test_lists_are_stored_as_tuples(self):
        matrix = BucketedCorrelationMatrix(["EUR/JPY", "EUR/USD"], [0.0, 1.0], [np.eye(2)], list(self.PSD))
        assert all(type(field) is tuple for field in
                   (matrix.pairs, matrix.breakpoints, matrix.matrices, matrix.statuses))

    def test_a_checked_matrix_cannot_change(self):
        given = np.array([[1.0, 0.5], [0.5, 1.0]])
        matrix = BucketedCorrelationMatrix(("EUR/JPY", "EUR/USD"), (0.0, 1.0), (given,), self.PSD)
        given[0, 1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            matrix.matrices[0][0, 0] = 5.0
        assert matrix.matrices[0].tolist() == [[1.0, 0.5], [0.5, 1.0]]


class TestMatrixEntrySettlement:
    """An out-of-range or missing-vol entry is settled from the build's own
    vols, with the messages and warnings of its query."""

    GOLDEN = Path(__file__).parent / "data" / "golden"

    def test_missing_vols_are_reported_by_role(self):
        # AUD/CAD vs CHF/DKK is a cross entry whose roles sigma_ik (AUD/DKK)
        # and sigma_jk (CAD/DKK) are both missing: sigma_ik comes first
        doc = four_ccy_equal_doc()
        doc["vols"] = [v for v in doc["vols"] if v["pair"] not in ("AUD/DKK", "CAD/DKK")]
        snap = loads_snapshot(json.dumps(doc))
        pairs = [pair("AUD/CAD"), pair("CHF/DKK")]
        with pytest.raises(MissingDataError) as query:
            implied_corr(CorrQuery(*pairs, (0.0, 0.5)), snap)
        assert str(query.value) == "no vol term structure for pair AUD/DKK (needed over (0.0, 0.5])"
        with pytest.raises(MissingDataError) as info:
            build_matrix(pairs, snap, [0.5, 1.0])
        assert str(info.value) == f"matrix entry (AUD/CAD, CHF/DKK) bucket 0 (0.0, 0.5]: {query.value}"
        assert type(info.value.__cause__) is MissingDataError and str(info.value.__cause__) == str(query.value)

    def test_vols_warn_once_and_clamps_name_the_caller(self):
        # quotes end at T=1: each of the 3 currency pairs reads T=2 and T=3
        # once, 2 warnings each
        snap = load_snapshot(self.GOLDEN / "arb.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_matrix([pair("EUR/USD"), pair("EUR/JPY"), pair("JPY/USD")], snap, [1, 2, 3], clamp=True)
        extrapolations = [w for w in caught if w.category is ExtrapolationWarning]
        clamps = [w for w in caught if w.category is CorrelationClampWarning]
        assert len(extrapolations) == len({str(w.message) for w in extrapolations}) == 6
        assert len(clamps) == 9 and {w.filename for w in clamps} == {__file__}


def later_bucket_doc():
    # Every vol 0.5 at T = 0.25; at T = 1, EUR/USD 0.25, EUR/JPY 0.5 and
    # USD/JPY 0.6.  EUR/USD's total variance is 0.0625 at both: its forward
    # vol on (0.25, 1] is zero, the edge of calendar arbitrage, and there the
    # JPY triangle implies a correlation above 1.  Bucket (0, 0.25] is sound.
    doc = three_ccy_doc()
    for entry in doc["vols"]:
        entry["points"] = [{"T": 0.25, "sigma": 0.5}, {"T": 1.0, "sigma": 0.5}]
    doc["vols"][0]["points"][1]["sigma"] = 0.25
    doc["vols"][2]["points"][1]["sigma"] = 0.6
    return doc


class TestTermCorrIsBucketCorrsValues:
    """term_corr returns the values of bucket_corrs, bit for bit, with the
    same notices (filename and line included) and the same errors, and
    builds no provenance records."""

    WORLD = load_snapshot(Path(__file__).parent / "data" / "golden" / "world.json")  # quotes 0.5, 1, 2
    LATER = loads_snapshot(json.dumps(later_bucket_doc()))
    MISSING = loads_snapshot(json.dumps({**three_ccy_doc(), "vols": three_ccy_doc()["vols"][:2]}))

    CASES = {  # (snapshot, pair_a, pair_b, buckets, clamp)
        "triangle": (WORLD, "USD/GBP", "USD/JPY", (0.25, 0.5, 1, 2), False),
        "cross": (WORLD, "JPY/USD", "EUR/GBP", (2, 0.5, 1), False),
        "degenerate": (WORLD, "EUR/USD", "EUR/USD", (0.5, 1.5), False),
        "inverse": (WORLD, "EUR/USD", "USD/EUR", (0, 1, 2), False),
        "triangle-beyond": (WORLD, "GBP/EUR", "GBP/USD", (1, 3), False),
        "cross-beyond": (WORLD, "GBP/JPY", "USD/EUR", (0.5, 2.5, 4), True),
        "missing-vol": (MISSING, "EUR/USD", "EUR/JPY", (0.5, 1), False),
        "later-bucket-queried": (LATER, "EUR/USD", "EUR/JPY", (0.125, 0.25, 1), False),
        "later-bucket-cross": (LATER, "JPY/EUR", "JPY/USD", (0.125, 0.25, 1), False),
        "later-bucket-clamp": (LATER, "JPY/EUR", "JPY/USD", (0.125, 0.25, 1), True),
    }

    @staticmethod
    def run(fn, snap, pair_a, pair_b, buckets, clamp):
        """(breakpoints, values) or the error, and every notice with its place."""
        query = CorrQuery.total(pair(pair_a), pair(pair_b), max(buckets))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = fn(query, snap, buckets, clamp=clamp)  # one line for both functions
                if isinstance(got, list):
                    got = ((0.0, *(r.provenance.end for r in got)), tuple(r.value for r in got))
                else:
                    got = (got.breakpoints, got.values)
                result = ("values", [[x.hex() for x in xs] for xs in got])
            except Exception as exc:  # compared, not handled
                result = ("error", type(exc), str(exc), type(exc.__cause__), str(exc.__cause__))
        return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_values_notices_and_errors(self, case):
        want = self.run(bucket_corrs, *self.CASES[case])
        assert self.run(term_corr, *self.CASES[case]) == want

    @pytest.mark.parametrize("case, error, prefix", [
        ("missing-vol", MissingDataError, "bucket 0 (0.0, 0.5]: "),
        ("later-bucket-queried", UndefinedCorrelationError, "bucket 2 (0.25, 1.0]: "),
        ("later-bucket-cross", CorrelationRangeError, "bucket 2 (0.25, 1.0]: "),
    ])
    def test_error_cases_fail_where_built_to(self, case, error, prefix):
        (kind, got, message, *_), _ = self.run(term_corr, *self.CASES[case])
        assert kind == "error" and got is error and message.startswith(prefix)

    @pytest.mark.parametrize("case", ["cross-beyond", "later-bucket-clamp"])
    def test_notice_cases_notify(self, case):
        (kind, *_), notices = self.run(term_corr, *self.CASES[case])
        assert kind == "values" and notices and all(w[2] == __file__ for w in notices)

    def test_term_corr_builds_no_records(self, monkeypatch):
        from fxcorr import correlation

        counts = dict.fromkeys(("VolUsed", "CorrProvenance", "CorrResult"), 0)
        for name in counts:
            def counting(*args, _real=getattr(correlation, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(correlation, name, counting)
        query = CorrQuery.total(pair("JPY/USD"), pair("EUR/GBP"), 2.0)  # a cross query: 6 vols a bucket
        for fn, want in ((term_corr, (0, 0, 0)), (bucket_corrs, (24, 4, 4))):
            counts.update(dict.fromkeys(counts, 0))
            fn(query, self.WORLD, (0.25, 0.5, 1, 2))
            assert tuple(counts.values()) == want, fn.__name__
