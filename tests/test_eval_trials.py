import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsv.errors import DigitsvError, TrialParseError
from digitsv.eval_trials import (
    SRE08,
    SRE10,
    DcfParams,
    ScoreSet,
    TrialRecord,
    compute_eer,
    compute_min_dcf,
    format_report,
    parse_trials,
    partition_trials,
)


def brute_force_eer(scores, labels):
    """Independent scalar re-computation: error rates by counting at each
    threshold, then the linear crossing of miss and false-alarm."""
    scores = list(map(float, scores))
    targets = [s for s, l in zip(scores, labels) if l]
    nons = [s for s, l in zip(scores, labels) if not l]
    points = [(0.0, 1.0)]
    for th in sorted(set(scores)):
        miss = sum(1 for s in targets if s < th) / len(targets)
        fa = sum(1 for s in nons if s >= th) / len(nons)
        points.append((miss, fa))
    points.append((1.0, 0.0))
    for (m0, f0), (m1, f1) in zip(points[:-1], points[1:]):
        d0, d1 = m0 - f0, m1 - f1
        if d1 >= 0:
            if d1 == 0:
                return f1
            t = -d0 / (d1 - d0)
            return f0 + t * (f1 - f0)
    raise AssertionError("no crossing found")


def brute_force_min_dcf(scores, labels, params):
    scores = list(map(float, scores))
    targets = [s for s, l in zip(scores, labels) if l]
    nons = [s for s, l in zip(scores, labels) if not l]
    thresholds = [-np.inf, *sorted(set(scores)), np.inf]
    best = np.inf
    for th in thresholds:
        miss = sum(1 for s in targets if s < th) / len(targets)
        fa = sum(1 for s in nons if s >= th) / len(nons)
        cost = params.c_miss * params.p_target * miss \
            + params.c_fa * (1 - params.p_target) * fa
        best = min(best, cost)
    return best / min(params.c_miss * params.p_target,
                      params.c_fa * (1 - params.p_target))


class TestParsing:
    def test_good_lines(self):
        recs = parse_trials(["s1 u1 12345 TC", "s1 u2 54321 TW",
                             "# comment", "s2 u1 12345 IC"])
        assert len(recs) == 3
        assert recs[0] == TrialRecord("s1", "u1", "12345", "TC")

    def test_bad_category_reports_line(self):
        with pytest.raises(TrialParseError) as err:
            parse_trials(["s1 u1 12345 TC", "s1 u2 11111 XX"])
        assert err.value.line_no == 2

    def test_bad_field_count(self):
        with pytest.raises(TrialParseError):
            parse_trials(["s1 u1 12345"])

    @pytest.mark.parametrize("prompt", ["12a45", "1\u00b23"], ids=["letter", "superscript"])
    def test_bad_prompt_reports_line(self, prompt):
        # only 0-9: "\u00b2" (superscript two) passes str.isdigit
        with pytest.raises(TrialParseError) as err:
            parse_trials(["s1 u1 12345 TC", f"s1 u2 {prompt} TC"])
        assert err.value.line_no == 2


class TestPartition:
    def make_trials(self):
        out = []
        for k in range(10):
            out.append(TrialRecord("s", f"u{k}", "11111", "TC"))
            out.append(TrialRecord("s", f"v{k}", "11111", "IC"))
            out.append(TrialRecord("s", f"w{k}", "11111", "TW"))
        return out

    def test_tc_ic_keeps_twenty(self):
        pairs = partition_trials(self.make_trials(), "TC_IC")
        assert len(pairs) == 20
        assert sum(1 for _, t in pairs if t) == 10

    def test_tw_labeled_nontarget(self):
        pairs = partition_trials(self.make_trials(), "TC_TW")
        for rec, target in pairs:
            assert target == (rec.category == "TC")

    def test_unknown_condition(self):
        with pytest.raises(DigitsvError, match="condition must be one of .*'TC_XX'"):
            partition_trials(self.make_trials(), "TC_XX")


class TestEer:
    def test_perfect_separation(self):
        ss = ScoreSet([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert compute_eer(ss) == 0.0

    def test_one_third_hand_case(self):
        ss = ScoreSet([0.9, 0.6, 0.5, 0.7, 0.3, 0.1],
                      [True, True, True, False, False, False])
        assert compute_eer(ss) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_one_class_only(self):
        with pytest.raises(DigitsvError, match="need both target and non-target scores"):
            compute_eer(ScoreSet([0.5, 0.4], [True, True]))

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            if labels.all() or not labels.any():
                continue
            scores = np.round(rng.standard_normal(n), 2)  # force some ties
            got = compute_eer(ScoreSet(scores, labels))
            want = brute_force_eer(scores, labels)
            assert abs(got - want) < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            return
        scores = rng.standard_normal(n)
        base = compute_eer(ScoreSet(scores, labels))
        warped = compute_eer(ScoreSet(np.exp(0.7 * scores) + 3, labels))
        assert abs(base - warped) < 1e-12


class TestMinDcf:
    def test_perfect_separation_is_zero(self):
        ss = ScoreSet([2.0, 1.5, -1.0, -2.0], [True, True, False, False])
        assert compute_min_dcf(ss, SRE08) == 0.0

    def test_bounded_by_trivial_decision(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            labels = rng.random(30) < 0.4
            if labels.all() or not labels.any():
                continue
            ss = ScoreSet(rng.standard_normal(30), labels)
            for params in (SRE08, SRE10):
                assert compute_min_dcf(ss, params) <= 1.0 + 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = 20
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            if labels.all() or not labels.any():
                continue
            scores = np.round(rng.standard_normal(n), 2)
            ss = ScoreSet(scores, labels)
            for params in (SRE08, SRE10):
                got = compute_min_dcf(ss, params)
                want = brute_force_min_dcf(scores, labels, params)
                assert abs(got - want) < 1e-12

    def test_default_operating_points(self):
        assert (SRE08.c_miss, SRE08.c_fa, SRE08.p_target) == (10.0, 1.0, 0.01)
        assert (SRE10.c_miss, SRE10.c_fa, SRE10.p_target) == (1.0, 1.0, 0.001)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            return
        scores = rng.standard_normal(n)
        for params in (SRE08, SRE10):
            base = compute_min_dcf(ScoreSet(scores, labels), params)
            warped = compute_min_dcf(ScoreSet(np.tanh(scores) * 9 - 2, labels), params)
            assert abs(base - warped) < 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DcfParams(c_miss=1.0, c_fa=1.0, p_target=1.5)


class TestReport:
    def test_alignment_and_content(self):
        text = format_report([("TC-IC", 0.021, [0.0115, 0.5307]),
                              ("TC-TW", 0.0025, [0.0012, 0.0587])])
        lines = text.splitlines()
        assert lines[0].split() == ["condition", "EER(%)", "minDCF08", "minDCF10"]
        assert "2.10" in lines[1] and "0.0115" in lines[1]
        assert "0.25" in lines[2]
