import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_oracle as oracle
from klab import bounds
from klab.bounds import (
    InvalidExponent,
    admissible_n_exponent,
    check_range_conditions,
    extremal_q_exponent,
    parse_exponent,
    rhs_mean_square_bound,
    rhs_trilinear_coprime,
    rhs_trilinear_fixed_factor,
)
from klab.dispersion import rhs_dispersion

F = Fraction

def test_frozen_goldens_match_oracle():
    # the frozen tables are the 50-digit oracle's output printed to 20 digits
    pairs = [(oracle.coprime_trilinear(*args), want) for args, want in oracle.BC_GOLDEN]
    for variant, x3 in (("statement", oracle.R(1) / 20), ("proof", oracle.R(3) / 10)):
        pairs += [(oracle.fixed_factor_trilinear(*args, x3), want)
                  for args, want in oracle.BCR_GOLDEN[variant]]
    pairs += [(oracle.mean_square(*args), want) for args, want in oracle.CB_GOLDEN]
    assert len(pairs) == 20
    for got, want in pairs:
        assert abs(float(got) - want) <= 1e-12 * abs(want)


class TestTrilinearCoprimeBound:
    def test_unit_point_hand_arithmetic(self):
        # oracle: (1+1)^(1/2) * (2^(1/4) + 2^(1/8))
        rep = rhs_trilinear_coprime(1, 1, 1, 1, (1, 1, 1))
        want = math.sqrt(2) * (2 ** 0.25 + 2 ** 0.125)
        assert math.isclose(rep.total, want, rel_tol=1e-14)

    def test_zero_norm(self):
        assert rhs_trilinear_coprime(4, 4, 2, 1, (0.0, 1, 1)).total == 0.0

    def test_monotone_in_A_prefactor(self):
        lo = rhs_trilinear_coprime(2, 2, 1, 1, (1, 1, 1))
        hi = rhs_trilinear_coprime(2, 2, 2, 1, (1, 1, 1))
        assert hi.total > lo.total
        assert hi.meta["prefactor"] ** 2 == pytest.approx(1 + 2 / 4)

    @pytest.mark.parametrize("args,want", oracle.BC_GOLDEN)
    def test_golden(self, args, want):
        rep = rhs_trilinear_coprime(*args)
        assert math.isclose(rep.total, want, rel_tol=1e-12)

    def test_total_is_scale_times_term_sum(self):
        rep = rhs_trilinear_coprime(9, 5, 3, -2, (1.1, 0.4, 2.0), 0.01)
        assert math.isclose(rep.total, rep.scale * sum(v for _, v in rep.terms), rel_tol=1e-15)


class TestTrilinearFixedFactorBound:
    def test_unit_point_both_variants(self):
        # oracle: 2^(1/4) * 5 (all sizes 1, the bracket has five unit terms)
        for variant in ("statement", "proof"):
            rep = rhs_trilinear_fixed_factor(1, 1, 1, 1, 1, (1, 1, 1), 0.0, variant)
            assert math.isclose(rep.total, 5 * 2 ** 0.25, rel_tol=1e-14)

    def test_zero_norm(self):
        assert rhs_trilinear_fixed_factor(4, 4, 2, 2, 1, (1, 0.0, 1)).total == 0.0

    @pytest.mark.parametrize("args,want", oracle.BCR_GOLDEN["statement"])
    def test_golden_statement(self, args, want):
        rep = rhs_trilinear_fixed_factor(*args, exponent_variant="statement")
        assert math.isclose(rep.total, want, rel_tol=1e-12)

    @pytest.mark.parametrize("args,want", oracle.BCR_GOLDEN["proof"])
    def test_golden_proof(self, args, want):
        rep = rhs_trilinear_fixed_factor(*args, exponent_variant="proof")
        assert math.isclose(rep.total, want, rel_tol=1e-12)

    def test_variants_differ_only_in_third_term(self):
        a = rhs_trilinear_fixed_factor(16, 9, 5, 2, 7, (1, 2, 3), 0.0, "statement")
        b = rhs_trilinear_fixed_factor(16, 9, 5, 2, 7, (1, 2, 3), 0.0, "proof")
        for name in ("term1", "term2", "term4", "term5"):
            assert dict(a.terms)[name] == dict(b.terms)[name]
        assert math.isclose(dict(a.terms)["term3"] / dict(b.terms)["term3"], 5 ** (3 / 10 - 1 / 20),
                            rel_tol=1e-12)

    def test_r1_regression_lock(self):
        # R = 1 specializes the bracket to its five-term base form
        rep = rhs_trilinear_fixed_factor(16, 9, 5, 1, 7, (1, 2, 3), 0.0, "statement")
        assert math.isclose(rep.total, 593.40365934526961954, rel_tol=1e-12)

    def test_monotone_nondecreasing_in_R(self):
        for M, N, A in ((4, 8, 2), (16, 16, 4), (100, 50, 10)):
            prev = 0.0
            for R in (1, 2, 3, 4, 6, 8, 12, 16):
                tot = rhs_trilinear_fixed_factor(M, N, A, R, 1, (1, 1, 1)).total
                assert tot >= prev
                prev = tot

    def test_hypothesis_flags(self):
        rep = rhs_trilinear_fixed_factor(100, 5, 2, 1, 1, (1, 1, 1))
        assert "M>N^2" in rep.flags
        rep = rhs_trilinear_fixed_factor(1, 4, 2, 3, 1, (1, 1, 1))
        assert "R>M^A" in rep.flags
        rep = rhs_trilinear_fixed_factor(16, 9, 5, 2, 1, (1, 1, 1))
        assert rep.flags == ()

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            rhs_trilinear_fixed_factor(1, 1, 1, 1, 1, (1, 1, 1), 0.0, "middle")


class TestMeanSquareBound:
    def test_unit_point(self):
        # oracle: sqrt(2) * 6
        rep = rhs_mean_square_bound(1, 1, 1, 1, 1, (1, 1))
        assert math.isclose(rep.total, 6 * math.sqrt(2), rel_tol=1e-14)

    def test_zero_beta_norm(self):
        assert rhs_mean_square_bound(4, 4, 2, 2, 1, (0.0, 1)).total == 0.0

    def test_term1_scaling_in_b(self):
        # term1 = AM (bN)^(1/2): quadrupling b doubles it
        t1 = dict(rhs_mean_square_bound(1, 1, 1, 1, 1, (1, 1)).terms)["term1"]
        t4 = dict(rhs_mean_square_bound(1, 1, 1, 4, 1, (1, 1)).terms)["term1"]
        assert math.isclose(t4, 2 * t1, rel_tol=1e-14)

    @pytest.mark.parametrize("args,want", oracle.CB_GOLDEN)
    def test_golden(self, args, want):
        rep = rhs_mean_square_bound(*args)
        assert math.isclose(rep.total, want, rel_tol=1e-12)


# each right-hand side at a valid point, by keyword
RHS_POINTS = {
    rhs_trilinear_coprime: {"M": 4, "N": 8, "A": 2, "theta": 1, "norms": (1, 1, 1)},
    rhs_trilinear_fixed_factor: {"M": 4, "N": 8, "A": 2, "R": 3, "theta": 1, "norms": (1, 1, 1)},
    rhs_mean_square_bound: {"M": 4, "N": 8, "A": 2, "b": 2, "theta": 1, "norms_beta_nu": (1, 1)},
    rhs_dispersion: {"M": 8, "N": 4, "Q": 16, "D": 2, "X": 64, "alpha_l2": 1.0, "Estar": 0.0},
}


@pytest.mark.parametrize("rhs", RHS_POINTS, ids=lambda rhs: rhs.__name__)
def test_one_input_rule(rhs):
    # every right-hand side takes finite sizes > 0 and epsilon in [0, 1) and raises on anything else
    point = RHS_POINTS[rhs]
    assert rhs(**point, epsilon=0.5).total > 0
    sizes = set(point) & {"M", "N", "A", "R", "b", "Q", "D", "X"}
    assert len(sizes) == len(point) - 2  # all but theta and the norms, or alpha_l2 and Estar
    for size in sizes:
        for bad in (0, -4, -2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="sizes must be positive"):
                rhs(**point | {size: bad})
    for epsilon in (math.nan, -0.5, 1, 400):
        with pytest.raises(InvalidExponent, match=r"epsilon must lie in \[0, 1\)"):
            rhs(**point, epsilon=epsilon)


class TestAdmissibleNExponent:
    def test_new_i_at_half(self):
        got = admissible_n_exponent("new", "i", F(1, 2))
        assert got.ceiling == F(17, 28) - F(33, 28) * F(1, 2) == F(1, 56)
        assert got.feasible

    def test_fr_i_at_half(self):
        got = admissible_n_exponent("fr", "i", F(1, 2))
        assert got.ceiling == F(17, 36) - F(11, 12) * F(1, 2) == F(1, 72)

    def test_extremal_q(self):
        assert extremal_q_exponent("new") == F(17, 33) == F(1, 2) + F(1, 66)
        got = admissible_n_exponent("new", "i", F(17, 33))
        assert got.ceiling == 0 and not got.feasible

    def test_fixed_caps(self):
        for cor, cap in (("new", F(45, 89)), ("fr", F(53, 105))):
            for var, nc in (("ii", F(7, 90)), ("iii", F(101, 630))):
                got = admissible_n_exponent(cor, var, F(1, 2))
                assert got.ceiling == nc and got.q_admissible and got.extremal_q == cap
            beyond = admissible_n_exponent(cor, "ii", cap + F(1, 1000))
            assert not beyond.q_admissible

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            admissible_n_exponent("new", "i", F(0))
        with pytest.raises(InvalidExponent):
            admissible_n_exponent("new", "i", F(3, 2))
        with pytest.raises(ValueError):
            admissible_n_exponent("new", "iv", F(1, 2))
        with pytest.raises(ValueError):
            admissible_n_exponent("older", "i", F(1, 2))

    def test_only_canonical_names_accepted(self):
        for variant in ("theorem_statement", "proof_final", "Statement"):
            with pytest.raises(ValueError):
                rhs_trilinear_fixed_factor(1, 1, 1, 1, 1, (1, 1, 1), 0.0, variant)
        for cor in ("new_cor", "fr_cor11", "NEW", "Fr"):
            with pytest.raises(ValueError):
                admissible_n_exponent(cor, "i", F(1, 2))
            with pytest.raises(ValueError):
                extremal_q_exponent(cor)
            with pytest.raises(ValueError):
                check_range_conditions(F(1, 2), F(1, 2), F(0), F(0), cor)

    def test_results_are_reduced_rationals(self):
        got = admissible_n_exponent("new", "i", F(100, 200))
        assert got.ceiling == F(1, 56)
        assert math.gcd(got.ceiling.numerator, got.ceiling.denominator) == 1

    def test_handoff_at_q_cap(self):
        # at the (ii)/(iii) Q-cap the variant-(i) ceiling is exactly the
        # hand-off exponent where the wide-modulus ranges take over
        from klab.bounds import HANDOFF_N_EXPONENT

        at_cap = admissible_n_exponent("new", "i", F(45, 89))
        assert at_cap.ceiling == HANDOFF_N_EXPONENT == F(1, 89)

    @given(st.fractions(min_value=F(1, 2), max_value=F(17, 33)))
    @settings(max_examples=200)
    def test_improvement_dominates_baseline(self, q):
        new = admissible_n_exponent("new", "i", q).ceiling
        old = admissible_n_exponent("fr", "i", q).ceiling
        assert new >= old


class TestDerivedExponents:
    """The values derived from DISPERSION_TAIL_EXPONENTS equal their values
    worked out by hand."""

    def test_new_line_and_handoff(self):
        new = bounds.COROLLARY_TABLES["new"]
        assert (new["i_const"], new["i_slope"]) == (F(17, 28), F(33, 28))
        assert bounds.HANDOFF_N_EXPONENT == F(1, 89)
        # the baseline terms do not give the fr line 17/36 - (11/12) q
        assert bounds._variant_i_line("old_term4") == {"i_const": F(8, 15), "i_slope": 1}
        assert bounds._variant_i_line("old_term5") == {"i_const": F(14, 33), "i_slope": 1}

    @pytest.mark.parametrize("term, cond, const, slope", [
        ("new_term4", "mqn1", F(4, 7), F(15, 14)),
        ("new_term5", "mqn2", F(17, 28), F(33, 28)),
    ])
    def test_variant_i_lines(self, term, cond, const, slope):
        assert bounds._variant_i_line(term) == {"i_const": const, "i_slope": slope}
        # on the line, at eps = 0, the size condition holds with equality
        for q in (F(1, 10), F(1, 5), F(1, 4)):
            chk = check_range_conditions(const - slope * q, q, F(0), F(0), "new")
            assert chk.conditions[cond].slack == 0


class TestRangeConditions:
    def test_variant_ii_example(self):
        chk = check_range_conditions(F(1, 90), F(45, 89) - F(1, 100), F(0), F(1, 200), "new")
        assert "ii" in chk.variants

    def test_variant_i_just_beyond_ceiling(self):
        chk = check_range_conditions(F(1, 56) + F(1, 1000), F(1, 2), F(0), F(0), "new")
        assert "i" not in chk.variants
        assert chk.conditions["n_ceiling_i"].slack < 0

    def test_variant_i_beyond_extremal_q(self):
        chk = check_range_conditions(F(1, 10**6), F(1, 2) + F(1, 66) + F(1, 1000), F(0), F(0),
                                     "new")
        assert "i" not in chk.variants

    def test_variant_i_inside(self):
        chk = check_range_conditions(F(1, 60), F(1, 2), F(1, 2), F(1, 10**4), "new")
        assert "i" in chk.variants
        assert chk.m_exp == 1 - F(1, 60)

    def test_variant_iii_needs_tiny_a(self):
        ok = check_range_conditions(F(1, 10), F(44, 89), F(1, 10**7), F(1, 100), "new")
        assert "iii" in ok.variants
        big_a = check_range_conditions(F(1, 10), F(44, 89), F(1, 2), F(1, 100), "new")
        assert "iii" not in big_a.variants

    def test_mqn_conditions_match_solved_ceiling(self):
        # the (i) ceiling is exactly where mqn2 flips at eps = 0
        q = F(1, 2)
        n_at = F(17, 28) - F(33, 28) * q
        below = check_range_conditions(n_at - F(1, 10**6), q, F(0), F(0), "new")
        above = check_range_conditions(n_at + F(1, 10**6), q, F(0), F(0), "new")
        assert below.conditions["mqn2"].satisfied
        assert not above.conditions["mqn2"].satisfied

    def test_size_conditions_match_literal_coefficients(self):
        # mqn1/mqn2 with their coefficients written out by hand: new_term4
        # and new_term5 under ||alpha|| = M^(1/2)
        for n, q, eps in ((F(1, 56), F(1, 2), F(0)), (F(1, 7), F(1, 3), F(1, 100)),
                          (F(88, 89), F(65, 66), F(99, 1000)), (F(1, 90), F(44, 89), F(1, 200))):
            m = 1 - n
            chk = check_range_conditions(n, q, F(0), eps, "new")
            assert chk.conditions["mqn1"].slack == (1 - eps) - (m / 2 + q * F(15, 16) + n * F(11, 8))
            assert chk.conditions["mqn2"].slack == (1 - eps) - (
                m * F(23, 40) + q * F(33, 40) + n * F(51, 40)
            )

    def test_complement_range_flags(self):
        chk = check_range_conditions(F(1, 90), F(44, 89), F(0), F(1, 1000), "new")
        assert chk.conditions["complement_range_47"].satisfied
        chk2 = check_range_conditions(F(1, 3), F(2, 5), F(0), F(0), "new")
        # at n = 1/3: 4/7 - 6/7 * 1/3 = 2/7 < 2/5, so the wide range fails
        assert not chk2.conditions["complement_range_47"].satisfied

    def test_exponent_validation(self):
        with pytest.raises(InvalidExponent):
            check_range_conditions(F(0), F(1, 2), F(0), F(0))
        with pytest.raises(InvalidExponent):
            check_range_conditions(F(1, 10), F(1), F(0), F(0))
        with pytest.raises(InvalidExponent):
            check_range_conditions(F(1, 10), F(1, 2), F(2), F(0))
        for eps in (F(-1, 10), F(1)):
            with pytest.raises(InvalidExponent, match="epsilon"):
                check_range_conditions(F(1, 10), F(1, 2), F(0), eps)


class TestParseExponent:
    def test_fraction(self):
        assert parse_exponent("17/28") == F(17, 28)

    def test_whitespace_and_int(self):
        assert parse_exponent(" 1 ") == F(1)

    def test_bad(self):
        for text in ("x/y", "1/0", "", "3 / 4 / 5"):
            with pytest.raises(InvalidExponent):
                parse_exponent(text)
