import pytest

from triprox import BudgetExceededError, census, predicted_constant


class TestCensus:
    def test_formula_values(self):
        assert census(1).count == 0
        assert census(2).count == 6
        assert census(3).count == 60
        assert census(4).count == 390

    def test_formula_matches_oracle(self):
        for n in (1, 2, 3, 4):
            f = census(n, "formula")
            o = census(n, "oracle")
            assert f.count == o.count
            if o.by_dimension:
                assert sum(o.by_dimension.values()) == o.count

    def test_oracle_budget(self):
        with pytest.raises(BudgetExceededError):
            census(5, "oracle")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            census(2, "guess")


class TestPredictedConstant:
    def test_positive_and_reproducible(self):
        a = predicted_constant(2, 50, 25, 20000, 0)
        b = predicted_constant(2, 50, 25, 20000, 0)
        assert a.C > 0
        assert a.C == b.C
        assert a.C_stderr == b.C_stderr

    def test_stability_and_stderr_shrink(self):
        base = predicted_constant(2, 60, 25, 20000, 0)
        wider = predicted_constant(2, 120, 25, 20000, 0)
        assert abs(wider.C - base.C) <= base.euler_product.tail * base.sigma_inf_prime.mean
        more = predicted_constant(2, 60, 25, 80000, 0)
        assert more.sigma_inf_prime.stderr < base.sigma_inf_prime.stderr

    def test_requires_n_ge_2(self):
        with pytest.raises(ValueError):
            predicted_constant(1, 50, 20, 10000, 0)
