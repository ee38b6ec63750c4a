"""Binary inversionless Berlekamp-Massey tests."""

import pytest

from repro.bch.berlekamp import berlekamp_massey
from repro.bch.hardware import EccLatencyModel
from repro.bch.params import design_code
from repro.bch.syndrome import SyndromeCalculator
from repro.errors import SyndromeError


def locator_for(spec, positions):
    calc = SyndromeCalculator(spec)
    syndromes = calc.syndromes_of_error_positions(positions)
    return berlekamp_massey(spec.field(), syndromes)


class TestBerlekampMassey:
    def test_no_errors_gives_constant(self, small_spec):
        result = locator_for(small_spec, [])
        assert result.degree == 0
        assert result.iterations == small_spec.t

    def test_degree_equals_error_count(self, small_spec):
        for count, positions in ((1, [4]), (2, [4, 30]), (3, [4, 30, 70])):
            result = locator_for(small_spec, positions)
            assert result.degree == count

    def test_locator_roots_are_inverse_locators(self, small_spec):
        field = small_spec.field()
        positions = [3, 50]
        result = locator_for(small_spec, positions)
        n = small_spec.n_stored
        for pos in positions:
            exponent = n - 1 - pos
            root = field.alpha_pow(-exponent % field.order)
            assert result.error_locator(root) == 0

    def test_locator_constant_term_nonzero(self, small_spec):
        result = locator_for(small_spec, [1, 2, 3])
        assert result.error_locator.coeff(0) != 0

    @pytest.mark.parametrize("count", [0, 1, 4, 8, 9, 12])
    def test_locator_is_normalised(self, medium_spec, count):
        # Including words past t = 8, whose locator the decoder rejects.
        positions = [7, 100, 500, 900, 1030, 64, 222, 333, 41, 600, 77, 1]
        result = locator_for(medium_spec, positions[:count])
        assert result.error_locator.coeff(0) == 1

    @pytest.mark.parametrize("t", [1, 8, 65])
    def test_iterations_match_hardware_model(self, t):
        spec = design_code(32768, t)
        model = EccLatencyModel()
        result = locator_for(spec, [3, 5000, 32800][:t])
        assert model.decode_breakdown(spec).berlekamp_cycles == (
            model.hw.bm_cycles_per_iteration * result.iterations
        )

    def test_medium_code_full_capability(self, medium_spec):
        positions = [7, 100, 500, 900, 1030, 64, 222, 333][: medium_spec.t]
        result = locator_for(medium_spec, positions)
        assert result.degree == len(positions)

    def test_overload_exceeds_t(self, small_spec):
        # t+1 errors: BM produces a locator that cannot have degree <= t
        # with matching root count; degree may exceed t or roots won't match.
        positions = [1, 20, 40, 60]  # t = 3
        result = locator_for(small_spec, positions)
        field = small_spec.field()
        n = small_spec.n_stored
        roots_found = sum(
            1
            for pos in range(n)
            if result.error_locator(
                field.alpha_pow(-(n - 1 - pos) % field.order)
            ) == 0
        )
        assert result.degree > small_spec.t or roots_found != result.degree


class TestSyndromeValidation:
    """The t-step recursion is only valid for the syndromes of a binary
    word, so anything else is rejected before it runs."""

    def test_odd_length_rejected(self, small_spec):
        calc = SyndromeCalculator(small_spec)
        syndromes = calc.syndromes_of_error_positions([4])
        with pytest.raises(SyndromeError, match="2t syndromes"):
            berlekamp_massey(small_spec.field(), syndromes[:-1])

    def test_even_syndrome_not_square_rejected(self, small_spec):
        calc = SyndromeCalculator(small_spec)
        syndromes = calc.syndromes_of_error_positions([4])
        syndromes[3] ^= 1  # S_4 no longer equals S_2^2
        with pytest.raises(SyndromeError, match="S_4 != S_2"):
            berlekamp_massey(small_spec.field(), syndromes)

    def test_element_outside_field_rejected(self, small_spec):
        with pytest.raises(SyndromeError, match="elements of GF"):
            berlekamp_massey(small_spec.field(), [128, 0, 0, 0, 0, 0])
