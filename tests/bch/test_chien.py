"""Chien search tests."""

from repro.bch.berlekamp import berlekamp_massey
from repro.bch.chien import ChienSearch
from repro.bch.syndrome import SyndromeCalculator
from repro.gf.polygf import GFPoly


class TestChienSearch:
    def _positions_via_chien(self, spec, positions):
        calc = SyndromeCalculator(spec)
        syndromes = calc.syndromes_of_error_positions(positions)
        bm = berlekamp_massey(spec.field(), syndromes)
        return ChienSearch(spec).error_positions(bm.error_locator)

    def test_round_trip_positions(self, small_spec):
        for positions in ([0], [small_spec.n_stored - 1], [5, 60], [1, 2, 3]):
            assert self._positions_via_chien(small_spec, positions) == sorted(positions)

    def test_round_trip_medium(self, medium_spec):
        positions = [0, 17, 512, 1000, 1100]
        assert self._positions_via_chien(medium_spec, positions) == sorted(positions)

    def test_constant_locator_no_positions(self, small_spec):
        chien = ChienSearch(small_spec)
        one = GFPoly.one(small_spec.field())
        assert chien.error_positions(one) == []

    def test_root_count_in_field(self, small_spec):
        field = small_spec.field()
        roots = [field.alpha_pow(2), field.alpha_pow(9)]
        poly = GFPoly.from_roots(field, roots)
        chien = ChienSearch(small_spec)
        assert chien.root_count_in_field(poly) == 2

    def test_positions_limited_to_stored_length(self, small_spec):
        # A locator whose root corresponds to an exponent >= n_stored must
        # yield no position (shortened-code exclusion).
        field = small_spec.field()
        n = small_spec.n_stored
        out_of_range_exponent = n + 1  # valid field exponent, invalid position
        root = field.alpha_pow(-out_of_range_exponent % field.order)
        poly = GFPoly.from_roots(field, [root])
        chien = ChienSearch(small_spec)
        assert chien.error_positions(poly) == []

    def test_locator_above_t_finds_every_root(self, small_spec):
        # A degree-3t locator (only failing words produce one) reads the
        # decimated tables of degrees above t; every root in range must
        # still be counted, as the failure message reports it.
        field = small_spec.field()
        n = small_spec.n_stored
        positions = [0, 5, 17, 40, 41, 63, 70, 80, n - 1]
        roots = [field.alpha_pow(-(n - 1 - p) % field.order) for p in positions]
        poly = GFPoly.from_roots(field, roots)
        assert poly.degree == 3 * small_spec.t
        assert ChienSearch(small_spec).error_positions(poly) == positions
