"""Binary odometer words and the adding machine."""

import pytest

from sawlab import ConstraintViolation

from oracles import adding_machine_step, index_word, odometer_orbit, word_index


def test_adding_machine_carries():
    assert adding_machine_step("000") == "100"
    assert adding_machine_step("100") == "010"
    assert adding_machine_step("110") == "001"
    assert adding_machine_step("111") == "000"


def test_word_index_round_trip():
    for n in (1, 3, 5):
        for k in range(2**n):
            assert word_index(index_word(k, n)) == k


def test_adding_machine_is_plus_one_mod_2n():
    # the tower's successor of block r is block (r + 1) mod 2^n on this identity
    for n in range(1, 11):
        for k in range(2**n):
            w = index_word(k, n)
            assert word_index(adding_machine_step(w)) == (k + 1) % 2**n


def test_odometer_orbit_is_full_cycle():
    orbit = odometer_orbit(3)
    assert len(orbit) == 8
    assert len(set(orbit)) == 8
    assert orbit[0] == "000"
    assert adding_machine_step(orbit[-1]) == orbit[0]


def test_invalid_words_rejected():
    with pytest.raises(ConstraintViolation):
        adding_machine_step("01a")
    with pytest.raises(ConstraintViolation):
        index_word(8, 3)
