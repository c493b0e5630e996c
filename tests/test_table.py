from dwtl.table import input_pattern


def test_input_pattern_bit_i_is_bit_j_of_i():
    for n in range(1, 11):
        for j in range(n):
            p = input_pattern(j, n)
            assert p < 1 << (1 << n)
            assert all((p >> i) & 1 == (i >> j) & 1 for i in range(1 << n))
