"""F_p linear algebra: rref_mod_p and nullspace_mod_p against brute-force
enumeration of row spaces and kernels."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from zetaheights.intlinalg import nullspace_mod_p, rref_mod_p

# widest matrix per prime whose p^cols vectors enumerate in milliseconds;
# up to 6 x 8 over F_2
MAX_COLS = {2: 8, 3: 6, 5: 5, 7: 4}


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(sorted(MAX_COLS)))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, MAX_COLS[p]))
    entries = st.integers(-3 * p, 3 * p)  # unreduced integers are allowed
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return p, m


def span(vectors, p, dim):
    out = {(0,) * dim}
    for v in vectors:
        out = {tuple((a + k * b) % p for a, b in zip(w, v))
               for w in out for k in range(p)}
    return out


def apply(m, x, p):
    return tuple(sum(a * b for a, b in zip(row, x)) % p for row in m)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_fp_linear_algebra_against_brute_force(matrix):
    p, m = matrix
    cols = len(m[0])
    reduced, pivots = rref_mod_p(m, p)
    row_space = span(m, p, cols)
    assert span(reduced, p, cols) == row_space
    assert len(row_space) == p ** len(reduced)
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(reduced, pivots)):
        assert not any(row[:c]) and row[c] == 1
        assert all(other[c] == 0 for j, other in enumerate(reduced) if j != i)

    everything = list(product(range(p), repeat=cols))
    kernel = {x for x in everything if not any(apply(m, x, p))}
    basis = nullspace_mod_p(m, p)
    assert len(reduced) + len(basis) == cols
    assert len(kernel) == p ** len(basis)
    assert span(basis, p, cols) == kernel

