from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sexticforms import linalg


def _reference_rref(matrix):
    """Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**110), 2**110),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


def _grid(draw, nrows, ncols, values=entries):
    return [[draw(values) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    if draw(st.booleans()):  # a product B*C of rank at most k
        k = draw(st.integers(0, 3))
        b, c = _grid(draw, nrows, k), _grid(draw, k, ncols)
        cols = list(zip(*c)) if k else [()] * ncols
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in b]
    else:
        m = _grid(draw, nrows, ncols)
    for _ in range(draw(st.integers(0, 2))):  # zero and duplicate rows
        pos = draw(st.integers(0, len(m)))
        if m and draw(st.booleans()):
            m.insert(pos, list(m[draw(st.integers(0, len(m) - 1))]))
        else:
            m.insert(pos, [0] * ncols)
    return m


@st.composite
def systems(draw):
    m = draw(matrices())
    ncols = len(m[0]) if m else 0
    if draw(st.booleans()):  # consistent by construction
        x = [draw(entries) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
    else:
        rhs = [draw(entries) for _ in m]
    return m, rhs


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([])
@example([[0, 2**109, Fraction(1, 3)]])
def test_rank_matches_reference(m):
    before = [list(row) for row in m]
    assert linalg.rank(m) == len(_reference_rref(m)[1])
    assert m == before


@settings(max_examples=200, deadline=None)
@given(systems())
@example(([], []))
@example(([[0, 0, 0]], [1]))
@example(([[2**100, 6, 0]], [Fraction(1, 7)]))
def test_solve_linear_matches_reference(system):
    m, rhs = system
    ncols = len(m[0]) if m else 0
    rows, pivots = _reference_rref([list(row) + [b] for row, b in zip(m, rhs)])
    x = linalg.solve_linear(m, rhs)
    if ncols in pivots:
        assert x is None
        return
    assert x is not None and len(x) == ncols
    assert all(sum(a * b for a, b in zip(row, x)) == v for row, v in zip(m, rhs))
    assert all(x[c] == 0 for c in range(ncols) if c not in pivots)
    assert x == [rows[pivots.index(c)][-1] if c in pivots else 0 for c in range(ncols)]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
@example([[1, 0], [0, 0]], None)
def test_in_span_matches_rank(m, data):
    ncols = len(m[0]) if m else 0
    if data is None:
        row = [0, 1]
    elif m and data.draw(st.booleans()):  # a combination of the rows
        coeffs = [data.draw(entries) for _ in m]
        row = [sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(ncols)]
    else:
        row = [data.draw(entries) for _ in range(ncols)]
    inside = linalg.rank(m + [row]) == linalg.rank(m)
    assert linalg.in_span(linalg.echelon(m), row) == inside
