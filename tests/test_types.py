from hypothesis import given
from hypothesis import strategies as st

from sill import surface
from sill import types as ty
from sill.types import BOT, ONE, TOP, ZERO, Par, Plus, Tensor, With, dual, size

types = st.recursive(
    st.sampled_from([ONE, BOT, ZERO, TOP]),
    lambda sub: st.one_of(
        st.builds(Tensor, sub, sub),
        st.builds(Par, sub, sub),
        st.builds(Plus, sub, sub),
        st.builds(With, sub, sub),
    ),
    max_leaves=10,
)


def test_dual_clauses():
    a, b = ONE, BOT
    assert dual(Tensor(a, b)) == Par(BOT, ONE)
    assert dual(ONE) == BOT and dual(ZERO) == TOP
    assert dual(BOT) == ONE and dual(TOP) == ZERO
    assert dual(Plus(a, b)) == With(BOT, ONE)
    assert dual(With(a, b)) == Plus(BOT, ONE)


def test_dual_involution_example():
    a = Plus(ONE, BOT)
    assert dual(dual(a)) == a


@given(types)
def test_dual_involution(a):
    assert dual(dual(a)) is a


@given(types)
def test_dual_preserves_size(a):
    assert size(dual(a)) == size(a)


@given(types)
def test_size_positive_and_compositional(a):
    assert size(a) >= 1
    if isinstance(a, Tensor):
        assert size(a) == size(a.left) + size(a.right) + 1


@given(types)
def test_render_parse_roundtrip(a):
    assert surface.parse_type(ty.render(a)) is a


def test_dual_is_bijective_on_small_grammar():
    units = [ONE, BOT, ZERO, TOP]
    small = list(units)
    for cls in (Tensor, Par, Plus, With):
        for l in units:
            for r in units:
                small.append(cls(l, r))
    images = {ty.render(dual(a)) for a in small}
    assert len(images) == len(small)


def test_units_and_connectives_hash_apart():
    assert len({hash(a) for a in (ONE, BOT, ZERO, TOP)}) == 4
    for l, r in [(ONE, ONE), (BOT, TOP), (Tensor(ONE, BOT), ZERO)]:
        assert len({hash(cls(l, r)) for cls in (Tensor, Par, Plus, With)}) == 4


def test_constructors_return_the_interned_type():
    assert Tensor(ONE, Par(BOT, TOP)) is Tensor(ONE, Par(BOT, TOP))
    assert ty.One() is ONE and ty.Top() is TOP
    assert Plus(ONE, BOT) is not With(ONE, BOT)
    assert repr(Tensor(ONE, Par(BOT, TOP))) == "Tensor(left=One(), right=Par(left=Bot(), right=Top()))"
