import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fslpenum import PRE_CATEGORY, Effect
from fslpenum.effects import ID0, ID1, compose


def all_edge_shapes(c=3, d=5):
    return [
        Effect.m00(c),
        Effect.m01(c, d),
        Effect.m10a(c),
        Effect.m10b(c),
        Effect.m11a(c, d),
        Effect.m11b(c, d),
    ]


consts = st.integers(min_value=0, max_value=50)
shape_strategy = st.one_of(
    st.builds(Effect.m00, consts),
    st.builds(Effect.m01, consts, consts),
    st.builds(Effect.m10a, consts),
    st.builds(Effect.m10b, consts),
    st.builds(Effect.m11a, consts, consts),
    st.builds(Effect.m11b, consts, consts),
    st.builds(lambda c, d: Effect(1, 1, 0, c, 0, d), consts, consts),  # composite-only shape
)


class TestShapes:
    def test_shape_tags(self):
        tags = [e.shape for e in all_edge_shapes()]
        assert tags == ["M00", "M01", "M10a", "M10b", "M11a", "M11b"]
        assert Effect(1, 1, 0, 2, 0, 3).shape == "M11c"

    def test_identities(self):
        for e in all_edge_shapes():
            left = Effect.identity(e.dom).compose(e)
            right = e.compose(Effect.identity(e.cod))
            assert left == e and right == e

    def test_constants_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Effect.m00(-1)

    def test_object_mismatch(self):
        with pytest.raises(ValueError):
            Effect.m00(1).compose(Effect.m10a(0))

    def test_apply_arity(self):
        with pytest.raises(ValueError):
            Effect.m00(0).apply(1, 2)
        with pytest.raises(ValueError):
            Effect.m10a(0).apply(1)

    def test_preorder_requires_domain_zero(self):
        assert Effect.m01(7, 3).preorder == 7
        with pytest.raises(ValueError):
            Effect.m10a(1).preorder


class TestComposition:
    @given(shape_strategy, shape_strategy, st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=400, deadline=None)
    def test_pointwise(self, f, g, x, y):
        if f.cod != g.dom:
            return
        h = f.compose(g)
        args = (x,) if f.dom == 0 else (x, y)
        mid = f.apply(*args)
        want = g.apply(mid) if g.dom == 0 else g.apply(*mid)
        assert h.apply(*args) == want

    @given(shape_strategy, shape_strategy, shape_strategy)
    @settings(max_examples=400, deadline=None)
    def test_associativity(self, f, g, h):
        if f.cod != g.dom or g.cod != h.dom:
            return
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    def test_closure_is_seven_shapes(self):
        # compositions across a type-0 vertex produce the constant-second
        # shape M11c, which the six edge shapes alone do not cover
        composite = Effect.m10a(0).compose(Effect.m01(0, 1))
        assert composite.shape == "M11c"
        assert composite.apply(4, 9) == (4, 1)
        seen = {e.shape for e in all_edge_shapes()}
        frontier = all_edge_shapes()
        for _ in range(3):
            new = []
            for f in frontier:
                for g in all_edge_shapes(2, 7):
                    if f.cod == g.dom:
                        h = f.compose(g)
                        if h.shape not in seen:
                            seen.add(h.shape)
                            new.append(h)
            frontier = new
        assert seen == {"M00", "M01", "M10a", "M10b", "M11a", "M11b", "M11c"}

    def test_random_triple_chain(self):
        rng = random.Random(3)
        shapes = all_edge_shapes()
        for _ in range(2000):
            f = rng.choice(shapes)
            g = rng.choice([s for s in shapes if s.dom == f.cod])
            x, y = rng.randrange(100), rng.randrange(100)
            args = (x,) if f.dom == 0 else (x, y)
            mid = f.apply(*args)
            want = g.apply(mid) if g.dom == 0 else g.apply(*mid)
            assert f.compose(g).apply(*args) == want


class TestTupleCompose:
    """The engine's (eps, c, kappa, d) form against the validated ``Effect``."""

    @given(shape_strategy, shape_strategy)
    @settings(max_examples=400, deadline=None)
    def test_matches_effect_compose(self, f, g):
        if f.cod != g.dom:
            return
        assert compose(f.as_tuple(), g.as_tuple()) == f.compose(g).as_tuple()

    def test_category_uses_tuples_and_shared_identities(self):
        assert PRE_CATEGORY.compose is compose
        assert PRE_CATEGORY.identity(0) is ID0 == Effect.identity(0).as_tuple()
        assert PRE_CATEGORY.identity(1) is ID1 == Effect.identity(1).as_tuple()
        for e in all_edge_shapes():
            t = e.as_tuple()
            assert compose(PRE_CATEGORY.identity(e.dom), t) == t
            assert compose(t, PRE_CATEGORY.identity(e.cod)) == t

    def test_family_check_raises(self):
        with pytest.raises(ValueError, match="leaves the effect family"):
            compose(ID0, (0, -1, 0, 0))  # negative constant
        with pytest.raises(ValueError, match="leaves the effect family"):
            compose(ID1, (1, 0, 1, 0))  # eps and kappa both set
        with pytest.raises(ValueError, match="leaves the effect family"):
            compose((2, 0, 0, 0), ID1)  # eps outside {0, 1}
