"""The frozen records behind the package's value classes."""

from fractions import Fraction

import pytest

from betaforms._records import frozen
from betaforms.decomposition import Violation
from betaforms.numtheory import FactoredInteger, carry_min_table
from betaforms.profiles import THEOREM1_ETA, Profile, ProfileError, general


@frozen
class Pair:
    x: int
    y: int = 0


@frozen
class OtherPair:
    x: int
    y: int = 0


def test_fields_cannot_be_set_or_deleted():
    profile = general(THEOREM1_ETA, 2)
    with pytest.raises(AttributeError):
        profile.n = 4
    with pytest.raises(AttributeError):
        profile.extra = 1
    with pytest.raises(AttributeError):
        del profile.eta
    assert profile.n == 2


def test_equality_and_hash_follow_class_and_fields():
    a, b = FactoredInteger(((2, 1), (3, 2))), FactoredInteger(((2, 1), (3, 2)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((((2, 1), (3, 2)),))
    assert a != FactoredInteger(((2, 1),))
    # a cached property in one instance's __dict__ is not a field
    p, q = general(THEOREM1_ETA, 2), general(THEOREM1_ETA, 2)
    assert p.gamma and p == q and hash(p) == hash(q)
    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != OtherPair(1, 2)


def test_keywords_and_defaults():
    assert Profile("section2", 3, 2).eta is None
    assert Profile(eta=THEOREM1_ETA, n=2, s=13, family="general") == Profile(
        "general", 13, 2, THEOREM1_ETA)
    assert Pair(x=1) == Pair(1, 0)


def test_repr_names_every_field():
    assert repr(Profile("section2", 3, 2)) == (
        "Profile(family='section2', s=3, n=2, eta=None)")


def test_post_init_still_validates():
    with pytest.raises(ProfileError, match="s must be odd"):
        Profile("section2", 4, 2)
    with pytest.raises(ProfileError, match="takes no eta"):
        Profile("section2", 3, 2, (3, 1, 1, 1))


def test_violation_is_hashable():
    a = Violation(0, None, Fraction(1, 7))
    b = Violation(0, None, Fraction(1, 7))
    c = Violation(0, None, Fraction(1, 49))
    assert a == b and hash(a) == hash(b)
    assert a != c and len({a, b, c}) == 2


def test_cached_properties_still_cache():
    profile = general(THEOREM1_ETA, 2)
    assert profile.gamma is profile.gamma
    assert "gamma" in vars(profile)


def test_equal_shapes_share_one_carry_table_entry():
    first = carry_min_table(Profile("section2", 3, 2).shape)
    before = carry_min_table.cache_info()
    assert carry_min_table(Profile("section2", 3, 4).shape) is first
    after = carry_min_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("args, kwargs", [
    ((1, 2, 3), {}),
    ((), {}),
    ((1,), {"x": 1}),
    ((1,), {"z": 1}),
])
def test_wrong_arity_is_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_required_field_after_default_is_rejected():
    with pytest.raises(TypeError, match="without a default"):
        @frozen
        class Bad:
            x: int = 0
            y: int
