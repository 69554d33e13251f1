import pytest
from hypothesis import given, settings, strategies as st

from hzeta.compositions import (
    Composition,
    add,
    binom_weight,
    contractions,
    dual_index,
    hoffman_dual,
    ones,
    plus_first,
    refinements,
    reverse,
    theorem_dual,
    weak_compositions,
)
from hzeta.errors import DimensionMismatch, DomainError, NonAdmissible

comps = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6).map(
    Composition
)


def test_basic_stats():
    k = Composition([2, 1, 3])
    assert k.weight() == 6
    assert k.depth() == 3
    assert k.admissible()
    assert not Composition([1, 2]).admissible()
    assert Composition().is_empty()
    assert Composition.parse("2,1,3") == k
    assert Composition.parse("") == Composition()
    assert str(k) == "2,1,3"
    with pytest.raises(ValueError):
        Composition([0])


def test_text_is_read_by_parse_alone():
    # a string is not read character by character: "21" is not (2, 1)
    with pytest.raises(DomainError, match="^index '21' is text"):
        Composition("21")
    assert Composition.parse(" 2, 1 ") == Composition([2, 1])
    assert hoffman_dual((2, 1)) == hoffman_dual(Composition([2, 1]))
    for bad in ["2,,1", "2.5", "2,x"]:
        with pytest.raises(DomainError, match="^part .* is not an integer"):
            Composition.parse(bad)


def test_composition_is_a_frozen_value():
    k = Composition([2, 1])
    with pytest.raises(AttributeError):
        k.parts = (3,)
    # a name that is not a field has no slot; Python 3.11's frozen slotted
    # dataclasses raise TypeError for it, later versions AttributeError
    with pytest.raises((AttributeError, TypeError)):
        k.extra = 1
    assert k == Composition((2, 1)) == Composition(k)
    assert hash(k) == hash(Composition((2, 1)))
    assert {k: 1}[Composition([2, 1])] == 1
    assert k != (2, 1) and k != Composition([1, 2])
    assert repr(k) == "Composition([2, 1])"
    assert str(k) == "2,1"
    assert repr(Composition()) == "Composition([])" and str(Composition()) == ""


def test_hoffman_dual_examples():
    assert hoffman_dual(Composition([1, 1, 2, 1])) == Composition([3, 2])
    assert hoffman_dual(Composition([3, 2])) == Composition([1, 1, 2, 1])
    assert hoffman_dual(Composition([1])) == Composition([1])
    assert hoffman_dual(Composition([2, 2])) == Composition([1, 2, 1])
    with pytest.raises(ValueError):
        hoffman_dual(Composition())


def test_dual_index_examples():
    assert dual_index(Composition([3])) == Composition([2, 1])
    assert dual_index(Composition([2])) == Composition([2])
    assert dual_index(Composition([2, 1])) == Composition([3])
    with pytest.raises(NonAdmissible):
        dual_index(Composition([1, 2]))


@given(comps)
def test_hoffman_dual_involution(k):
    d = hoffman_dual(k)
    assert d.weight() == k.weight()
    assert d.depth() == k.weight() + 1 - k.depth()
    assert hoffman_dual(d) == k


@given(comps.filter(lambda k: k.admissible()))
def test_dual_index_involution(k):
    d = dual_index(k)
    assert d.weight() == k.weight()
    assert d.admissible()
    assert dual_index(d) == k


def test_refinement_counts():
    k = Composition([2, 3])
    rset = refinements(k)
    assert len(rset) == 2 ** (k.weight() - k.depth())
    assert k in rset
    assert Composition([1, 1, 1, 1, 1]) in rset
    assert all(l.weight() == 5 for l in rset)
    assert Composition([3, 2]) not in rset


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4).map(
        Composition
    )
)
def test_refinements_contractions_reciprocal(k):
    assert all(k in contractions(l) for l in refinements(k))
    assert all(k in refinements(l) for l in contractions(k))


def test_weak_compositions_count():
    got = list(weak_compositions(5, 3))
    assert len(got) == 21
    assert len(set(got)) == 21
    assert all(type(w) is tuple and sum(w) == 5 and len(w) == 3 for w in got)
    for total, parts in [(1, 0), (-1, 2)]:
        with pytest.raises(ValueError):
            list(weak_compositions(total, parts))


def test_binom_weight():
    assert binom_weight(Composition([3, 2]), (1, 2)) == 9
    assert binom_weight(Composition([2]), (0,)) == 1
    with pytest.raises(DimensionMismatch):
        binom_weight(Composition([2]), (1, 1))


def test_add_ones_helpers():
    assert add(Composition([2, 1]), (0, 3)) == Composition([2, 4])
    with pytest.raises(DimensionMismatch):
        add(Composition([2, 1]), (1,))
    assert ones(3) == Composition([1, 1, 1])
    assert ones(0).is_empty()
    assert plus_first(Composition([2, 2])) == Composition([3, 2])
    assert reverse(Composition([1, 2, 3])) == Composition([3, 2, 1])


def test_theorem_dual():
    # depth of the transformed index is |k| + 1 - depth(k)
    k = Composition([2, 2])
    d = theorem_dual(k)
    assert d == Composition([2, 2, 1])
    assert d.depth() == k.weight() + 1 - k.depth()
    assert theorem_dual(Composition([2])) == Composition([2, 1])
