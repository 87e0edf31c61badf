"""The consistency audit's comparison rules."""

from __future__ import annotations

from cgbench.audit import values_agree


def by_added(row):
    return row["added"]


def rows(*pairs):
    return [{"id": pk, "added": added} for pk, added in pairs]


def test_counts_compare_exactly():
    assert values_agree(3, 3)
    assert not values_agree(2, 3)


def test_unordered_lists_compare_as_multisets():
    assert values_agree(rows((1, 5), (2, 6)), rows((2, 6), (1, 5)))
    # A missing duplicate row is a difference, not a reordering.
    assert not values_agree(rows((1, 5)), rows((1, 5), (1, 5)))


def test_ordered_lists_need_the_same_order_keys():
    assert not values_agree(rows((1, 9), (2, 8)), rows((2, 8), (1, 9)),
                            order_key=by_added)
    # Rows tied on the order key may come back in either order.
    assert values_agree(rows((1, 9), (2, 9), (3, 8)),
                        rows((2, 9), (1, 9), (3, 8)), order_key=by_added)


def test_ties_at_the_limit_cut_compare_by_length_only():
    cached = rows((1, 9), (2, 7), (3, 7))
    fresh = rows((1, 9), (4, 7), (5, 7))
    assert values_agree(cached, fresh, order_key=by_added, limit=3)
    # Without a cut the same rows are a real difference...
    assert not values_agree(cached, fresh, order_key=by_added)
    # ...and so are rows above the cut, or a shorter tie group.
    assert not values_agree(rows((6, 9), (2, 7), (3, 7)), fresh,
                            order_key=by_added, limit=3)
    assert not values_agree(rows((1, 9), (2, 7)), fresh,
                            order_key=by_added, limit=3)


def test_a_list_shorter_than_its_limit_has_no_cut():
    assert not values_agree(rows((1, 9), (2, 7)), rows((1, 9), (3, 7)),
                            order_key=by_added, limit=3)
