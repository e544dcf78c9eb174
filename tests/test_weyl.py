import itertools

import pytest

from qkcomin import weyl
from qkcomin.weyl import (
    FlagShape,
    coset_minreps,
    dual_index,
    image_index,
    length,
    min_coset_rep,
    minrep_to_partition,
    partition_contains,
    partition_to_minrep,
    partitions_in_box,
    reduced_word,
    right_mul_simple,
)
from reference import (
    bruhat_leq,
    compose,
    dimension,
    identity,
    inverse,
    left_action_on_minrep,
    longest_element,
    max_coset_rep,
    parabolic_blocks,
    preimage_index_plain,
)


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def brute_length(w):
    # independent oracle: count inversions by definition
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def brute_bruhat_leq(u, v):
    # independent oracle: reflection-closure recursion on lengths
    if u == v:
        return True
    if brute_length(u) >= brute_length(v):
        return False
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if v[i] > v[j]:
                lv = list(v)
                lv[i], lv[j] = lv[j], lv[i]
                shorter = tuple(lv)
                if brute_length(shorter) == brute_length(v) - 1 and brute_bruhat_leq(
                    u, shorter
                ):
                    return True
    return False


class TestLength:
    def test_identity(self):
        assert length(identity(5)) == 0

    def test_single_inversion(self):
        assert length((1, 3, 2, 4)) == 1

    def test_minrep_length_equals_partition_size(self):
        w = partition_to_minrep((2, 1), 2, 4)
        assert brute_length(w) == 3
        assert length(w) == 3

    def test_reduced_word_length(self):
        for w in all_perms(4):
            word = reduced_word(w)
            assert len(word) == length(w)
            acc = identity(4)
            for i in word:
                acc = right_mul_simple(acc, i)
            assert acc == w


class TestBruhat:
    def test_identity_is_minimum(self):
        for w in all_perms(4):
            assert bruhat_leq(identity(4), w)

    def test_partition_containment_examples(self):
        u = partition_to_minrep((1,), 2, 4)
        v = partition_to_minrep((2, 1), 2, 4)
        assert bruhat_leq(u, v)
        a = partition_to_minrep((2,), 2, 4)
        b = partition_to_minrep((1, 1), 2, 4)
        assert not bruhat_leq(a, b)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reflection_recursion(self, n):
        for u in all_perms(n):
            for v in all_perms(n):
                assert bruhat_leq(u, v) == brute_bruhat_leq(u, v)


def blocks_of(indices, n=4):
    return parabolic_blocks(frozenset(indices), n)


class TestCosetReps:
    def test_identity_fixed(self):
        assert min_coset_rep(identity(4), blocks_of({1, 3})) == identity(4)

    def test_already_minimal(self):
        w = (2, 1, 3, 4)
        assert min_coset_rep(w, blocks_of({2, 3})) == w

    def test_block_sort(self):
        # blocks {1,2},{3,4}: sort values within each
        w = (3, 1, 4, 2)
        m = min_coset_rep(w, blocks_of({1, 3}))
        assert m == (1, 3, 2, 4)
        assert length(w) - length(m) == length((2, 1)) + length((2, 1))

    def test_max_rep_full_parabolic(self):
        assert max_coset_rep(identity(4), blocks_of({1, 2, 3})) == longest_element(4)

    def test_max_rep_empty_parabolic(self):
        assert max_coset_rep(identity(4), blocks_of(())) == identity(4)

    def test_max_rep_length(self):
        w = partition_to_minrep((1,), 2, 4)
        blocks = blocks_of({1, 3})
        mx = max_coset_rep(w, blocks)
        # length = |lambda| + length of the longest parabolic element
        assert length(mx) == 1 + 2
        assert min_coset_rep(mx, blocks) == w

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_length_additivity(self, n):
        # l(w) = l(minrep) + l(parabolic part), for every w and parabolic
        for idx in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(range(1, n), r) for r in range(n)
        )):
            blocks = parabolic_blocks(idx, n)
            for w in all_perms(n):
                m = min_coset_rep(w, blocks)
                u = compose(inverse(m), w)
                assert length(w) == length(m) + length(u)
                assert min_coset_rep(m, blocks) == m


class TestPartitionDictionary:
    def test_empty(self):
        assert partition_to_minrep((), 2, 4) == identity(4)

    def test_single_box(self):
        w = partition_to_minrep((1,), 2, 4)
        assert w == (1, 3, 2, 4)
        assert length(w) == 1
        assert all(w[i] < w[i + 1] for i in range(3) if i != 1)

    def test_full_box(self):
        w = partition_to_minrep((2, 2), 2, 4)
        assert w == (3, 4, 1, 2)
        assert length(w) == 4

    def test_box_violation(self):
        with pytest.raises(ValueError):
            partition_to_minrep((3, 1), 2, 4)
        with pytest.raises(ValueError):
            partition_to_minrep((1, 1, 1), 2, 4)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 4), (2, 4), (2, 5), (3, 6)])
    def test_roundtrip_and_lengths(self, m, n):
        for lam in partitions_in_box(m, n - m):
            w = partition_to_minrep(lam, m, n)
            assert minrep_to_partition(w, m, n) == lam
            assert length(w) == sum(lam)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_order_preserving_exhaustive(self, n):
        # containment of partitions matches Bruhat order on representatives
        for m in range(1, n):
            box = partitions_in_box(m, n - m)
            for lam in box:
                for mu in box:
                    expected = partition_contains(lam, mu)
                    got = bruhat_leq(
                        partition_to_minrep(lam, m, n), partition_to_minrep(mu, m, n)
                    )
                    assert expected == got

    def test_enumeration_count(self):
        assert len(partitions_in_box(2, 3)) == 10
        assert len(coset_minreps(FlagShape((2,), 5))) == 10


class TestLeftAction:
    @pytest.mark.parametrize("dims,n", [((1,), 3), ((2,), 4), ((1, 3), 4)])
    def test_trichotomy(self, dims, n):
        shape = FlagShape(dims, n)
        reps = coset_minreps(shape)
        for w in reps:
            for i in range(1, n):
                m, case = left_action_on_minrep(w, i, shape.blocks)
                assert m in reps
                if case == 0:
                    assert m == w
                else:
                    assert length(m) == length(w) + case

    def test_descent_parent_exists(self):
        shape = FlagShape((2,), 5)
        for w in coset_minreps(shape):
            if length(w) == 0:
                continue
            cases = [
                left_action_on_minrep(w, i, shape.blocks)[1] for i in range(1, 5)
            ]
            assert -1 in cases


class TestTransport:
    def test_image_identity(self):
        src = FlagShape((1, 2), 4)
        dst = FlagShape((2,), 4)
        assert image_index(identity(4), src, dst) == identity(4)

    def test_image_is_minrep_mod_larger(self):
        src = FlagShape((1, 3), 4)
        dst = FlagShape((3,), 4)
        w = (2, 1, 3, 4)  # minrep for Fl(1,3;4)
        img = image_index(w, src, dst)
        assert img == min_coset_rep(w, dst.blocks)
        # dimension drops at most by the fiber dimension
        assert length(w) - length(img) <= dimension(src) - dimension(dst)

    def test_preimage_of_point_is_fiber(self):
        src = FlagShape((1, 2, 3), 4)
        dst = FlagShape((2,), 4)
        pre = preimage_index_plain(identity(4), dst, src)
        assert length(pre) == dimension(src) - dimension(dst)

    @pytest.mark.parametrize(
        "src_dims,dst_dims,n",
        [((1, 2), (1,), 3), ((1, 2, 3), (2,), 4), ((1, 3), (1,), 4), ((1, 3), (3,), 4)],
    )
    def test_roundtrip_and_dimension(self, src_dims, dst_dims, n):
        src = FlagShape(src_dims, n)
        dst = FlagShape(dst_dims, n)
        fiber = dimension(src) - dimension(dst)
        for w in coset_minreps(dst):
            pre = preimage_index_plain(w, dst, src)
            assert image_index(pre, src, dst) == w
            assert length(pre) == length(w) + fiber

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_preimage_fixed_points_brute_force(self, n):
        # fixed points inside the preimage Schubert variety are exactly the
        # cosets mapping into the downstairs variety
        src = FlagShape(tuple(range(1, n)), n)
        dst = FlagShape((1,), n)
        for w in coset_minreps(dst):
            pre = preimage_index_plain(w, dst, src)
            for v in coset_minreps(src):
                inside = bruhat_leq(v, pre)
                maps_in = bruhat_leq(min_coset_rep(v, dst.blocks), w)
                assert inside == maps_in

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_opposite_image_agrees_with_twist_route(self, n):
        # conjugating through the longest element on both ends reproduces
        # the direct opposite-side transport
        src = FlagShape(tuple(range(1, n)), n)
        for dst_dims in [(1,), (2,), (1, 2)]:
            dst = FlagShape(dst_dims, n)
            for w in coset_minreps(src):
                direct = image_index(w, src, dst)
                twisted = dual_index(
                    image_index(dual_index(w, src), src, dst), dst
                )
                assert direct == twisted


class TestShapes:
    def test_blocks_match_parabolic_reference(self):
        # every flag shape with n <= 8: 2^(n-1) of them per n, 255 in all
        count = 0
        for n in range(1, 9):
            for r in range(n):
                for dims in itertools.combinations(range(1, n), r):
                    shape = FlagShape(dims, n)
                    parabolic = frozenset(range(1, n)) - set(dims)
                    assert shape.blocks == parabolic_blocks(parabolic, n)
                    count += 1
        assert count == 255

    def test_point_shape(self):
        pt = FlagShape.make((0, 4), 4)
        assert not pt.dims
        assert coset_minreps(pt) == (identity(4),)
        assert dimension(pt) == 0

    def test_normalization(self):
        assert FlagShape.make((2, 0, 2, 4), 4) == FlagShape((2,), 4)

    def test_grammar(self):
        assert weyl.parse_partition("2,1") == (2, 1)
        assert weyl.parse_partition("") == ()
        assert weyl.format_partition((2, 1)) == "2,1"
        with pytest.raises(ValueError):
            weyl.parse_partition("1,2")


def test_doctest_module():
    import doctest

    failures, _ = doctest.testmod(weyl)
    assert failures == 0
