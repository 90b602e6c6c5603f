"""``random_ids``: the vectorized first-n-distinct sampler against its
sequential oracle, the beyond-int64 rejection, and uniformity;
``validate_ids``: the array accept path against the per-ID loop, the
read-only int64 array that path returns, and the rejection of IDs
beyond int64, the one input the loop accepts and the array path does
not."""

import random
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from repro.local.ids import (
    _accepted_as_array,
    _topup_size,
    _validate_ids_loop,
    random_ids,
    validate_ids,
)


def _sequential_first_distinct(n, c, seed):
    """Reference: walk the same Generator batches one draw at a time,
    keeping each value not seen before, until ``n`` are kept."""
    rng = random.Random(seed)
    gen = np.random.default_rng(rng.getrandbits(128))
    space = n**c
    seen, ids = set(), []
    while len(ids) < n:
        size = _topup_size(n, len(ids), space)
        for x in gen.integers(1, space, size=size, endpoint=True).tolist():
            if x not in seen:
                seen.add(x)
                ids.append(x)
                if len(ids) == n:
                    break
    return ids


class TestRandomIdsOracle:
    @pytest.mark.parametrize("c", (1, 2, 3))
    @pytest.mark.parametrize("n", (1, 2, 3, 5, 16, 33, 100, 2000))
    def test_matches_sequential_first_distinct(self, n, c):
        for seed in range(4):
            ids = random_ids(n, c=c, rng=random.Random(seed))
            assert ids.tolist() == _sequential_first_distinct(n, c, seed)
            validate_ids(ids, space=n**c)

    def test_takes_one_draw_from_shared_rng(self):
        rng, twin = random.Random(11), random.Random(11)
        random_ids(40, rng=rng)
        twin.getrandbits(128)
        assert rng.random() == twin.random()


class TestBeyondInt64:
    def test_int64_boundary(self):
        # 2^62 fits int64; 2^63 is one past it, and 50^12 far past it
        for n, c in ((2, 63), (50, 12)):
            assert n**c > 2**63 - 1
            with pytest.raises(ValueError, match="int64"):
                random_ids(n, c=c, rng=random.Random(3))
        ids = random_ids(2, c=62, rng=random.Random(3))
        validate_ids(ids, space=2**62)
        assert ids.tolist() == _sequential_first_distinct(2, 62, 3)


class TestUniformity:
    def test_all_orders_of_four_equally_likely(self):
        # c=1 draws a uniform permutation of {1..4} through the top-up
        # loop: 2400 seeded draws over the 24 orders, chi-square with 23
        # degrees of freedom below its 0.1% critical value 49.73
        rng = random.Random(0)
        draws = 2400
        counts = Counter(tuple(random_ids(4, c=1, rng=rng))
                         for _ in range(draws))
        assert set(counts) == set(permutations(range(1, 5)))
        expected = draws / 24
        chi2 = sum((k - expected) ** 2 / expected for k in counts.values())
        assert chi2 < 49.73


class TestValidateIds:
    @pytest.mark.parametrize("ids", [[1, 2.0], [1, "2"], [1, 2, 3.5]])
    def test_rejects_non_integers(self, ids):
        with pytest.raises(ValueError, match="integers"):
            validate_ids(ids)

    def test_accepts_python_and_numpy_integers(self):
        validate_ids([3, 1, 2])
        validate_ids(np.array([3, 1, 2], dtype=np.int64))
        validate_ids([np.int32(4), np.uint16(2), 7])


def _outcome(check, ids, space):
    """``None`` when ``check`` accepts, else the exception's type and
    message."""
    try:
        check(ids, space)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


#: the one outcome that is not the per-ID loop's: it accepts IDs beyond
#: int64, which ``validate_ids`` rejects
BEYOND_INT64 = (ValueError, "int64")

#: ``(ids, space, outcome)``: None for accepted, else the exception type
#: and a fragment of its message
VALIDATE_CORPUS = [
    ([np.array(5), 3], None, (TypeError, "unhashable")),
    ([True, 2], None, None),
    ([True, 1], None, (ValueError, "unique")),
    ([2**63, 5], None, BEYOND_INT64),
    ([2**70, 5], None, BEYOND_INT64),
    ([-1, 2**63], None, (ValueError, ">= 1")),
    ([0, 1], None, (ValueError, ">= 1")),
    ([True, False], None, (ValueError, ">= 1")),
    ([1, 2.0], None, (ValueError, "integers")),
    (np.array([1.0, 2.0]), None, (ValueError, "integers")),
    ([1, "2"], None, (ValueError, "integers")),
    ([], None, None),
    ([1, 9], 8, (ValueError, "exceeds ID space 8")),
    ([1, 8], 8, None),
    ([np.int32(4), np.uint16(2), 7], None, None),
    ([np.uint64(2**64 - 1), 3], None, BEYOND_INT64),
    (np.array([3, 1, 2], dtype=np.uint8), None, None),
    (np.array([3, 1, 3]), None, (ValueError, "unique")),
    (np.array([[1, 2], [3, 4]]), None, (TypeError, "unhashable")),
    (range(1, 6), 5, None),
    ([5, 4, 3, 2, 1, 5], None, (ValueError, "unique")),
]


#: the accepted corpus cases
ACCEPTED_CORPUS = [
    (ids, space) for ids, space, expected in VALIDATE_CORPUS
    if expected is None
]


class TestValidateIdsArrayPath:
    """The array accept path changes speed, never the outcome: every
    input but IDs beyond int64 gets the per-ID loop's verdict, exception
    type and message."""

    @pytest.mark.parametrize(
        "ids,space,expected", VALIDATE_CORPUS,
        ids=[repr(case[0]).replace(" ", "") for case in VALIDATE_CORPUS],
    )
    def test_matches_loop(self, ids, space, expected):
        outcome = _outcome(validate_ids, ids, space)
        loop = _outcome(_validate_ids_loop, ids, space)
        if expected == BEYOND_INT64:
            assert loop is None
        else:
            assert outcome == loop
        if expected is None:
            assert outcome is None
        else:
            assert outcome[0] is expected[0]
            assert expected[1] in outcome[1]

    def test_zero_d_array_in_list_takes_the_loop(self):
        # np.asarray turns it into a valid int64 array; only the type
        # pass keeps it off the array path
        assert np.asarray([np.array(5), 3]).dtype == np.int64
        assert _accepted_as_array([np.array(5), 3], None) is None

    def test_valid_assignments_take_the_array_path(self):
        ids = random_ids(5000, rng=random.Random(2))
        assert _accepted_as_array(ids, 5000**3) is not None
        assert _accepted_as_array(np.array(ids), None) is not None
        assert _accepted_as_array([True, 2], None) is not None
        assert _accepted_as_array(ids, max(ids) - 1) is None
        assert _accepted_as_array(np.concatenate((ids, ids[:1])), None) is None

    @pytest.mark.parametrize(
        "ids,space", ACCEPTED_CORPUS,
        ids=[repr(case[0]).replace(" ", "") for case in ACCEPTED_CORPUS],
    )
    def test_returns_read_only_int64_array(self, ids, space):
        arr = validate_ids(ids, space)
        assert arr.dtype == np.int64 and not arr.flags.writeable
        expected = np.array(ids, dtype=np.int64)
        assert arr.shape == expected.shape
        assert np.array_equal(arr, expected)

    def test_corpus_holds_the_beyond_int64_rejections(self):
        beyond = [ids for ids, _space, expected in VALIDATE_CORPUS
                  if expected == BEYOND_INT64]
        assert len(beyond) == 3
        assert ACCEPTED_CORPUS

    @pytest.mark.parametrize(
        "ids",
        [[np.uint64(2**64 - 1), 3],
         np.array([2**64 - 1, 3], dtype=np.uint64), [2**63, 5]],
        ids=["uint64-scalar", "uint64-array", "python-int"],
    )
    def test_ids_beyond_int64_raise(self, ids):
        # a uint64 ID past int64 either fails the int64 conversion or
        # wraps to a negative value; both leave it to the loop, which
        # accepts it, and validate_ids then rejects it
        assert _accepted_as_array(ids, None) is None
        assert _outcome(_validate_ids_loop, ids, None) is None
        with pytest.raises(ValueError, match="IDs must fit int64"):
            validate_ids(ids)

    def test_caller_array_is_neither_aliased_nor_sealed(self):
        ids = np.array([3, 1, 2], dtype=np.int64)
        arr = validate_ids(ids)
        assert arr is not ids and not np.shares_memory(arr, ids)
        assert ids.flags.writeable and not arr.flags.writeable
        ids[0] = 7
        assert arr.tolist() == [3, 1, 2]
