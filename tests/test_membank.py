import numpy as np
import pytest

from lrco.errors import InvalidRowsError
from lrco.membank import MemoryBank
from lrco.numerics import SeededRng
from oracles import unit_rows


def test_empty_bank_basics():
    bank = MemoryBank(capacity=4)
    assert len(bank) == 0
    assert bank.dim is None
    snap = bank.snapshot()
    assert snap.shape == (0, 0)


def test_push_and_snapshot_order():
    bank = MemoryBank(capacity=3)
    rng = SeededRng(0)
    rows = unit_rows(rng, 2, 4)
    bank.push_batch(rows)
    assert len(bank) == 2
    assert bank.dim == 4
    np.testing.assert_array_equal(bank.snapshot(), rows)


def test_fifo_eviction_oldest_first():
    bank = MemoryBank(capacity=3)
    rng = SeededRng(1)
    rows = unit_rows(rng, 5, 2)
    for r in rows:
        bank.push_batch(r[None, :])
    # capacity 3 after 5 pushes: rows 2,3,4 remain in arrival order
    np.testing.assert_array_equal(bank.snapshot(), rows[2:])


def test_fifo_matches_reference_list_model():
    # randomized push sequences vs. the obvious list implementation
    rng = SeededRng(2)
    for trial in range(30):
        cap = 1 + trial % 7
        bank = MemoryBank(capacity=cap)
        reference = []
        n_ops = 1 + int(20 * float(rng.uniform()))
        for _ in range(n_ops):
            n = 1 + int(4 * float(rng.uniform()))
            batch = unit_rows(rng, n, 3)
            bank.push_batch(batch)
            reference.extend(batch)
            reference = reference[-cap:]
        np.testing.assert_array_equal(bank.snapshot(), np.asarray(reference))
        assert len(bank) == len(reference)


def test_oversized_batch_keeps_newest():
    bank = MemoryBank(capacity=2)
    rng = SeededRng(3)
    rows = unit_rows(rng, 5, 3)
    bank.push_batch(rows)
    np.testing.assert_array_equal(bank.snapshot(), rows[-2:])


def test_snapshot_is_frozen_copy():
    bank = MemoryBank(capacity=4)
    rng = SeededRng(4)
    bank.push_batch(unit_rows(rng, 2, 3))
    snap = bank.snapshot()
    with pytest.raises((ValueError, RuntimeError)):
        snap[0, 0] = 99.0
    # later pushes don't mutate an earlier snapshot
    before = snap.copy()
    bank.push_batch(unit_rows(rng, 4, 3))
    np.testing.assert_array_equal(snap, before)


def test_push_rejects_dim_change():
    bank = MemoryBank(capacity=4)
    rng = SeededRng(5)
    bank.push_batch(unit_rows(rng, 1, 3))
    with pytest.raises(ValueError):
        bank.push_batch(unit_rows(rng, 1, 5))


def test_push_rejects_non_unit_rows():
    bank = MemoryBank(capacity=4)
    with pytest.raises(ValueError):
        bank.push_batch(np.array([[2.0, 0.0]]))


def test_push_rejects_bad_shapes():
    bank = MemoryBank(capacity=4)
    with pytest.raises(ValueError):
        bank.push_batch(np.ones((2, 2, 2)))  # 3-D is never valid
    with pytest.raises(ValueError):
        bank.push_batch(np.array([1.0, 0.0]))  # nor is a single vector


def test_capacity_validation():
    with pytest.raises(ValueError):
        MemoryBank(capacity=0)
    with pytest.raises(ValueError):
        MemoryBank(capacity=-3)


def test_state_roundtrip_bitexact():
    bank = MemoryBank(capacity=6)
    rng = SeededRng(6)
    bank.push_batch(unit_rows(rng, 4, 5))
    arrays = bank.state_arrays()
    assert set(arrays) == {"bank.contents", "bank.capacity"}
    clone = MemoryBank.from_state_arrays(arrays)
    assert clone.capacity == 6
    np.testing.assert_array_equal(clone.snapshot(), bank.snapshot())
    # restored bank keeps evicting correctly
    clone.push_batch(unit_rows(rng, 3, 5))
    assert len(clone) == 6


def test_state_roundtrip_empty():
    bank = MemoryBank(capacity=8)
    clone = MemoryBank.from_state_arrays(bank.state_arrays())
    assert len(clone) == 0
    assert clone.capacity == 8


def test_restore_refuses_what_a_push_refuses():
    # the rows of a restored bank go through the push check, so a NaN row
    # never reaches a snapshot (the CLI twin: test_cli's row nan-bank.contents).
    # Rows of width 0 have norm 0, and contents that are not a matrix hold
    # no rows: both were restored unchecked before
    bank = MemoryBank(capacity=6)
    bank.push_batch(unit_rows(SeededRng(7), 4, 5))
    arrays = bank.state_arrays()
    arrays["bank.contents"][2, 1] = np.nan
    with pytest.raises(InvalidRowsError, match="bank keys must be unit-normalized"):
        MemoryBank.from_state_arrays(arrays)
    capacity = arrays["bank.capacity"]
    for contents, error in ((np.zeros((3, 0)), InvalidRowsError), (np.zeros(0), ValueError),
                            (np.zeros((0, 0, 3)), ValueError)):
        with pytest.raises(error):
            MemoryBank.from_state_arrays({"bank.contents": contents, "bank.capacity": capacity})
    with pytest.raises(ValueError, match="matrix of row vectors"):
        bank.push_batch(np.zeros(0))
    empty = MemoryBank.from_state_arrays({"bank.contents": np.zeros((0, 5)),
                                          "bank.capacity": capacity})
    assert len(empty) == 0 and empty.snapshot().shape == (0, 5)


def test_default_capacity_is_512():
    assert MemoryBank().capacity == 512


def test_bank_matches_capped_list_through_evictions_and_restore():
    # pushes that evict, one longer than the capacity, and a checkpoint
    # round trip of a full bank
    cap = 5
    bank = MemoryBank(capacity=cap)
    rng = SeededRng(7)
    reference = []
    for n in (3, 4, 2, 7, 1, 3, 4):
        rows = unit_rows(rng, n, 3)
        bank.push_batch(rows)
        reference = (reference + list(rows))[-cap:]
        np.testing.assert_array_equal(bank.snapshot(), np.asarray(reference))
        assert len(bank) == len(reference)
    assert len(bank) == cap
    arrays = bank.state_arrays()
    np.testing.assert_array_equal(arrays["bank.contents"], np.asarray(reference))
    clone = MemoryBank.from_state_arrays(arrays)
    for n in (2, 6, 3):
        rows = unit_rows(rng, n, 3)
        bank.push_batch(rows)
        clone.push_batch(rows)
        reference = (reference + list(rows))[-cap:]
        np.testing.assert_array_equal(clone.snapshot(), np.asarray(reference))
        np.testing.assert_array_equal(bank.snapshot(), np.asarray(reference))


def test_state_contents_are_a_copy():
    bank = MemoryBank(capacity=4)
    bank.push_batch(unit_rows(SeededRng(8), 3, 2))
    contents = bank.state_arrays()["bank.contents"]
    before = bank.snapshot().copy()
    contents[...] = 0.0
    np.testing.assert_array_equal(bank.snapshot(), before)


def test_push_copies_the_keys():
    bank = MemoryBank(capacity=4)
    rows = unit_rows(SeededRng(9), 3, 2)
    bank.push_batch(rows)
    rows[...] = 0.0
    assert np.all(bank.snapshot() != 0.0)
