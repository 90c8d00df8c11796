"""Fixed-capacity FIFO store of unit-normalized key vectors, the one gate for
its rows: push_batch checks each row once as it enters, restored rows
included, and the key array is never written, so a snapshot's rows are unit."""

from __future__ import annotations

import numpy as np

from .losses import check_unit_rows


class MemoryBank:
    """Queue of teacher keys; oldest entries fall out once capacity is reached.

    Every push replaces the key array and nothing ever writes into it, so
    ``snapshot`` hands it out read-only without a copy. The bank is never
    flushed during a run; it only ever evolves by pushes.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._rows = np.zeros((0, 0))  # (n, dim), oldest row first

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def dim(self) -> int | None:
        return self._rows.shape[1] or None

    def push_batch(self, keys) -> None:
        """Append rows in order; earlier rows are evicted first when full."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 2:
            raise ValueError("keys must be a matrix of row vectors")
        if len(keys) == 0:
            return
        if self.dim is not None and keys.shape[1] != self.dim:
            raise ValueError(
                f"key dim {keys.shape[1]} does not match bank dim {self.dim}"
            )
        check_unit_rows(keys, "bank keys")
        held = self._rows.reshape(-1, keys.shape[1])  # an empty bank is (0, 0)
        self._rows = np.concatenate((held, keys))[-self.capacity:]

    def snapshot(self) -> np.ndarray:
        """Immutable view of the current contents, oldest row first."""
        self._rows.flags.writeable = False
        return self._rows

    # Checkpoint support -----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "bank.contents": self._rows.copy(),
            "bank.capacity": np.array(self.capacity, dtype=np.int64),
        }

    @classmethod
    def from_state_arrays(cls, arrays: dict[str, np.ndarray]) -> "MemoryBank":
        """A bank of the stored capacity with the stored rows pushed: contents
        that are not a matrix raise ValueError, a row that is not unit
        InvalidRowsError. load_checkpoint refuses what does not read back."""
        bank = cls(capacity=int(arrays["bank.capacity"]))
        contents = np.asarray(arrays["bank.contents"], dtype=np.float64)
        bank.push_batch(contents)
        if not len(bank):  # an empty bank keeps the width it was saved with
            bank._rows = np.zeros(contents.shape)
        return bank
