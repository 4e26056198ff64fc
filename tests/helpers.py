"""Shared builders for micro-scale models, synthetic conditions, edited
checkpoints and a disk that fills up mid-write."""

import builtins
import errno
import json
import struct

import numpy as np

from linf import numerics as nm
from linf.implicit import ConditionerOutput
from linf.model import Model, ModelConfig


def micro_config(**overrides) -> ModelConfig:
    base = dict(
        patch_side=1,
        frequencies=4,
        flow_layers=3,
        encoder_channels=8,
        encoder_blocks=1,
        trunk_width=32,
        phase_hidden=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def micro_model(seed=0, **overrides) -> Model:
    return Model.create(micro_config(**overrides), seed=seed)


def identity_cond(layers, dim, batch=1) -> ConditionerOutput:
    zeros = np.zeros((batch, dim))
    return ConditionerOutput(
        [nm.tensor(np.zeros(batch)) for _ in range(layers)],
        [nm.tensor(np.ones((batch, dim))) for _ in range(layers)],
        [nm.tensor(zeros) for _ in range(layers)],
    )


def with_header(blob: bytes, **fields) -> bytes:
    """The checkpoint `blob` with `fields` replaced in its JSON header."""
    hlen = struct.unpack_from("<I", blob, 8)[0]
    header = json.loads(blob[12 : 12 + hlen])
    header.update(fields)
    text = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen :]


class _FullDisk:
    """A binary file that takes `room` bytes and then fails as a full disk
    does, after writing the part that fitted."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def write(self, data) -> int:
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def full_disk_open(room: int):
    """A stand-in for a module's `open` whose files fail after `room` bytes."""
    return lambda path, mode="r": _FullDisk(builtins.open(path, mode), room)
