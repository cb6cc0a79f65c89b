"""Single-file model archive: JSON header, vocabulary dump, raw float64 rows.

Layout, byte-exact:

    KGEU1\\n                     magic
    <header bytes>\\n            ASCII decimal length of the header
    header                      canonical JSON (sorted keys, no spaces), UTF-8
    <vocab bytes>\\n             length of the vocabulary dump
    vocabulary dump             `<id>\\t<term>\\t<roles>` lines
    <payload bytes>\\n           length of the embedding payload
    payload                     little-endian float64: node rows in id
                                order, then transh normals in property-id
                                order

All parameters are stored and computed at 64-bit, so a load/save round
trip is bitwise exact.
"""

import json
import os
import stat
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, FormatError, InvalidConfigError
from .models import EmbeddingTable
from .trainer import TrainConfig
from .vocab import Vocabulary, dump_vocabulary, parse_vocabulary

MAGIC = b"KGEU1\n"
FORMAT_VERSION = 1


def save(table: EmbeddingTable, vocab: Vocabulary, config: TrainConfig, path: str | Path) -> None:
    """Write the archive; the table must be finite."""
    if not table.all_finite():
        raise FormatError("refusing to save non-finite parameters")
    header = dict(config.to_dict(), format_version=FORMAT_VERSION, unify=vocab.unify)
    header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    vocab_bytes = dump_vocabulary(vocab).encode()
    payload = table.node_vectors.astype("<f8").tobytes()
    if table.relation_normals is not None:
        payload += table.relation_normals.astype("<f8").tobytes()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(b"%d\n" % len(header))
        f.write(header)
        f.write(b"%d\n" % len(vocab_bytes))
        f.write(vocab_bytes)
        f.write(b"%d\n" % len(payload))
        f.write(payload)


def _read_sized(f, what: str) -> bytes:
    line = f.readline()
    if not line.endswith(b"\n"):
        raise FormatError(f"truncated archive before {what} length")
    try:
        n = int(line[:-1])
    except ValueError:
        raise FormatError(f"bad {what} length") from None
    # f.read(n) allocates n bytes up front: refuse a length past the end
    # of a regular file first (a pipe has no size to check against)
    st = os.fstat(f.fileno())
    if n < 0 or (stat.S_ISREG(st.st_mode) and n > st.st_size - f.tell()):
        raise FormatError(f"truncated {what}")
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated {what}")
    return data


def load(path: str | Path) -> tuple[EmbeddingTable, Vocabulary, TrainConfig]:
    """Read an archive back; validates version, header schema and types,
    shapes, and finiteness. Any malformed archive raises FormatError.

    The table's arrays are read-only views of the file's bytes; use
    EmbeddingTable.copy() for writeable ones."""
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise FormatError("bad magic: not a model archive")
        try:
            header = json.loads(_read_sized(f, "header"))
        except ValueError:
            raise FormatError("header is not valid UTF-8 JSON") from None
        if not isinstance(header, dict):
            raise FormatError("archive header: not a JSON object")
        version = header.pop("format_version", None)
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version!r}")
        unify = header.pop("unify", None)
        if not isinstance(unify, bool):
            raise FormatError(f"archive header: unify must be true or false, got {unify!r}")
        try:
            config = TrainConfig.from_dict(header)
        except InvalidConfigError as e:
            raise FormatError(f"archive header: {e}") from None
        try:
            vocab_text = _read_sized(f, "vocabulary").decode()
        except UnicodeDecodeError:
            raise FormatError("vocabulary is not valid UTF-8") from None
        vocab = parse_vocabulary(vocab_text, unify=unify)
        payload = _read_sized(f, "payload")
        if f.read(1):
            raise FormatError("trailing bytes after payload")

    model_cfg = config.model
    n_nodes = len(vocab)
    n_props = len(vocab.property_ids)
    width = model_cfg.width
    node_bytes = 8 * n_nodes * width
    normal_bytes = 8 * n_props * model_cfg.dim if model_cfg.model == "transh" else 0
    if len(payload) != node_bytes + normal_bytes:
        raise DimensionMismatchError(
            f"payload holds {len(payload)} bytes, expected {node_bytes + normal_bytes} "
            f"for {n_nodes} rows of width {width}"
        )
    # read-only views of the payload: no copy, and EmbeddingTable may cache its row norms
    nodes = np.frombuffer(payload, dtype="<f8", count=n_nodes * width).reshape(n_nodes, width)
    normals = None
    if model_cfg.model == "transh":
        normals = np.frombuffer(payload, dtype="<f8", offset=node_bytes).reshape(n_props, model_cfg.dim)
    table = EmbeddingTable(model_cfg, nodes, normals, vocab.property_ids.copy())
    if not table.all_finite():
        raise FormatError("archive contains non-finite parameters")
    return table, vocab, config
