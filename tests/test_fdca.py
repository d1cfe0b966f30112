"""The ``.fdca`` reader and writer against the naive ``struct`` oracle:
record layouts, chunk boundaries, seeded byte-level fuzzing and a memory
bound."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from fedca import store as store_module
from fedca.errors import ValidationError
from fedca.store import EmbeddingStore, ingest_binary, write_binary
from fedca.synthetic import random_unit_vectors
from oracles import FdcaFault, naive_fdca_bytes, naive_fdca_read
from probes import fedca_process


def _store(domains, dim=5, seed=0):
    """Unit vectors under the given labels, ids spread up to 2**64 - 1."""
    n = len(domains)
    ids = [2**64 - 1 - 7 * i for i in range(n)][::-1]
    return EmbeddingStore(dim, ids, domains,
                          random_unit_vectors(n, dim, np.random.default_rng(seed)))


def _naive_bytes(store):
    return naive_fdca_bytes(store.dim, store.ids, store.domains, store.vectors)


LAYOUTS = {
    "uniform": ["med"] * 40,
    "alternating lengths": ["a", "bb"] * 20,
    "odd length first": ["xyz"] + ["ab"] * 39,
    "odd length in the middle": ["ab"] * 20 + ["xyz"] + ["ab"] * 19,
    "odd length last": ["ab"] * 39 + ["xyz"],
    "empty label": ["", "a", "", ""] * 5,
    "trailing NUL": ["a\x00", "a", "a\x00\x00", "a\x00"] * 5,
    "multi-byte UTF-8": ["méd", "医学", "Σ", "méd"] * 5,
    "no records": [],
    "one record": ["solo"],
}


@pytest.mark.parametrize("chunk", [None, 100], ids=["chunk default", "chunk 100 bytes"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_layouts_match_the_naive_format(tmp_path, monkeypatch, layout, chunk):
    if chunk is not None:  # a few records per chunk, so runs cross chunks
        monkeypatch.setattr(store_module, "_CHUNK_BYTES", chunk)
    store = _store(LAYOUTS[layout])
    path = tmp_path / "x.fdca"
    write_binary(store, path)
    assert path.read_bytes() == _naive_bytes(store)
    again = ingest_binary(path)
    assert again == EmbeddingStore(*naive_fdca_read(path))
    assert again == store
    assert again.domains == tuple(LAYOUTS[layout])


def test_a_pipe_is_read_like_a_file(tmp_path):
    store = _store(LAYOUTS["alternating lengths"])
    fifo = tmp_path / "pipe.fdca"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(_naive_bytes(store),))
    writer.start()
    try:
        assert ingest_binary(fifo) == store
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()


def test_records_larger_than_a_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "_CHUNK_BYTES", 100)
    store = _store(["a", "bb", "bb", "ccc"] * 4, dim=40)  # 170-byte records and more
    path = tmp_path / "x.fdca"
    write_binary(store, path)
    assert path.read_bytes() == _naive_bytes(store)
    assert ingest_binary(path) == store


def test_a_run_straddles_the_chunk_boundary(tmp_path):
    # runs of 7 records, then one run of 1,500 records across the 4 MB mark
    dim = 256
    domains = ["ab" if (i // 7) % 2 else "xyz" for i in range(3_000)] + ["xyz"] * 1_500
    store = _store(domains, dim=dim, seed=3)
    path = tmp_path / "x.fdca"
    write_binary(store, path)
    record = 10 + 3 + 4 * dim
    assert 20 + 3_000 * record < store_module._CHUNK_BYTES < path.stat().st_size
    assert path.read_bytes() == _naive_bytes(store)
    assert ingest_binary(path) == EmbeddingStore(*naive_fdca_read(path)) == store


def _outcome(read, path):
    """("store", store) or ("error", message) for one reader."""
    try:
        return "store", read(path)
    except (FdcaFault, ValidationError) as exc:
        return "error", str(exc)


def _oracle_store(path):
    return EmbeddingStore(*naive_fdca_read(path))


def _fuzz_bases():
    layouts = [["a", "bb"] * 4, ["med"] * 6, ["", "é", "a\x00"] * 3, [], ["x"]]
    return [_naive_bytes(_store(domains, dim=3, seed=k)) for k, domains in enumerate(layouts)]


def _mutations(seed, bases):
    """Valid files truncated, with bytes overwritten, or spliced together."""
    rng = np.random.default_rng(seed)
    while True:
        data = bytearray(bases[rng.integers(len(bases))])
        kind = rng.integers(3)
        if kind == 0:
            data = data[: rng.integers(len(data) + 1)]
        elif kind == 1:
            for _ in range(rng.integers(1, 5)):
                data[rng.integers(len(data))] = rng.integers(256)
        else:
            other = bases[rng.integers(len(bases))]
            data = data[: rng.integers(len(data) + 1)] + other[rng.integers(len(other) + 1):]
        yield bytes(data)


FUZZ_CASES = 400
FRAMING_FAULTS = ("missing header", "bad magic", "unsupported format version",
                  "missing record count", "declares", "truncated payload in record",
                  "not valid UTF-8", "trailing data")


def test_fuzzed_files_read_as_the_oracle_reads_them(tmp_path):
    path = tmp_path / "case.fdca"
    seen = set()
    mutations = _mutations(20261019, _fuzz_bases())
    for case in range(FUZZ_CASES):
        path.write_bytes(next(mutations))
        want = _outcome(_oracle_store, path)
        got = _outcome(ingest_binary, path)
        assert got == want, (case, path.read_bytes())
        seen.update(k for k in FRAMING_FAULTS if want[0] == "error" and k in want[1])
        seen.add(want[0])
    # accepted files and every framing fault occur
    assert seen == {"store", "error", *FRAMING_FAULTS}


def test_cluster_on_a_mutated_file_exits_2(tmp_path):
    path = tmp_path / "bad.fdca"
    for data in _mutations(7, _fuzz_bases()):
        path.write_bytes(data)
        kind, message = _outcome(_oracle_store, path)
        if kind == "error":
            break
    proc = fedca_process(["cluster", "--in", "bad.fdca", "--k", "2", "--seed", "1",
                          "--out", "centers.fdca"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_first_fault_in_file_order_wins(tmp_path):
    good = bytearray(_naive_bytes(_store(["aa", "QQ", "aa", "aa"], dim=2)))
    at = good.index(b"QQ")
    good[at : at + 2] = b"\xff\xfe"
    for data in (good + b"\x00", good[:-3]):  # trailing data, a truncated last record
        (tmp_path / "x.fdca").write_bytes(data)
        with pytest.raises(ValidationError, match="^record 1: domain label is not valid UTF-8$"):
            ingest_binary(tmp_path / "x.fdca")


def test_reader_memory_is_about_one_matrix(tmp_path):
    # 20,000 x 256 float32 is 20 MB; a reader that copies its matrix peaks near twice that
    n, dim = 20_000, 256
    store = _store(["dom", "gen"] * (n // 2), dim=dim, seed=5)
    path = tmp_path / "x.fdca"
    write_binary(store, path)
    del store
    tracemalloc.start()
    try:
        again = ingest_binary(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix, ids = n * dim * 4, n * 8
    block = 3 * (512 << 10)  # a float64 row block, its square and the norms
    labels = 200 * n  # label bytes, their text, and the id and position indexes
    assert peak <= matrix + ids + store_module._CHUNK_BYTES + block + labels
    assert peak < 1.5 * matrix
    assert not again.vectors.flags.writeable
    assert not again.ids.flags.writeable


def test_adopted_arrays_are_kept_and_frozen():
    vectors = random_unit_vectors(4, 3, np.random.default_rng(1))
    ids = np.array([2, 5, 7, 9], dtype=np.uint64)
    store = EmbeddingStore._adopt(3, ids, ["a", "b", "a", "b"], vectors)
    assert store.vectors is vectors and store.ids is ids
    assert not vectors.flags.writeable and not ids.flags.writeable
    assert store.domain_index["b"].tolist() == [5, 9]
    assert store.index_of(7) == 2
    # out of id order, the store keeps a sorted copy
    shuffled = EmbeddingStore._adopt(3, ids[::-1].copy(), ["b", "a", "b", "a"], vectors[::-1])
    assert shuffled == store
