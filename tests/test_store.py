import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from fedca import geometry
from fedca.errors import ValidationError
from fedca.store import (
    EmbeddingStore,
    ingest_binary,
    ingest_jsonl,
    write_binary,
    write_jsonl,
)
from fedca.synthetic import random_store


def _write_lines(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n", encoding="utf-8")


def test_ingest_jsonl_normalizes(tmp_path):
    path = tmp_path / "x.jsonl"
    _write_lines(path, [
        {"id": 1, "domain": "med", "embedding": [3.0, 4.0, 0.0, 0.0]},
        {"id": 2, "domain": "fin", "embedding": [0.0, 2.0, 0.0, 0.0], "text": "hello"},
        {"id": 3, "domain": "med", "embedding": [1.0, 1.0, 1.0, 1.0]},
    ])
    store = ingest_jsonl(path, dim=4)
    assert len(store) == 3
    norms = np.linalg.norm(store.vectors.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-5)
    # 3-4-5 triangle
    np.testing.assert_array_equal(
        store.get(1).embedding, np.array([0.6, 0.8, 0.0, 0.0], dtype=np.float32)
    )
    assert store.get(2).text == "hello"


def test_ingest_jsonl_dimension_mismatch_names_line(tmp_path):
    path = tmp_path / "x.jsonl"
    _write_lines(path, [{"id": 1, "domain": "a", "embedding": [1.0, 0.0, 0.0]}])
    with pytest.raises(ValidationError, match="line 1"):
        ingest_jsonl(path, dim=4)


@pytest.mark.parametrize("bad,match", [
    ({"id": 1, "domain": "a", "embedding": [0.0, 0.0]}, "zero-norm"),
    ({"id": 1, "domain": 7, "embedding": [1.0, 0.0]}, "domain"),
    ({"id": -1, "domain": "a", "embedding": [1.0, 0.0]}, "unsigned"),
    ({"domain": "a", "embedding": [1.0, 0.0]}, "missing field"),
    ({"id": True, "domain": "a", "embedding": [1.0, 0.0]}, "unsigned"),
    ({"id": 1, "domain": "a", "embedding": [1e308, 1e308]}, "overflows"),
    ({"id": 1, "domain": "a\udc80", "embedding": [1.0, 0.0]}, "lone surrogate"),
    ({"id": 1, "domain": "a", "embedding": [float("nan"), 1.0]}, "non-finite"),
    ({"id": 1, "domain": "a", "embedding": [1e308, float("inf")]}, "non-finite"),
])
def test_ingest_jsonl_rejects_bad_records(tmp_path, bad, match):
    path = tmp_path / "x.jsonl"
    _write_lines(path, [bad])
    with pytest.raises(ValidationError, match=match):
        ingest_jsonl(path, dim=2)


@pytest.mark.parametrize("embedding", [["1.0", "x"], ["1.0", "2.0"], [1.0, None],
                                       [True, False], [[1.0], [2.0, 3.0]],
                                       [True, 0.5], [0.5, False], [1, True]])
def test_ingest_jsonl_rejects_non_numeric_embedding_values(tmp_path, embedding):
    path = tmp_path / "x.jsonl"
    _write_lines(path, [{"id": 1, "domain": "a", "embedding": [1.0, 0.0]},
                        {"id": 2, "domain": "a", "embedding": embedding}])
    with pytest.raises(ValidationError, match="line 2: embedding values must be numbers"):
        ingest_jsonl(path, dim=2)


def test_ingest_jsonl_reads_numbers_on_lines_that_mention_booleans(tmp_path):
    # "true"/"false" elsewhere on the line only triggers the per-element pass
    path = tmp_path / "x.jsonl"
    _write_lines(path, [{"id": 1, "domain": "true", "embedding": [3, 4.0], "text": "false"}])
    assert np.array_equal(ingest_jsonl(path, dim=2).vectors, np.float32([[0.6, 0.8]]))


def test_ingest_jsonl_accepts_integers_beyond_int64(tmp_path):
    path = tmp_path / "x.jsonl"
    _write_lines(path, [{"id": 1, "domain": "a", "embedding": [2**70, 0]}])
    assert np.array_equal(ingest_jsonl(path, dim=2).vectors, [[1.0, 0.0]])


def test_ingest_jsonl_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "x.jsonl"
    good = json.dumps({"id": 1, "domain": "caf\u00e9", "embedding": [1.0, 0.0]})
    bad = b'{"id": 2, "domain": "caf\xe9", "embedding": [0.0, 1.0]}'
    path.write_bytes(good.encode() + b"\n" + bad + b"\n")
    with pytest.raises(ValidationError, match="line 2: not valid UTF-8"):
        ingest_jsonl(path, dim=2)
    path.write_bytes(good.encode() + b"\n")
    assert ingest_jsonl(path, dim=2).domains == ("caf\u00e9",)


def test_ingest_jsonl_duplicate_id(tmp_path):
    path = tmp_path / "x.jsonl"
    _write_lines(path, [
        {"id": 5, "domain": "a", "embedding": [1.0, 0.0]},
        {"id": 5, "domain": "b", "embedding": [0.0, 1.0]},
    ])
    with pytest.raises(ValidationError, match="line 2.*duplicate id 5"):
        ingest_jsonl(path, dim=2)


def test_ingest_jsonl_malformed_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"id": 1, "domain": "a"\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1.*malformed"):
        ingest_jsonl(path, dim=2)


def test_ingest_jsonl_names_the_first_fault_in_file_order(tmp_path):
    # rows are normalized a block at a time, so a zero-norm row is still
    # pending when a later line fails its own checks
    path = tmp_path / "x.jsonl"
    rows = [{"id": 1, "domain": "a", "embedding": [1, 0]},
            {"id": 2, "domain": "a", "embedding": [0, 0]}]
    path.write_text("\n".join(map(json.dumps, rows)) + '\n{"id": 3,\n', encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2: zero-norm vector rejected"):
        ingest_jsonl(path, dim=2)
    # the first block is full and unit-norm; the zero row is line block + 2
    dim = 64
    block = geometry._NORM_BLOCK_BYTES // (8 * dim)
    unit = [1] + [0] * (dim - 1)
    rows = [{"id": i, "domain": "a", "embedding": unit} for i in range(block + 5)]
    rows[block + 1]["embedding"] = [0] * dim
    _write_lines(path, rows)
    with pytest.raises(ValidationError, match=f"line {block + 2}: zero-norm vector rejected"):
        ingest_jsonl(path, dim=dim)


def test_binary_round_trip_is_bit_exact(tmp_path):
    store = random_store(50, 8, seed=3, domain="med")
    path = tmp_path / "x.fdca"
    write_binary(store, path)
    again = ingest_binary(path)
    assert again == store
    assert np.array_equal(again.vectors, store.vectors)


def test_binary_bytes_follow_the_record_layout(tmp_path):
    store = random_store(301, 7, seed=9, domain="méd")
    write_binary(store, tmp_path / "x.fdca")
    domain = "méd".encode("utf-8")
    want = [struct.pack("<4sIIQ", b"FDCA", 1, 7, 301)]
    for rid, vec in zip(store.ids.tolist(), store.vectors.tolist()):
        want.append(struct.pack(f"<QH{len(domain)}s7f", rid, len(domain), domain, *vec))
    assert (tmp_path / "x.fdca").read_bytes() == b"".join(want)


def test_binary_empty_store_preserves_dim(tmp_path):
    store = EmbeddingStore(6, [], [], np.empty((0, 6), np.float32))
    path = tmp_path / "empty.fdca"
    write_binary(store, path)
    again = ingest_binary(path)
    assert len(again) == 0
    assert again.dim == 6


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.fdca"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(ValidationError, match="bad magic"):
        ingest_binary(path)


def test_binary_truncated_and_unsupported_version(tmp_path):
    store = random_store(4, 3, seed=1)
    path = tmp_path / "x.fdca"
    write_binary(store, path)
    data = path.read_bytes()
    (tmp_path / "cut.fdca").write_bytes(data[:-5])
    with pytest.raises(ValidationError, match="truncated"):
        ingest_binary(tmp_path / "cut.fdca")
    bad_ver = data[:4] + (99).to_bytes(4, "little") + data[8:]
    (tmp_path / "ver.fdca").write_bytes(bad_ver)
    with pytest.raises(ValidationError, match="version"):
        ingest_binary(tmp_path / "ver.fdca")


def test_binary_domain_that_is_not_utf8_names_the_record(tmp_path):
    store = EmbeddingStore(2, [1, 2, 3], ["aa", "QQ", "aa"],
                           np.eye(2, dtype=np.float32)[[0, 1, 0]])
    path = tmp_path / "x.fdca"
    write_binary(store, path)
    data = path.read_bytes()
    assert data.count(b"QQ") == 1
    path.write_bytes(data.replace(b"QQ", b"\xff\xfe"))
    with pytest.raises(ValidationError, match="record 1: domain label is not valid UTF-8"):
        ingest_binary(path)


def test_store_keeps_the_row_norms_of_its_unit_norm_check():
    store = random_store(40, 8, seed=4)
    assert store.norms.dtype == np.float64
    assert store.norms.tobytes() == geometry._row_norms(store.vectors).tobytes()
    assert not store.norms.flags.writeable
    with pytest.raises(ValueError):
        store.norms[0] = 2.0
    # rows handed over out of id order keep their norms in id order
    shuffled = EmbeddingStore(8, store.ids[::-1], store.domains[::-1], store.vectors[::-1])
    assert shuffled.norms.tobytes() == store.norms.tobytes()
    empty = EmbeddingStore(3, [], [], np.empty((0, 3), np.float32)).norms
    assert empty.shape == (0,) and not empty.flags.writeable


def test_binary_count_beyond_payload_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.fdca"
    path.write_bytes(b"FDCA" + (1).to_bytes(4, "little") + (4).to_bytes(4, "little")
                     + (2**50).to_bytes(8, "little"))
    with pytest.raises(ValidationError, match="declares 1125899906842624 records"):
        ingest_binary(path)


def test_jsonl_binary_jsonl_round_trip_within_one_ulp(tmp_path):
    rng = np.random.default_rng(9)
    lines = [
        {"id": i, "domain": "d", "embedding": [float(x) for x in rng.standard_normal(5)]}
        for i in range(30)
    ]
    _write_lines(tmp_path / "a.jsonl", lines)
    first = ingest_jsonl(tmp_path / "a.jsonl", dim=5)
    write_binary(first, tmp_path / "a.fdca")
    via_binary = ingest_binary(tmp_path / "a.fdca")
    write_jsonl(via_binary, tmp_path / "b.jsonl")
    second = ingest_jsonl(tmp_path / "b.jsonl", dim=5)
    assert np.array_equal(first.ids, second.ids)
    assert first.domains == second.domains
    # re-normalizing an already unit vector moves it at most one float32 ulp
    diff = np.abs(first.vectors.astype(np.float64) - second.vectors.astype(np.float64))
    ulp = np.spacing(np.abs(first.vectors.astype(np.float64)))
    assert np.all(diff <= ulp + 1e-12)


def test_subset_by_domain():
    store = EmbeddingStore(
        2,
        [1, 2, 3],
        ["med", "fin", "med"],
        np.array([[1, 0], [0, 1], [1, 0]], dtype=np.float32),
    )
    med = store.subset_by_domain("med")
    assert [r.id for r in med] == [1, 3]
    assert len(store.subset_by_domain("absent")) == 0
    # idempotent
    assert med.subset_by_domain("med") == med


def test_subsets_partition_the_store():
    store = random_store(40, 4, seed=2, domain="a")
    mixed = EmbeddingStore(
        4,
        store.ids,
        ["a" if i % 3 else "b" for i in range(40)],
        store.vectors,
    )
    union_ids = []
    for label in mixed.domain_index:
        union_ids.extend(int(r) for r in mixed.subset_by_domain(label).ids)
    assert sorted(union_ids) == [int(i) for i in mixed.ids]


def test_id_lookups_follow_the_given_order_and_name_the_first_unknown_id():
    big = 2**63 + 3  # beyond int64; 2**53 + 1 apart from its neighbour as a float
    store = EmbeddingStore(2, [big, 5, 2**53 + 1, 2**53], ["a", "b", "a", "c"],
                           np.eye(2, dtype=np.float32)[[0, 1, 0, 1]])
    order = [2**53 + 1, big, 5, 2**53]
    want = [store.index_of(i) for i in order]
    for ids in (order, np.array(order, dtype=np.uint64), tuple(order)):
        assert store.positions(ids).tolist() == want
        assert np.array_equal(store.vectors_for(ids), store.vectors[want])
        assert store.subset_by_ids(ids) == store
    assert store.positions([5, 5]).tolist() == [store.index_of(5)] * 2
    assert store.positions(np.array([5, 2**53], dtype=np.int64)).tolist() == [
        store.index_of(5), store.index_of(2**53)]
    assert store.vectors_for([]).shape == (0, 2)
    for ids, first in [([5, 2**53 + 2, 9], 2**53 + 2), ([-1, 7], -1), ([big + 1], big + 1),
                       ([5, 2**64 + 5], 2**64 + 5), (np.array([5, 6, 7]), 6)]:
        for lookup in (store.positions, store.vectors_for, store.subset_by_ids):
            with pytest.raises(ValidationError, match=f"^unknown record id {first}$"):
                lookup(ids)


def test_id_lookups_take_integers_only():
    top = 2**64 - 1
    store = EmbeddingStore(2, [1, 2, 3, top], ["a"] * 4, np.eye(2, dtype=np.float32)[[0, 1, 0, 1]])
    assert store.index_of(top) == 3
    assert top in store and 3 in store and np.uint64(2) in store
    assert store.positions([]).tolist() == store.positions(()).tolist() == []
    assert store.positions([top, np.int64(1), 2]).tolist() == [3, 0, 1]
    # beyond uint64, and negative with an id past int64, which numpy reads as floats
    for ids, first in [([1, 2**64], 2**64), ([top, -1], -1)]:
        with pytest.raises(ValidationError, match=f"^unknown record id {first}$"):
            store.positions(ids)
    for ids, first in [([1.7], "1.7"), ([True], "True"), (["3"], "'3'"), ([2, 3.0], "3.0"),
                       ([None], "None"), (np.array([2.9]), "2.9"), (np.array([True]), "True"),
                       (np.array(["3"]), "'3'"), (np.array([[1]]), "[1]")]:
        for lookup in (store.positions, store.vectors_for, store.subset_by_ids):
            with pytest.raises(ValidationError, match=f"^record id {re.escape(first)} is not an"):
                lookup(ids)
    for bad in (1.5, 2.0, True, "3", None):
        assert bad not in store
        with pytest.raises(ValidationError, match="is not an integer$"):
            store.index_of(bad)


def test_ingestion_is_deterministic(tmp_path):
    store = random_store(20, 6, seed=4)
    write_binary(store, tmp_path / "x.fdca")
    a = ingest_binary(tmp_path / "x.fdca")
    b = ingest_binary(tmp_path / "x.fdca")
    assert a == b


def test_constructor_rejects_duplicate_ids_and_bad_norms():
    with pytest.raises(ValidationError, match="duplicate id"):
        EmbeddingStore(2, [1, 1], ["a", "a"], np.array([[1, 0], [0, 1]], np.float32))
    with pytest.raises(ValidationError, match="unit-norm"):
        EmbeddingStore(2, [1], ["a"], np.array([[2.0, 0.0]], np.float32))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="record id 1 has non-finite"):
            EmbeddingStore(2, [0, 1], ["a", "a"], np.array([[1, 0], [bad, 0]], np.float32))


def test_constructor_memory_is_bounded_by_the_matrix():
    # 20,000 x 256 float32 is 20 MB, 80 check blocks.
    vectors = random_store(20_000, 256, seed=5).vectors.copy()
    tracemalloc.start()
    try:
        store = EmbeddingStore(256, range(len(vectors)), ["d"] * len(vectors), vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 3 * (512 << 10)  # a float64 row block, its square and the norms
    assert peak <= 1.5 * vectors.nbytes + block
    assert not np.shares_memory(store.vectors, vectors)
    assert np.array_equal(store.vectors, vectors)


def test_norm_check_names_the_worst_row_across_blocks():
    vectors = random_store(9_000, 256, seed=6).vectors.copy()
    vectors[8_500] *= 1.001
    vectors[100] *= 1.0001
    with pytest.raises(ValidationError, match="record id 8500 is not unit-norm"):
        EmbeddingStore(256, range(9_000), ["d"] * 9_000, vectors)
    vectors[7_000, 0] = np.nan
    with pytest.raises(ValidationError, match="record id 7000 has non-finite"):
        EmbeddingStore(256, range(9_000), ["d"] * 9_000, vectors)
