"""Independent oracle implementations used to cross-check the package.

These stay deliberately naive (double loops, full sorts, exhaustive
enumeration) and never import the code paths they verify.
"""

from __future__ import annotations

import itertools
import struct
from math import fsum

import numpy as np


def double_loop_coverage(reference, covering, affine: bool = False) -> float:
    """Definition-by-loops coverage: explicit loops over both sets."""
    ref = np.asarray(reference, dtype=np.float64)
    cov = np.asarray(covering, dtype=np.float64)
    per_point = []
    for r in ref:
        best = max(float(np.dot(r, c)) for c in cov)
        per_point.append((best + 1.0) / 2.0 if affine else best)
    return fsum(per_point) / len(per_point)


def double_loop_facility(reference, covering, affine: bool = False) -> float:
    ref = np.asarray(reference, dtype=np.float64)
    cov = np.asarray(covering, dtype=np.float64)
    per_point = []
    for r in ref:
        best = max(float(np.dot(r, c)) for c in cov)
        per_point.append((best + 1.0) / 2.0 if affine else best)
    return fsum(per_point)


def per_pair_best_similarity(reference, covering) -> np.ndarray:
    """Per-reference maximum over covering rows of the canonical pair value,
    ``np.einsum("i,i->", r, c)``, one pair at a time."""
    ref = np.asarray(reference, dtype=np.float64)
    cov = np.asarray(covering, dtype=np.float64)
    return np.array([max(float(np.einsum("i,i->", r, c)) for c in cov) for r in ref])


def full_sort_retrieval(pool_ids, pool_vectors, query, k: int, threshold=None):
    """Rank every pool record by cosine (desc, ids asc), filter, cut at k."""
    q = np.asarray(query, dtype=np.float64)
    scored = [
        (float(np.dot(np.asarray(v, dtype=np.float64), q)), int(i))
        for i, v in zip(pool_ids, pool_vectors)
    ]
    if threshold is not None:
        scored = [(s, i) for s, i in scored if s <= threshold]
    scored.sort(key=lambda p: (-p[0], p[1]))
    return scored[:k]


def naive_direct_retrieval(pool_ids, pool_vectors, centers, per_client: int):
    """Direct per-centroid retrieval for one client by full sorts.

    Centroid j ranks the whole pool by the canonical pair value
    ``np.einsum("i,i->", x, c_j)`` (desc, ids asc) and takes the first
    ``quota_j`` ids no earlier centroid took; quotas are
    floor(per_client / k), the first per_client mod k taking one extra.
    Returns the (id, sim) picks sorted by sim desc, then id asc.
    """
    vecs = np.asarray(pool_vectors, dtype=np.float64)
    base, extra = divmod(per_client, len(centers))
    seen: set[int] = set()
    picks = []
    for j, center in enumerate(centers):
        c = np.asarray(center, dtype=np.float64)
        scored = sorted(
            ((float(np.einsum("i,i->", v, c)), int(i)) for i, v in zip(pool_ids, vecs)),
            key=lambda p: (-p[0], p[1]),
        )
        fresh = [(i, s) for s, i in scored if i not in seen][: base + (j < extra)]
        seen.update(i for i, _ in fresh)
        picks.extend(fresh)
    return sorted(picks, key=lambda h: (-h[1], h[0]))


def exhaustive_best_subset(vectors, reference, n: int, affine: bool = False):
    """(best coverage, lex-first argmax subset) over all n-subsets."""
    best_val = -np.inf
    best_combo = None
    for combo in itertools.combinations(range(len(vectors)), n):
        val = double_loop_coverage(reference, [vectors[i] for i in combo], affine)
        if val > best_val:
            best_val, best_combo = val, combo
    return best_val, best_combo


def best_two_partition_cost(points) -> float:
    """Exhaustive spherical 2-means cost: min over all 2-colorings of the
    summed in-cluster SSE against each cluster's renormalized mean."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    best = np.inf
    for mask in range(1, 2 ** (n - 1)):  # fix point 0 in cluster 0 (symmetry)
        groups = [[], []]
        for i in range(n):
            groups[(mask >> i) & 1].append(i)
        cost = 0.0
        for g in groups:
            if not g:
                continue
            members = pts[g]
            center = members.mean(axis=0)
            center = center / np.linalg.norm(center)
            cost += float(((members - center) ** 2).sum())
        best = min(best, cost)
    return best


def per_pair_labels(points, centers) -> np.ndarray:
    """Label of each point: the lowest index of the centers with the largest
    canonical pair value ``np.einsum("i,i->", x, c)``, rows widened to
    float64, one pair at a time."""
    pts = np.asarray(points, dtype=np.float64)
    cen = np.asarray(centers, dtype=np.float64)
    labels = []
    for x in pts:
        sims = [float(np.einsum("i,i->", x, c)) for c in cen]
        labels.append(max(range(len(sims)), key=lambda j: (sims[j], -j)))
    return np.array(labels, dtype=np.intp)


def literal_kmeans(points, k: int, seed: int, max_iters: int = 100):
    """Seeded spherical k-means as a plain Lloyd loop: D^2 seeding, argmax
    assignment with empty-cluster repair, and every cluster re-centered from
    a boolean mask in every round. Returns the float64 centers, the final
    labels, the inertia ``np.sum(diff * diff)`` over three n x d
    temporaries, and counts of rounds, repairs and zero-norm means kept.

    Float32 points are seeded in float32: each D^2 step is ``pts32 @
    pts32[c]`` widened to float64; any other input is widened first.
    Assignment takes, per center, the canonical column ``np.einsum("ij,ij->i",
    pts, c)`` and the lowest index holding each row's maximum. A mean's norm
    is the root of that einsum over the mean as a one-row set."""
    own = np.asarray(points)
    own = own if own.dtype == np.float32 else own.astype(np.float64)
    pts = own.astype(np.float64)
    n = pts.shape[0]
    stats = {"rounds": 0, "repairs": 0, "zero_norms": 0}

    def d2_to(c):
        return np.maximum(0.0, 2.0 - 2.0 * (own @ own[c]).astype(np.float64))

    def plus_plus_init(rng):
        chosen = [int(rng.integers(n))]
        d2 = d2_to(chosen[0])
        for _ in range(1, k):
            total = float(d2.sum())
            if total <= 0.0:
                taken = set(chosen)
                nxt = next(i for i in range(n) if i not in taken)
            else:
                nxt = int(rng.choice(n, p=d2 / total))
            chosen.append(nxt)
            np.minimum(d2, d2_to(nxt), out=d2)
        return pts[chosen].copy()

    def assign(centers):
        sims = np.stack([np.einsum("ij,ij->i", pts, np.broadcast_to(c, pts.shape))
                         for c in centers], axis=1)
        return np.argmax(sims, axis=1)

    def repair_empty(centers, labels):
        counts = np.bincount(labels, minlength=k)
        if not np.any(counts == 0):
            return labels
        labels = labels.copy()
        d2 = np.maximum(0.0, 2.0 - 2.0 * np.einsum("ij,ij->i", pts, centers[labels]))
        for j in range(k):
            if counts[j]:
                continue
            # the farthest point, lowest index first, of a cluster it shares
            donors = [i for i in range(n) if counts[labels[i]] >= 2]
            far = max(donors, key=lambda i: (d2[i], -i))
            centers[j] = pts[far]
            counts[labels[far]] -= 1
            labels[far] = j
            counts[j] = 1
            stats["repairs"] += 1
        return labels

    def update(labels, centers):
        new = centers.copy()
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0] == 0:
                continue
            mean = members.mean(axis=0)
            norm = float(np.sqrt(np.einsum("ij,ij->i", mean[None], mean[None]))[0])
            if norm > 0.0:
                new[j] = mean / norm
            else:
                stats["zero_norms"] += 1
        return new

    rng = np.random.default_rng(seed)
    centers = plus_plus_init(rng)
    labels = repair_empty(centers, assign(centers))
    for _ in range(max_iters):
        stats["rounds"] += 1
        centers = update(labels, centers)
        new_labels = repair_empty(centers, assign(centers))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    diff = pts - centers[labels]
    return centers, labels, float(np.sum(diff * diff)), stats


def literal_icacs(per_client, k: int, seed: int) -> float:
    """ICACS by its definition: each client's rows, rounded to little-endian
    float32, ``sorted`` by ``row.tobytes()`` and clustered by
    ``literal_kmeans`` at ``seed`` itself with k shrunk to the client's size;
    then the mean, over every pair of centers of two different clients, of
    the pair value ``np.einsum("i,i->", x, y)`` of the float32 centers
    widened to float64, summed with ``fsum``."""
    centers = []
    for client in per_client:
        rows = np.array(sorted(np.asarray(client, dtype="<f4"), key=lambda row: row.tobytes()))
        found = literal_kmeans(rows, min(k, len(rows)), seed)[0]
        centers.append(found.astype(np.float32).astype(np.float64))
    sims = [float(np.einsum("i,i->", x, y))
            for a, b in itertools.combinations(centers, 2) for x in a for y in b]
    return fsum(sims) / len(sims)


# Per-candidate selection searches, scoring each subset by one fsum over the
# per-reference maxima of canonical similarity columns: the pair value
# ``np.einsum("i,i->", r, v)`` of rows widened to float64, one pair at a time.
SWAP_EPS = 1e-12


def canonical_columns(pool_vectors, reference):
    ref = np.asarray(reference, dtype=np.float64)
    return [np.array([float(np.einsum("i,i->", r, vec)) for r in ref])
            for vec in np.asarray(pool_vectors, dtype=np.float64)]


def _subset_value(columns, members, affine: bool) -> float:
    best = np.full(columns[0].shape[0], -np.inf)
    for i in members:
        best = np.maximum(best, columns[i])
    if affine:
        best = (best + 1.0) * 0.5
    return fsum(best.tolist()) / best.shape[0]


def literal_greedy(pool_clients, pool_vectors, reference, affine=False, *, seed=0, init="first",
                   per_client_slots=False, literal_termination=False):
    """Swap search scoring every candidate of every slot scan on its own.

    ``pool_clients[i]`` is pool entry i's client, the pool sorted by
    (client, cluster). Returns (slot pool indices, passes, swaps, trace).
    """
    columns = canonical_columns(pool_vectors, reference)
    by_client: dict[int, list[int]] = {}
    for idx, client in enumerate(pool_clients):
        by_client.setdefault(client, []).append(idx)
    order = sorted(by_client)
    if init == "first":
        slots = [by_client[c][0] for c in order]
    else:
        rng = np.random.default_rng(seed)
        slots = [by_client[c][int(rng.integers(len(by_client[c])))] for c in order]

    def scan(i):
        others = slots[:i] + slots[i + 1:]
        allowed = by_client[order[i]] if per_client_slots else range(len(columns))
        best_val, best_idx = -np.inf, None
        for idx in allowed:
            if idx in others:
                continue
            val = _subset_value(columns, others + [idx], affine)
            if val > best_val:
                best_val, best_idx = val, idx
        return best_val, best_idx

    current = _subset_value(columns, slots, affine)
    trace, swaps, scans, passes = [current], 0, 0, 0
    while True:
        passes += 1
        accepted = 0
        for i in range(len(order)):
            scans += 1
            val, idx = scan(i)
            if idx is None or val <= current + SWAP_EPS:
                if literal_termination:
                    return slots, -(-scans // len(order)), swaps, trace
                continue
            slots[i], current = idx, val
            swaps += 1
            accepted += 1
            trace.append(current)
        if accepted == 0:
            return slots, passes, swaps, trace


def dict_beam(pool_vectors, reference, n_slots: int, width: int, affine=False):
    """Beam search holding every expansion's maxima in a dict keyed by the
    sorted subset. Returns (best subset, its value)."""
    columns = canonical_columns(pool_vectors, reference)
    beam = [()]
    for _ in range(n_slots):
        expanded = {}
        for state in beam:
            for idx in range(len(columns)):
                if idx not in state:
                    new = tuple(sorted(state + (idx,)))
                    expanded.setdefault(new, _subset_value(columns, new, affine))
        ranked = sorted(expanded.items(), key=lambda item: (-item[1], item[0]))
        beam = [state for state, _ in ranked[:width]]
    return list(beam[0]), _subset_value(columns, beam[0], affine)


def literal_brute(pool_vectors, reference, n_slots: int, affine=False):
    """First subset in lexicographic order with the largest value, and that value."""
    columns = canonical_columns(pool_vectors, reference)
    best_val, best = -np.inf, None
    for combo in itertools.combinations(range(len(columns)), n_slots):
        val = _subset_value(columns, combo, affine)
        if val > best_val:
            best_val, best = val, combo
    return list(best), best_val


class FdcaFault(ValueError):
    """A malformed ``.fdca`` file, carrying the reader's message."""


def naive_fdca_read(path):
    """Parse an ``.fdca`` file one record at a time with ``struct``.

    Returns ``(dim, ids, domains, vectors)`` as stored, or raises ``FdcaFault``
    with the package reader's message for the first framing fault in file
    order. The checks after parsing (dimension, duplicate ids, unit norms)
    belong to the store constructor and are left to it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise FdcaFault("truncated payload: missing header")
    magic, version, dim = struct.unpack_from("<4sII", data, 0)
    if magic != b"FDCA":
        raise FdcaFault(f"bad magic {magic!r}")
    if version != 1:
        raise FdcaFault(f"unsupported format version {version}")
    if len(data) < 20:
        raise FdcaFault("truncated payload: missing record count")
    (count,) = struct.unpack_from("<Q", data, 12)
    offset = 20
    if count * (10 + 4 * dim) > len(data) - offset:
        raise FdcaFault(
            f"truncated payload: header declares {count} records of at least "
            f"{10 + 4 * dim} bytes, but {len(data) - offset} bytes follow"
        )
    ids, domains, rows = [], [], []
    for i in range(count):
        if offset + 10 > len(data):
            raise FdcaFault(f"truncated payload in record {i}")
        record_id, label_len = struct.unpack_from("<QH", data, offset)
        offset += 10
        if offset + label_len + 4 * dim > len(data):
            raise FdcaFault(f"truncated payload in record {i}")
        try:
            domains.append(data[offset : offset + label_len].decode("utf-8"))
        except UnicodeDecodeError:
            raise FdcaFault(f"record {i}: domain label is not valid UTF-8") from None
        offset += label_len
        rows.append(data[offset : offset + 4 * dim])
        offset += 4 * dim
        ids.append(record_id)
    if offset != len(data):
        raise FdcaFault(f"trailing data after {count} records")
    vectors = np.frombuffer(b"".join(rows), dtype="<f4").reshape(count, dim)
    return dim, ids, domains, vectors.astype(np.float32)


def naive_fdca_bytes(dim, ids, domains, vectors) -> bytes:
    """The ``.fdca`` bytes of the records, packed one at a time with ``struct``."""
    parts = [struct.pack("<4sIIQ", b"FDCA", 1, dim, len(ids))]
    for record_id, domain, vector in zip(ids, domains, vectors):
        label = domain.encode("utf-8")
        parts.append(struct.pack(f"<QH{len(label)}s", int(record_id), len(label), label))
        parts.append(np.asarray(vector, dtype="<f4").tobytes())
    return b"".join(parts)
