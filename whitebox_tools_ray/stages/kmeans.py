"""K-means clustering — the stateful iterative-model exemplar.

Reference: image_analysis/k_means_clustering.rs (883 LoC) — iterate
{assign each pixel to nearest centroid, recompute centroids} until the
percent of reassigned cells drops below a tolerance or max_iter.

Ray-Data shape (SURVEY.md §2.6): an OUTER python loop drives rounds;
each round is one ``map_batches`` pass emitting per-batch partial sums
per cluster (no shuffle — the partials are (k × dim) tiny tables summed
driver-side), centroids re-broadcast each round. The input streams every
round; nothing materializes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .ann import _to_matrix


def kmeans_fit(
    ds,
    k: int = 8,
    emb_col: str = "embedding",
    max_iter: int = 10,
    tol_frac: float = 0.02,
    seed: int = 42,
):
    """Lloyd's algorithm over a Dataset's vector column.

    Returns (centroids ndarray (k, dim), n_iter, inertia).
    """
    import ray

    # init: first k distinct vectors from a deterministic sample
    sample = ds.limit(max(k * 20, 256)).to_pandas()
    m = _to_matrix(sample[emb_col])
    rng = np.random.RandomState(seed)
    centroids = m[rng.choice(len(m), size=k, replace=False)]

    n_total = ds.count()
    last_changed = n_total
    it = 0
    inertia = float("inf")
    for it in range(1, max_iter + 1):
        ref = ray.put(centroids)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            mm = _to_matrix(batch[emb_col])
            d2 = ((mm[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            kk, dim = c.shape
            sums = np.zeros((kk, dim))
            counts = np.zeros(kk, dtype=np.int64)
            np.add.at(sums, assign, mm)
            np.add.at(counts, assign, 1)
            sse = float(d2[np.arange(len(mm)), assign].sum())
            return pa.table(
                {
                    "cluster": pa.array(np.arange(kk), pa.int64()),
                    "count": pa.array(counts, pa.int64()),
                    "sse": pa.array(np.full(kk, sse / kk)),
                    **{f"s{d}": pa.array(sums[:, d]) for d in range(dim)},
                }
            )

        agg = ds.map_batches(partial, batch_format="pyarrow", batch_size=4096).to_pandas()
        g = agg.groupby("cluster").sum()
        counts = g["count"].to_numpy()
        dim = centroids.shape[1]
        sums = g[[f"s{d}" for d in range(dim)]].to_numpy()
        new_centroids = np.where(counts[:, None] > 0, sums / np.maximum(counts[:, None], 1), centroids)
        inertia = float(g["sse"].sum())
        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if shift < tol_frac:
            break
    return centroids, it, inertia


def kmeans_assign(ds, centroids: np.ndarray, emb_col: str = "embedding", out_col: str = "cluster"):
    """Final labeling pass with the fitted centroids broadcast."""
    import ray

    ref = ray.put(centroids)

    class Assign:
        def __init__(self):
            self.c = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mm = _to_matrix(batch[emb_col])
            d2 = ((mm[:, None, :] - self.c[None, :, :]) ** 2).sum(axis=2)
            return batch.append_column(out_col, pa.array(d2.argmin(axis=1).astype(np.int64)))

    return ds.map_batches(Assign, batch_format="pyarrow", batch_size=4096, concurrency=(1, 4))
