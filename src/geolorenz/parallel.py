"""Order-preserving map over independent tasks, optionally across processes.

`repro` runs its variational seeds through `pmap`; results come back in
input order, so payloads do not depend on the number of jobs.
"""


def pmap(fn, items, jobs=1):
    """Order-preserving map, optionally across processes."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing as mp

    with mp.Pool(processes=min(int(jobs), len(items))) as pool:
        return pool.map(fn, items)
