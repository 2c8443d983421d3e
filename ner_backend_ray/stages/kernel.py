"""Load-once kernels for task-based ``map_batches``.

A stateful per-doc stage (a tagger, a linker's alias dictionary) is costly to
build and cheap to call, so it must be built once per worker process, not once
per batch. ``per_process(cls, **kwargs)`` gives that without an actor pool: it
returns a plain picklable batch function. The first batch a worker process
runs builds ``cls(**kwargs)``; later batches of the same stage in that process
reuse the instance. Ray Data's executor owns the slots, so no CPUs sit reserved
for a pool and no worker processes are started per pipeline.

Each call mints a token and keys the cache on it, so a kernel lives only as
long as the stage that asked for it: a rebuilt stage over a rewritten alias
file never sees the old dictionary. The cache holds a few kernels per process
and drops the least recently used.

Usage (whole blocks, so a read upstream fuses into the same task;
pipelines/kg.py::tag_pages slices each block into ``KGConfig.batch_size``-doc
kernel calls):
    ds.map_batches(per_process(TagDocs, **kwargs), batch_size=None,
                   batch_format="pyarrow", zero_copy_batch=True)
"""

from __future__ import annotations

import threading
import uuid
from collections import OrderedDict

# kernels kept per worker process, least recently used dropped first
MAX_KERNELS = 4
_kernels: OrderedDict[str, object] = OrderedDict()
_lock = threading.Lock()


def _kernel(token: str, cls, kwargs: dict):
    """This process's ``cls(**kwargs)`` for ``token``, built on first use."""
    with _lock:
        kernel = _kernels.get(token)
        if kernel is None:
            kernel = _kernels[token] = cls(**kwargs)
            while len(_kernels) > MAX_KERNELS:
                _kernels.popitem(last=False)
        else:
            _kernels.move_to_end(token)
        return kernel


def per_process(cls, **kwargs):
    """A batch function that runs ``cls(**kwargs)`` over each batch, building
    it once per worker process for this stage. The function carries
    ``cls``'s name, which Ray Data uses to name the operator."""
    token = uuid.uuid4().hex

    def run(batch):
        return _kernel(token, cls, kwargs)(batch)

    run.__name__ = cls.__name__
    return run
