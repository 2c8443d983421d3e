"""stages/kernel.py::per_process: one kernel per worker process per stage."""

import pickle

import cloudpickle
import pytest


class _Counting:
    """A kernel that counts its builds and tags each batch with its id."""

    built = 0

    def __init__(self, scale: int = 1):
        type(self).built += 1
        self.id = type(self).built
        self.scale = scale

    def __call__(self, batch):
        return [(self.id, x * self.scale) for x in batch]


@pytest.fixture(autouse=True)
def _fresh_cache():
    from ner_backend_ray.stages import kernel
    kernel._kernels.clear()
    _Counting.built = _SlowBuild.built = 0
    yield
    kernel._kernels.clear()


def test_one_build_per_process_per_stage():
    """Every batch of one stage in one process runs the same instance, even
    through a pickled copy of the batch function (a Ray task deserializes
    its function afresh)."""
    from ner_backend_ray.stages.kernel import per_process
    fn = per_process(_Counting, scale=3)
    copy = pickle.loads(cloudpickle.dumps(fn))
    assert fn([1, 2]) == [(1, 3), (1, 6)]
    assert copy([5]) == [(1, 15)]
    assert fn([0]) == [(1, 0)]
    assert _Counting.built == 1


def test_new_build_gets_new_instance():
    """Two stages built from the same class and arguments never share a
    kernel: state read at construction (an alias file) is never stale."""
    from ner_backend_ray.stages.kernel import per_process
    first, second = per_process(_Counting), per_process(_Counting)
    assert first([1]) == [(1, 1)]
    assert second([1]) == [(2, 1)]
    assert first([1]) == [(1, 1)]
    assert _Counting.built == 2


def test_cache_is_bounded():
    """At most MAX_KERNELS kernels stay per process; the least recently used
    goes first and is rebuilt if its stage runs again."""
    from ner_backend_ray.stages import kernel
    fns = [kernel.per_process(_Counting) for _ in range(kernel.MAX_KERNELS + 3)]
    for fn in fns:
        fn([0])
    assert len(kernel._kernels) == kernel.MAX_KERNELS
    assert _Counting.built == kernel.MAX_KERNELS + 3
    fns[-1]([0])                                  # recent: still cached
    assert _Counting.built == kernel.MAX_KERNELS + 3
    assert fns[0]([0]) == [(kernel.MAX_KERNELS + 4, 0)]   # evicted: rebuilt
    assert len(kernel._kernels) == kernel.MAX_KERNELS


class _SlowBuild(_Counting):
    """A kernel whose build blocks, as loading a model from disk does."""

    def __init__(self):
        import time
        time.sleep(0.05)
        super().__init__()


def test_racing_first_calls_build_once():
    """Threads of one process racing on a stage's first batch share one
    build."""
    import threading

    from ner_backend_ray.stages.kernel import per_process
    fn = per_process(_SlowBuild)
    threads = [threading.Thread(target=fn, args=([0],)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert _SlowBuild.built == 1


def test_function_carries_the_kernel_name():
    """Ray Data names the operator after the function: the tag operator's
    name must keep ``TagDocs``."""
    from ner_backend_ray.stages.kernel import per_process
    from ner_backend_ray.stages.tag import TagDocs
    assert per_process(TagDocs).__name__ == "TagDocs"
