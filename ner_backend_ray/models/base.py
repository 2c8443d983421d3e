"""Tagger protocol and registry.

Analog of the reference's Model interface + ModelLoader registry
(internal/core/model.go:13-75): an opaque stateful scorer loaded once per worker
(here: once per Ray worker process in ``__init__``) exposing per-document prediction.

``predict`` takes raw document bytes and returns entities in token/offset order
(ascending start), as the reference taggers do (SURVEY.md §2.10) — FilterEntities
relies on that ordering.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..core.entity import Entity


class Tagger(Protocol):
    def predict(self, text: bytes) -> list[Entity]: ...


_REGISTRY: dict[str, Callable[..., Tagger]] = {}


def register_tagger(model_type: str, loader: Callable[..., Tagger]) -> None:
    _REGISTRY[model_type] = loader


def load_tagger(model_type: str, **kwargs) -> Tagger:
    """model.go:49-75 analog — keyed loader registry."""
    try:
        loader = _REGISTRY[model_type]
    except KeyError:
        raise ValueError(f"unknown model type {model_type!r}; known: {sorted(_REGISTRY)}")
    return loader(**kwargs)


class WindowedTagger:
    """Window-then-predict wrapper — the BOLT/python model execution shape
    (internal/core/bolt/bolt_unix.go:41-74, internal/core/python/model.go:173-200):
    split into fixed token windows (core/split.py, the SplitText port), run the
    inner tagger per window, shift entities back to document offsets. Wraps any
    registered Tagger; window size is the batch-shaping knob (SURVEY.md §2.2 M2)."""

    def __init__(self, inner: Tagger, window_tokens: int = 100):
        self.inner = inner
        self.window_tokens = window_tokens

    def predict(self, text: bytes) -> list[Entity]:
        from ..core.split import split_text_custom_length
        sentences, offsets = split_text_custom_length(text, self.window_tokens)
        out: list[Entity] = []
        for sent, off in zip(sentences, offsets):
            for e in self.inner.predict(sent):
                out.append(Entity(label=e.label, text=e.text,
                                  start=e.start + off, end=e.end + off,
                                  lcontext=e.lcontext, rcontext=e.rcontext))
        out.sort(key=lambda e: (e.start, e.end))
        return out
